//! Synthetic token-sequence tasks (SST-2 / QNLI / STS-B / CoLA
//! stand-ins) for the transformer accuracy experiments.
//!
//! Sequences are drawn from class-conditional token distributions with a
//! few class-marker tokens sprinkled in; difficulty controls how often
//! the markers appear. The STS-B stand-in is a regression task whose
//! target is the (noisy) marker density, scored by Pearson correlation
//! as in GLUE.

use crate::Difficulty;
use onesa_tensor::rng::Pcg32;

/// Task flavour, mirroring the GLUE benchmarks used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextTask {
    /// Binary classification (SST-2-like / CoLA-like).
    Classification,
    /// Scalar regression in `[0, 1]` (STS-B-like), scored with Pearson.
    Regression,
}

/// A token-sequence dataset with a train/test split.
#[derive(Debug, Clone)]
pub struct TextDataset {
    /// Dataset name (e.g. `"sst2-like"`).
    pub name: String,
    /// Task flavour.
    pub task: TextTask,
    /// Vocabulary size (token ids are `0..vocab`).
    pub vocab: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Number of classes (2 for the binary tasks; 1 bucket for regression).
    pub classes: usize,
    /// Training sequences (token ids).
    pub train_x: Vec<Vec<usize>>,
    /// Training labels (class id, or scaled regression target).
    pub train_y: Vec<f32>,
    /// Test sequences.
    pub test_x: Vec<Vec<usize>>,
    /// Test labels.
    pub test_y: Vec<f32>,
}

impl TextDataset {
    /// Generates a classification dataset: class `c` prefers a band of
    /// the vocabulary and injects marker token `c` with probability
    /// inversely tied to `difficulty.noise`.
    pub fn classification(
        name: &str,
        seed: u64,
        difficulty: Difficulty,
        vocab: usize,
        seq_len: usize,
        per_class: usize,
    ) -> Self {
        let classes = difficulty.classes;
        let mut rng = Pcg32::seed_from_u64(seed);
        let marker_prob = (0.9 - 0.55 * (difficulty.noise - 0.35)).clamp(0.15, 0.95);
        let gen = |rng: &mut Pcg32, class: usize| -> Vec<usize> {
            (0..seq_len)
                .map(|_| {
                    if rng.next_f32() < marker_prob / seq_len as f32 * 3.0 {
                        // Marker tokens live at the top of the vocabulary.
                        vocab - 1 - class
                    } else {
                        // Class-banded background tokens with leakage.
                        let band = vocab / classes.max(1);
                        let base = if rng.next_f32() < 0.45 {
                            class * band
                        } else {
                            0
                        };
                        let width = if base == 0 { vocab - classes } else { band };
                        base + rng.below(width.max(1) as u32) as usize
                    }
                })
                .collect()
        };
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for class in 0..classes {
            for _ in 0..per_class {
                train_x.push(gen(&mut rng, class));
                train_y.push(class as f32);
            }
            for _ in 0..per_class.div_ceil(3) {
                test_x.push(gen(&mut rng, class));
                test_y.push(class as f32);
            }
        }
        let mut order: Vec<usize> = (0..train_x.len()).collect();
        rng.shuffle(&mut order);
        TextDataset {
            name: name.to_string(),
            task: TextTask::Classification,
            vocab,
            seq_len,
            classes,
            train_x: order.iter().map(|&i| train_x[i].clone()).collect(),
            train_y: order.iter().map(|&i| train_y[i]).collect(),
            test_x,
            test_y,
        }
    }

    /// Generates a regression dataset: the target is the fraction of
    /// marker tokens in the sequence, observed with label noise.
    pub(crate) fn regression(
        name: &str,
        seed: u64,
        difficulty: Difficulty,
        vocab: usize,
        seq_len: usize,
        samples: usize,
    ) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let gen = |rng: &mut Pcg32| -> (Vec<usize>, f32) {
            let density = rng.next_f32();
            let seq: Vec<usize> = (0..seq_len)
                .map(|_| {
                    if rng.next_f32() < density * 0.5 {
                        vocab - 1
                    } else {
                        rng.below((vocab - 1) as u32) as usize
                    }
                })
                .collect();
            let measured = seq.iter().filter(|&&t| t == vocab - 1).count() as f32 / seq_len as f32;
            let label = (measured * 2.0 + rng.normal() * difficulty.noise * 0.05).clamp(0.0, 1.0);
            (seq, label)
        };
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for i in 0..samples {
            let (x, y) = gen(&mut rng);
            if i % 4 == 3 {
                test_x.push(x);
                test_y.push(y);
            } else {
                train_x.push(x);
                train_y.push(y);
            }
        }
        TextDataset {
            name: name.to_string(),
            task: TextTask::Regression,
            vocab,
            seq_len,
            classes: 1,
            train_x,
            train_y,
            test_x,
            test_y,
        }
    }

    /// The four transformer benchmarks of Table III, graded easy → hard.
    pub fn table3_suite(seed: u64, per_class: usize) -> Vec<TextDataset> {
        let vocab = 64;
        let seq = 16;
        vec![
            TextDataset::classification(
                "sst2-like",
                seed,
                Difficulty::easy(2),
                vocab,
                seq,
                per_class,
            ),
            TextDataset::classification(
                "qnli-like",
                seed + 1,
                Difficulty::medium(2),
                vocab,
                seq,
                per_class,
            ),
            TextDataset::regression(
                "stsb-like",
                seed + 2,
                Difficulty::medium(1),
                vocab,
                seq,
                per_class * 2,
            ),
            TextDataset::classification(
                "cola-like",
                seed + 3,
                Difficulty::hard(2),
                vocab,
                seq,
                per_class,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_shapes() {
        let d = TextDataset::classification("t", 1, Difficulty::easy(2), 32, 8, 10);
        assert_eq!(d.train_x.len(), 20);
        assert_eq!(d.test_x.len(), 8);
        assert!(d.train_x.iter().all(|s| s.len() == 8));
        assert!(d.train_x.iter().flatten().all(|&t| t < 32));
    }

    #[test]
    fn deterministic() {
        let a = TextDataset::classification("t", 9, Difficulty::medium(2), 32, 8, 5);
        let b = TextDataset::classification("t", 9, Difficulty::medium(2), 32, 8, 5);
        assert_eq!(a.train_x, b.train_x);
        assert_eq!(a.train_y, b.train_y);
    }

    #[test]
    fn markers_carry_signal() {
        // Counting class-0 vs class-1 marker tokens should beat chance
        // easily on the easy task.
        let d = TextDataset::classification("t", 2, Difficulty::easy(2), 32, 16, 40);
        let mut correct = 0;
        for (x, &y) in d.test_x.iter().zip(&d.test_y) {
            let m0 = x.iter().filter(|&&t| t == 31).count();
            let m1 = x.iter().filter(|&&t| t == 30).count();
            let pred = if m0 >= m1 { 0.0 } else { 1.0 };
            if pred == y {
                correct += 1;
            }
        }
        let acc = correct as f32 / d.test_y.len() as f32;
        assert!(acc > 0.75, "marker-count accuracy {acc}");
    }

    #[test]
    fn regression_targets_in_range() {
        let d = TextDataset::regression("t", 3, Difficulty::medium(1), 32, 16, 40);
        assert!(d.train_y.iter().all(|&y| (0.0..=1.0).contains(&y)));
        assert_eq!(d.task, TextTask::Regression);
        assert!(!d.test_x.is_empty());
    }

    #[test]
    fn suite_composition() {
        let suite = TextDataset::table3_suite(1, 4);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[2].task, TextTask::Regression);
    }
}
