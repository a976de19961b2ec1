//! Synthetic image classification tasks (QMNIST / Fashion-MNIST /
//! CIFAR-10 / CIFAR-100 stand-ins).
//!
//! Each class gets a smooth random prototype image; samples are the
//! prototype plus pixel noise and a random global intensity jitter.
//! Difficulty scales the noise and the class count.

use crate::Difficulty;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

/// An in-memory image classification dataset with a train/test split.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    /// Dataset name (e.g. `"qmnist-like"`).
    pub name: String,
    /// Training images, each `[channels, height, width]`.
    pub train_x: Vec<Tensor>,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test images.
    pub test_x: Vec<Tensor>,
    /// Test labels.
    pub test_y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    /// Image geometry `(channels, height, width)`.
    pub geometry: (usize, usize, usize),
}

impl ImageDataset {
    /// Generates a dataset.
    ///
    /// `per_class` controls the number of training samples per class; a
    /// third as many test samples are drawn per class.
    pub fn generate(
        name: &str,
        seed: u64,
        difficulty: Difficulty,
        geometry: (usize, usize, usize),
        per_class: usize,
    ) -> Self {
        let (c, h, w) = geometry;
        let mut rng = Pcg32::seed_from_u64(seed);
        // Smooth prototypes: random low-frequency cosine mixtures.
        let prototypes: Vec<Tensor> = (0..difficulty.classes)
            .map(|_| {
                let fx = rng.uniform(0.5, 2.5);
                let fy = rng.uniform(0.5, 2.5);
                let px = rng.uniform(0.0, std::f32::consts::TAU);
                let py = rng.uniform(0.0, std::f32::consts::TAU);
                let amp = rng.uniform(0.8, 1.2);
                let mut t = Tensor::zeros(&[c, h, w]);
                let dst = t.as_mut_slice();
                for ch in 0..c {
                    let chp = ch as f32 * 0.7;
                    for y in 0..h {
                        for x in 0..w {
                            let v = amp
                                * ((fx * x as f32 / w as f32 * std::f32::consts::TAU + px + chp)
                                    .cos()
                                    + (fy * y as f32 / h as f32 * std::f32::consts::TAU + py)
                                        .sin());
                            dst[(ch * h + y) * w + x] = v;
                        }
                    }
                }
                t
            })
            .collect();

        let sample = |rng: &mut Pcg32, class: usize| -> Tensor {
            let jitter = rng.uniform(0.85, 1.15);
            let noise = rng.randn(&[c, h, w], difficulty.noise);
            prototypes[class]
                .scale(jitter)
                .add(&noise)
                .expect("same shape")
        };

        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for class in 0..difficulty.classes {
            for _ in 0..per_class {
                train_x.push(sample(&mut rng, class));
                train_y.push(class);
            }
            for _ in 0..per_class.div_ceil(3) {
                test_x.push(sample(&mut rng, class));
                test_y.push(class);
            }
        }
        // Shuffle training order (deterministic).
        let mut order: Vec<usize> = (0..train_x.len()).collect();
        rng.shuffle(&mut order);
        let train_x = order.iter().map(|&i| train_x[i].clone()).collect();
        let train_y: Vec<usize> = order.iter().map(|&i| train_y[i]).collect();

        ImageDataset {
            name: name.to_string(),
            train_x,
            train_y,
            test_x,
            test_y,
            classes: difficulty.classes,
            geometry,
        }
    }

    /// The four CNN benchmarks of Table III, graded easy → hard.
    ///
    /// `per_class` scales the dataset size (use a small value for CI).
    pub fn table3_suite(seed: u64, per_class: usize) -> Vec<ImageDataset> {
        let geo = (1, 12, 12);
        vec![
            ImageDataset::generate("qmnist-like", seed, Difficulty::easy(10), geo, per_class),
            ImageDataset::generate(
                "fashion-like",
                seed + 1,
                Difficulty::medium(10),
                geo,
                per_class,
            ),
            ImageDataset::generate(
                "cifar10-like",
                seed + 2,
                Difficulty::hard(10),
                geo,
                per_class,
            ),
            ImageDataset::generate(
                "cifar100-like",
                seed + 3,
                Difficulty {
                    noise: 1.1,
                    classes: 20,
                },
                geo,
                per_class,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ImageDataset::generate("t", 7, Difficulty::easy(3), (1, 8, 8), 4);
        let b = ImageDataset::generate("t", 7, Difficulty::easy(3), (1, 8, 8), 4);
        assert_eq!(a.train_y, b.train_y);
        assert_eq!(a.train_x[0], b.train_x[0]);
    }

    #[test]
    fn sizes_and_labels() {
        let d = ImageDataset::generate("t", 1, Difficulty::medium(5), (1, 8, 8), 6);
        assert_eq!(d.train_x.len(), 30);
        assert_eq!(d.test_x.len(), 10);
        assert!(d.train_y.iter().all(|&y| y < 5));
        assert_eq!(d.train_x[0].dims(), &[1, 8, 8]);
    }

    #[test]
    fn classes_are_separable_at_low_noise() {
        // Nearest-prototype classification on an easy dataset should be
        // nearly perfect — sanity check that labels carry signal.
        let d = ImageDataset::generate(
            "t",
            3,
            Difficulty {
                noise: 0.1,
                classes: 4,
            },
            (1, 8, 8),
            8,
        );
        // Recompute class means from train split as stand-in prototypes.
        let mut means = vec![Tensor::zeros(&[1, 8, 8]); 4];
        let mut counts = vec![0usize; 4];
        for (x, &y) in d.train_x.iter().zip(&d.train_y) {
            means[y] = means[y].add(x).unwrap();
            counts[y] += 1;
        }
        for (m, &n) in means.iter_mut().zip(&counts) {
            *m = m.scale(1.0 / n as f32);
        }
        let mut correct = 0;
        for (x, &y) in d.test_x.iter().zip(&d.test_y) {
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da: f32 = x
                        .sub(&means[a])
                        .unwrap()
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum();
                    let db: f32 = x
                        .sub(&means[b])
                        .unwrap()
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == y {
                correct += 1;
            }
        }
        let acc = correct as f32 / d.test_y.len() as f32;
        assert!(acc > 0.9, "nearest-prototype accuracy {acc}");
    }

    #[test]
    fn suite_is_graded() {
        let suite = ImageDataset::table3_suite(1, 2);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[3].classes, 20);
    }
}
