//! Synthetic citation-style graphs (Reddit / CORA / Pubmed / Citeseer
//! stand-ins) generated from a stochastic block model, for the GCN
//! accuracy experiments.

use crate::Difficulty;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

/// A node-classification graph dataset.
#[derive(Debug, Clone)]
pub struct GraphDataset {
    /// Dataset name (e.g. `"cora-like"`).
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Feature dimension.
    pub features: usize,
    /// Number of classes (= SBM communities).
    pub classes: usize,
    /// Node feature matrix `[nodes, features]`.
    pub x: Tensor,
    /// Symmetrically normalized adjacency with self-loops,
    /// `D^{-1/2} (A + I) D^{-1/2}`, stored dense `[nodes, nodes]`. Shared:
    /// every clone of the dataset — one graph carrying many feature sets —
    /// holds one buffer ([`Tensor::shares_storage`]), and a model that
    /// compiles `Â` into a program recognises it there in O(1). Editing a
    /// clone's through [`Tensor::as_mut_slice`] copies it first.
    pub a_hat: Tensor,
    /// Node labels.
    pub y: Vec<usize>,
    /// Indices of training nodes.
    pub train_idx: Vec<usize>,
    /// Indices of test nodes.
    pub test_idx: Vec<usize>,
}

impl GraphDataset {
    /// Generates an SBM graph: nodes split evenly into
    /// `difficulty.classes` communities, intra-community edge probability
    /// `p_in`, inter `p_out = p_in · mix`, where `mix` grows with the
    /// difficulty noise. Node features are community prototypes plus
    /// Gaussian noise.
    pub fn generate(
        name: &str,
        seed: u64,
        difficulty: Difficulty,
        nodes: usize,
        features: usize,
        p_in: f32,
    ) -> Self {
        let classes = difficulty.classes;
        let mut rng = Pcg32::seed_from_u64(seed);
        let y: Vec<usize> = (0..nodes).map(|i| i % classes).collect();
        let mix = (0.08 + 0.3 * (difficulty.noise - 0.35)).clamp(0.02, 0.8);
        let p_out = p_in * mix;

        // Adjacency with self-loops.
        let mut adj = vec![0.0f32; nodes * nodes];
        for i in 0..nodes {
            adj[i * nodes + i] = 1.0;
            for j in (i + 1)..nodes {
                let p = if y[i] == y[j] { p_in } else { p_out };
                if rng.next_f32() < p {
                    adj[i * nodes + j] = 1.0;
                    adj[j * nodes + i] = 1.0;
                }
            }
        }
        // Symmetric normalization.
        let deg: Vec<f32> = (0..nodes)
            .map(|i| adj[i * nodes..(i + 1) * nodes].iter().sum::<f32>())
            .collect();
        let mut a_hat = vec![0.0f32; nodes * nodes];
        for i in 0..nodes {
            for j in 0..nodes {
                if adj[i * nodes + j] != 0.0 {
                    a_hat[i * nodes + j] = adj[i * nodes + j] / (deg[i] * deg[j]).sqrt();
                }
            }
        }

        // Features: community prototype + noise.
        let prototypes: Vec<Tensor> = (0..classes).map(|_| rng.randn(&[features], 1.0)).collect();
        let mut x = Tensor::zeros(&[nodes, features]);
        for i in 0..nodes {
            let noise = rng.randn(&[features], difficulty.noise);
            let row = prototypes[y[i]].add(&noise).expect("same shape");
            x.row_mut(i)
                .expect("in bounds")
                .copy_from_slice(row.as_slice());
        }

        // Split on a shuffled permutation so the test set covers all
        // communities (a stride-based split would alias with the
        // `i % classes` label assignment).
        let mut order: Vec<usize> = (0..nodes).collect();
        rng.shuffle(&mut order);
        let mut train_idx = Vec::new();
        let mut test_idx = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            if pos % 3 == 2 {
                test_idx.push(i);
            } else {
                train_idx.push(i);
            }
        }

        GraphDataset {
            name: name.to_string(),
            nodes,
            features,
            classes,
            x,
            a_hat: Tensor::from_vec(a_hat, &[nodes, nodes]).expect("square"),
            y,
            train_idx,
            test_idx,
        }
    }

    /// The four GCN benchmarks of Table III, graded easy → hard.
    ///
    /// `scale` multiplies the node counts (use 1 for CI).
    pub fn table3_suite(seed: u64, scale: usize) -> Vec<GraphDataset> {
        let s = scale.max(1);
        vec![
            GraphDataset::generate("reddit-like", seed, Difficulty::easy(5), 120 * s, 32, 0.20),
            GraphDataset::generate(
                "cora-like",
                seed + 1,
                Difficulty::medium(7),
                140 * s,
                32,
                0.16,
            ),
            GraphDataset::generate(
                "pubmed-like",
                seed + 2,
                Difficulty::medium(3),
                120 * s,
                32,
                0.14,
            ),
            GraphDataset::generate(
                "citeseer-like",
                seed + 3,
                Difficulty::hard(6),
                120 * s,
                32,
                0.12,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hat_rows_are_normalized() {
        let d = GraphDataset::generate("t", 1, Difficulty::easy(3), 30, 8, 0.3);
        // Row sums of D^{-1/2}(A+I)D^{-1/2} are ≤ ~1 and positive.
        for i in 0..30 {
            let s: f32 = d.a_hat.row(i).unwrap().iter().sum();
            assert!(s > 0.0 && s < 1.5, "row {i} sum {s}");
        }
        // Self loops present.
        assert!(d.a_hat.at(&[0, 0]).unwrap() > 0.0);
    }

    #[test]
    fn symmetric() {
        let d = GraphDataset::generate("t", 2, Difficulty::medium(3), 24, 8, 0.3);
        for i in 0..24 {
            for j in 0..24 {
                let a = d.a_hat.at(&[i, j]).unwrap();
                let b = d.a_hat.at(&[j, i]).unwrap();
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn communities_have_more_internal_edges() {
        let d = GraphDataset::generate("t", 3, Difficulty::easy(2), 60, 8, 0.3);
        let mut intra = 0;
        let mut inter = 0;
        for i in 0..60 {
            for j in (i + 1)..60 {
                if d.a_hat.at(&[i, j]).unwrap() > 0.0 {
                    if d.y[i] == d.y[j] {
                        intra += 1;
                    } else {
                        inter += 1;
                    }
                }
            }
        }
        assert!(intra > inter * 2, "intra {intra} inter {inter}");
    }

    #[test]
    fn split_partitions_nodes() {
        let d = GraphDataset::generate("t", 4, Difficulty::easy(3), 30, 8, 0.3);
        assert_eq!(d.train_idx.len() + d.test_idx.len(), 30);
        assert!(d.test_idx.iter().all(|i| !d.train_idx.contains(i)));
    }

    #[test]
    fn deterministic() {
        let a = GraphDataset::generate("t", 5, Difficulty::easy(3), 20, 4, 0.3);
        let b = GraphDataset::generate("t", 5, Difficulty::easy(3), 20, 4, 0.3);
        assert_eq!(a.a_hat, b.a_hat);
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn clones_share_a_hat_until_one_is_edited() {
        let a = GraphDataset::generate("t", 6, Difficulty::easy(3), 20, 4, 0.3);
        let mut b = a.clone();
        assert!(a.a_hat.shares_storage(&b.a_hat));
        b.a_hat.as_mut_slice()[0] += 1.0;
        assert!(!a.a_hat.shares_storage(&b.a_hat));
        assert_eq!(
            a.a_hat,
            GraphDataset::generate("t", 6, Difficulty::easy(3), 20, 4, 0.3).a_hat
        );
    }

    #[test]
    fn suite_composition() {
        let suite = GraphDataset::table3_suite(1, 1);
        assert_eq!(suite.len(), 4);
        assert!(suite.iter().all(|d| d.nodes >= 100));
    }
}
