//! Training configuration shared by the three model families.

/// Hyperparameters for the in-repo training runs.
///
/// The defaults are sized for the synthetic Table III datasets: small
/// models, a few hundred samples, seconds of wall-clock per task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size (CNN only; the transformer trains per sequence
    /// and the GCN full-batch).
    pub batch_size: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            lr: 3e-3,
            batch_size: 16,
            seed: 42,
        }
    }
}
