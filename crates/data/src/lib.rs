//! Synthetic dataset generators for the ONE-SA accuracy experiments.
//!
//! The paper evaluates 17 tasks across CNN (QMNIST / Fashion-MNIST /
//! CIFAR-10 / CIFAR-100), BERT (SST-2 / QNLI / STS-B / CoLA) and GCN
//! (Reddit / CORA / Pubmed / Citeseer) benchmarks. Those datasets are not
//! available offline, so this crate generates *synthetic stand-ins with
//! graded difficulty* — the property Table III actually exercises is how
//! approximation error interacts with task margin and network depth, and
//! that is preserved by controlling class separation and noise
//! (see DESIGN.md §2, substitutions).
//!
//! All generators are deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use onesa_data::{Difficulty, ImageDataset};
//!
//! // 2 classes × 8 training samples per class, 1×8×8 images.
//! let data = ImageDataset::generate("demo", 7, Difficulty::easy(2), (1, 8, 8), 8);
//! assert_eq!(data.train_x.len(), 16);
//! assert_eq!(data.train_x[0].dims(), &[1, 8, 8]);
//! // Same seed ⇒ same bytes, every time.
//! let again = ImageDataset::generate("demo", 7, Difficulty::easy(2), (1, 8, 8), 8);
//! assert_eq!(data.train_x[0], again.train_x[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graphs;
mod images;
pub mod text;

pub use graphs::GraphDataset;
pub use images::ImageDataset;
pub use text::TextDataset;

/// Task difficulty knob: how separable the generated classes are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Difficulty {
    /// Standard deviation of per-sample noise relative to the prototype
    /// signal (higher = harder).
    pub noise: f32,
    /// Number of classes (more = harder).
    pub classes: usize,
}

impl Difficulty {
    /// Easy task (QMNIST / Reddit / SST-2 tier: near-saturated accuracy).
    pub fn easy(classes: usize) -> Self {
        Difficulty {
            noise: 0.35,
            classes,
        }
    }

    /// Medium task (Fashion-MNIST / CORA / QNLI tier).
    pub fn medium(classes: usize) -> Self {
        Difficulty {
            noise: 0.7,
            classes,
        }
    }

    /// Hard task (CIFAR / CoLA / Citeseer tier: small margins).
    pub fn hard(classes: usize) -> Self {
        Difficulty {
            noise: 1.1,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn difficulty_ordering() {
        assert!(Difficulty::easy(10).noise < Difficulty::medium(10).noise);
        assert!(Difficulty::medium(10).noise < Difficulty::hard(10).noise);
    }
}
