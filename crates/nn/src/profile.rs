//! Operation-class accounting (the basis of the paper's Fig 1 pies).
//!
//! Every workload phase is classified as GEMM, elementwise multiply/add,
//! softmax, normalization or activation, with a documented per-element
//! op cost for the non-GEMM classes (an "op" is one multiply or one add,
//! matching how profilers count the nonlinear helpers).

use std::collections::BTreeMap;

/// The operation classes of Fig 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// General matrix multiplication (convolutions count here via
    /// im2col).
    Gemm,
    /// Standalone elementwise multiplies (residual scaling etc.).
    Multiply,
    /// Standalone elementwise adds (residual connections, bias adds).
    Add,
    /// Softmax.
    Softmax,
    /// Batch / layer normalization.
    Norm,
    /// Pointwise activations (ReLU, GELU, …).
    Activation,
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpClass::Gemm => "GEMM",
            OpClass::Multiply => "Multiply",
            OpClass::Add => "Add",
            OpClass::Softmax => "Softmax",
            OpClass::Norm => "Norm",
            OpClass::Activation => "Activation",
        };
        f.write_str(s)
    }
}

/// Per-element op costs of the non-GEMM classes.
///
/// Softmax: exp (4) + sum-share (1) + divide (2) ≈ 7; normalization:
/// mean/var accumulation (3) + normalize (2) + affine (2) ≈ 7 (unfused
/// inference, as a general-purpose profiler sees it); GELU ≈ 8 (erf
/// polynomial); ReLU = 1.
pub(crate) fn ops_per_element(class: OpClass, gelu_like: bool) -> u64 {
    match class {
        OpClass::Gemm => 1, // per MAC
        OpClass::Multiply => 1,
        OpClass::Add => 1,
        OpClass::Softmax => 7,
        OpClass::Norm => 7,
        OpClass::Activation => {
            if gelu_like {
                8
            } else {
                1
            }
        }
    }
}

/// An op-count accumulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: BTreeMap<OpClass, u64>,
}

impl OpCounts {
    /// Empty counter.
    pub(crate) fn new() -> Self {
        OpCounts::default()
    }

    /// Adds `ops` operations of `class`.
    pub(crate) fn add(&mut self, class: OpClass, ops: u64) {
        *self.counts.entry(class).or_insert(0) += ops;
    }

    /// Total operations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Operations of one class.
    pub(crate) fn of(&self, class: OpClass) -> u64 {
        self.counts.get(&class).copied().unwrap_or(0)
    }

    /// Percentage share of one class (0 for an empty counter).
    pub fn share(&self, class: OpClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.of(class) as f64 / total as f64 * 100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_hundred() {
        let mut c = OpCounts::new();
        c.add(OpClass::Gemm, 720);
        c.add(OpClass::Norm, 215);
        c.add(OpClass::Activation, 46);
        c.add(OpClass::Softmax, 2);
        let total: f64 = [
            OpClass::Gemm,
            OpClass::Norm,
            OpClass::Activation,
            OpClass::Softmax,
        ]
        .iter()
        .map(|&cl| c.share(cl))
        .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_counter_is_safe() {
        let c = OpCounts::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c.share(OpClass::Gemm), 0.0);
    }

    #[test]
    fn per_element_costs() {
        assert_eq!(ops_per_element(OpClass::Activation, false), 1);
        assert_eq!(ops_per_element(OpClass::Activation, true), 8);
        assert!(ops_per_element(OpClass::Softmax, false) > 1);
    }

    #[test]
    fn accumulation() {
        let mut c = OpCounts::new();
        c.add(OpClass::Gemm, 10);
        c.add(OpClass::Gemm, 5);
        assert_eq!(c.of(OpClass::Gemm), 15);
        assert_eq!(c.counts.len(), 1);
    }
}
