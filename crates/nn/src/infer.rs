//! Inference backends: exact arithmetic versus the CPWL path the array
//! executes.
//!
//! [`InferenceMode::Cpwl`] replaces every nonlinear operation with its
//! capped piecewise-linear lowering (exactly the IPF + MHP math from
//! `onesa-cpwl`) and, when `quantize` is set, round-trips activations
//! through symmetric INT16 at every layer boundary — the paper's
//! evaluation precision.
//!
//! A mode decides how one evaluation computes, not how many run at once:
//! a batch of inferences is a batch of compiled network programs (each
//! model's `onesa_plan::Compile` impl) that `onesa_core`'s `BatchEngine` / `ServeEngine`
//! coalesce stage by stage.

use onesa_cpwl::ops::{self, TableSet};
use onesa_cpwl::{CpwlError, NonlinearFn};
use onesa_tensor::quant::QuantTensor;
use onesa_tensor::Tensor;
use std::sync::Arc;

/// How a model evaluates its nonlinear operations at inference time.
#[derive(Debug, Clone, Default)]
pub enum InferenceMode {
    /// Reference floating-point arithmetic.
    #[default]
    Exact,
    /// CPWL tables at one granularity, optionally with INT16 activation
    /// quantization (the paper's configuration).
    Cpwl {
        /// Shared table set (`Arc`: cloning a mode, or seeding an
        /// executor's table cache from it, is a refcount bump, never a
        /// copy of the tables).
        tables: Arc<TableSet>,
        /// Round-trip activations through INT16 at layer boundaries.
        quantize: bool,
    },
}

impl InferenceMode {
    /// Builds the paper-default CPWL mode (INT16 quantization on).
    ///
    /// # Errors
    ///
    /// Propagates table construction failures.
    pub fn cpwl(granularity: f32) -> Result<Self, CpwlError> {
        Ok(InferenceMode::Cpwl {
            tables: Arc::new(TableSet::for_granularity(granularity)?),
            quantize: true,
        })
    }

    /// CPWL without quantization (isolates the approximation error).
    ///
    /// # Errors
    ///
    /// Propagates table construction failures.
    pub fn cpwl_unquantized(granularity: f32) -> Result<Self, CpwlError> {
        Ok(InferenceMode::Cpwl {
            tables: Arc::new(TableSet::for_granularity(granularity)?),
            quantize: false,
        })
    }

    /// The compile-time image of this mode for the Program IR: what
    /// each model's `onesa_plan::Compile` impl stamps onto emitted `onesa_plan::Program`s.
    pub fn eval_mode(&self) -> onesa_plan::EvalMode {
        match self {
            InferenceMode::Exact => onesa_plan::EvalMode::Exact,
            InferenceMode::Cpwl { tables, quantize } => onesa_plan::EvalMode::Cpwl {
                granularity: tables.granularity(),
                quantize: *quantize,
            },
        }
    }

    /// The mode's table set as a shared handle (`None` for
    /// [`InferenceMode::Exact`]): the zero-copy way to seed an
    /// `onesa_plan::TableCache` — a refcount bump instead of cloning
    /// every table.
    pub fn shared_table_set(&self) -> Option<Arc<TableSet>> {
        match self {
            InferenceMode::Exact => None,
            InferenceMode::Cpwl { tables, .. } => Some(Arc::clone(tables)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            InferenceMode::Exact => "exact".to_string(),
            InferenceMode::Cpwl { tables, quantize } => {
                format!(
                    "cpwl(g={}{})",
                    tables.granularity(),
                    if *quantize { ",int16" } else { "" }
                )
            }
        }
    }

    /// INT16 round trip at a layer boundary (identity when disabled).
    pub fn boundary(&self, x: &Tensor) -> Tensor {
        match self {
            InferenceMode::Cpwl { quantize: true, .. } => QuantTensor::round_trip(x),
            _ => x.clone(),
        }
    }

    /// ReLU under this mode.
    pub(crate) fn relu(&self, x: &Tensor) -> Tensor {
        match self {
            InferenceMode::Exact => x.map(|v| v.max(0.0)),
            InferenceMode::Cpwl { tables, .. } => tables.relu(x).expect("shape preserved"),
        }
    }

    /// GELU under this mode.
    pub fn gelu(&self, x: &Tensor) -> Tensor {
        match self {
            InferenceMode::Exact => x.map(|v| NonlinearFn::Gelu.eval(v)),
            InferenceMode::Cpwl { tables, .. } => tables.gelu(x).expect("shape preserved"),
        }
    }

    /// Row-wise softmax under this mode.
    pub fn softmax_rows(&self, x: &Tensor) -> Tensor {
        match self {
            InferenceMode::Exact => ops::softmax_rows_exact(x).expect("matrix"),
            InferenceMode::Cpwl { tables, .. } => tables.softmax_rows(x).expect("matrix"),
        }
    }

    /// [`InferenceMode::softmax_rows`] on one row, in place.
    pub(crate) fn softmax_row(&self, row: &mut [f32]) {
        match self {
            InferenceMode::Exact => ops::softmax_row_exact(row),
            InferenceMode::Cpwl { tables, .. } => tables.softmax_row(row),
        }
    }

    /// Row-wise layer norm under this mode.
    pub fn layernorm_rows(&self, x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> Tensor {
        match self {
            InferenceMode::Exact => {
                ops::layernorm_rows_exact(x, gamma, beta, eps).expect("shapes agree")
            }
            InferenceMode::Cpwl { tables, .. } => tables
                .layernorm_rows(x, gamma, beta, eps)
                .expect("shapes agree"),
        }
    }

    /// Per-channel batch-norm folding coefficients `(k, b)` such that
    /// `y = k·x + b`. The `1/√(σ²+ε)` goes through the rsqrt table in
    /// CPWL mode — the only place inference-time batch norm is nonlinear.
    pub(crate) fn batchnorm_fold(
        &self,
        mean: &[f32],
        var: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> (Vec<f32>, Vec<f32>) {
        let inv_std = |v: f32| -> f32 {
            match self {
                InferenceMode::Exact => 1.0 / (v + eps).sqrt(),
                InferenceMode::Cpwl { tables, .. } => tables
                    .table(NonlinearFn::Rsqrt)
                    .expect("rsqrt is in the standard set")
                    .eval(v + eps),
            }
        };
        let k: Vec<f32> = (0..mean.len())
            .map(|c| gamma[c] * inv_std(var[c]))
            .collect();
        let b: Vec<f32> = (0..mean.len()).map(|c| beta[c] - mean[c] * k[c]).collect();
        (k, b)
    }

    /// Applies folded batch norm to a `[C, H, W]` sample (a single MHP on
    /// the array).
    pub(crate) fn batchnorm_apply(&self, x: &Tensor, k: &[f32], b: &[f32]) -> Tensor {
        let dims = x.dims();
        let (c, h, w) = (dims[0], dims[1], dims[2]);
        let mut y = x.clone();
        for ch in 0..c {
            for v in &mut y.as_mut_slice()[ch * h * w..(ch + 1) * h * w] {
                *v = *v * k[ch] + b[ch];
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_tensor::rng::Pcg32;
    use onesa_tensor::stats;

    #[test]
    fn exact_and_fine_cpwl_agree() {
        let mode = InferenceMode::cpwl_unquantized(0.03125).unwrap();
        let x = Pcg32::seed_from_u64(1).randn(&[4, 16], 1.5);
        let exact = InferenceMode::Exact;
        assert!(stats::max_abs_diff(mode.gelu(&x).as_slice(), exact.gelu(&x).as_slice()) < 0.01);
        assert!(
            stats::max_abs_diff(
                mode.softmax_rows(&x).as_slice(),
                exact.softmax_rows(&x).as_slice()
            ) < 0.01
        );
    }

    #[test]
    fn boundary_quantization_only_when_enabled() {
        let x = Pcg32::seed_from_u64(2).randn(&[2, 8], 1.0);
        let exact = InferenceMode::Exact;
        assert_eq!(exact.boundary(&x), x);
        let unq = InferenceMode::cpwl_unquantized(0.25).unwrap();
        assert_eq!(unq.boundary(&x), x);
        let q = InferenceMode::cpwl(0.25).unwrap();
        let back = q.boundary(&x);
        assert_ne!(back, x);
        assert!(stats::max_abs_diff(back.as_slice(), x.as_slice()) < 1e-3);
    }

    #[test]
    fn batchnorm_fold_matches_direct_formula() {
        let exact = InferenceMode::Exact;
        let (k, b) = exact.batchnorm_fold(&[1.0], &[4.0], &[2.0], &[0.5], 0.0);
        assert!((k[0] - 1.0).abs() < 1e-6);
        assert!((b[0] - (-0.5)).abs() < 1e-6);
        let x = Tensor::from_vec(vec![3.0, 5.0], &[1, 1, 2]).unwrap();
        let y = exact.batchnorm_apply(&x, &k, &b);
        assert_eq!(y.as_slice(), &[2.5, 4.5]);
    }

    #[test]
    fn coarse_cpwl_batchnorm_differs() {
        let fine = InferenceMode::cpwl_unquantized(0.0625).unwrap();
        let coarse = InferenceMode::cpwl_unquantized(1.0).unwrap();
        let (kf, _) = fine.batchnorm_fold(&[0.0], &[2.7], &[1.0], &[0.0], 1e-5);
        let (kc, _) = coarse.batchnorm_fold(&[0.0], &[2.7], &[1.0], &[0.0], 1e-5);
        let exact = 1.0 / 2.7f32.sqrt();
        assert!((kf[0] - exact).abs() < (kc[0] - exact).abs());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(InferenceMode::Exact.label(), "exact");
        assert!(InferenceMode::cpwl(0.25).unwrap().label().contains("0.25"));
        assert!(InferenceMode::cpwl(0.25).unwrap().label().contains("int16"));
    }
}
