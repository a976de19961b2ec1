//! Matrix-level CPWL operators and the lowering of composite nonlinear
//! ops (softmax, layer norm) into the paper's architecture events.
//!
//! The decomposition mirrors §III of the paper: every *pointwise*
//! nonlinearity becomes IPF + MHP; every *reduction* is a GEMM against a
//! constant vector (ones for sums, `1/N` for means), which the array
//! executes natively. This module provides the functional (value-level)
//! form used by the accuracy experiments; `onesa-core` replays exactly
//! the same step sequence on the cycle-level simulator.
//!
//! On the host every IPF + MHP pair here is the table's fused sweep
//! (see [`crate::PwlTable::eval_in_place`]): the pointwise operators
//! allocate their output and run it, and [`TableSet::softmax_rows`] and
//! [`TableSet::layernorm_rows`] are one output buffer their rows are
//! reduced, swept and scaled in.
//!
//! A reduction runs sixteen rows side by side ([`gemm::fold_rows`]) — the
//! host's version of the array's `X · 1`, with every row's accumulator in
//! flight at once instead of one row's chain after another — and the
//! pointwise steps between reductions sweep the whole block, the
//! reciprocal or `rsqrt` once over its sixteen row values. Each row's
//! reduction is still its own left-to-right chain, so the values, and
//! their bits, are those of the step-by-step lowering the doc comments
//! list. [`TableSet::softmax_row`], which the executor's causal softmax
//! calls on each row's visible prefix, is the same steps one row at a
//! time.

use crate::{NonlinearFn, PwlTable, Result};
use onesa_tensor::{gemm, Tensor};

/// Rows a softmax or layer-norm block reduces side by side: the lanes of
/// one [`gemm::fold_rows`].
const BLOCK: usize = 16;

/// A cached set of CPWL tables at one shared granularity — the paper's
/// per-network "approximation granularity setting".
///
/// # Example
///
/// ```
/// use onesa_cpwl::ops::TableSet;
///
/// let tables = TableSet::for_granularity(0.25)?;
/// let x = onesa_tensor::Tensor::from_vec(vec![0.5, -0.5], &[1, 2])?;
/// let y = tables.gelu(&x)?;
/// assert!((y.as_slice()[0] - 0.345_7).abs() < 0.02);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TableSet {
    granularity: f32,
    gelu: PwlTable,
    exp: PwlTable,
    reciprocal: PwlTable,
    rsqrt: PwlTable,
    tanh: PwlTable,
    sigmoid: PwlTable,
    relu: PwlTable,
}

impl TableSet {
    /// Builds the standard table set at the given granularity.
    ///
    /// Ranges follow the lowering contracts: `exp` sees max-subtracted
    /// logits (`≤ 0`), `reciprocal` sees softmax denominators (`≥ 1`),
    /// `rsqrt` sees variances plus epsilon.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures (e.g. absurd granularity).
    pub fn for_granularity(granularity: f32) -> Result<Self> {
        let build = |func: NonlinearFn| {
            let mut b = PwlTable::builder(func).granularity(granularity);
            if let Some((lo, hi)) = Self::standard_range(func) {
                b = b.range(lo, hi).max_segments(32_768);
            }
            b.build()
        };
        Ok(TableSet {
            granularity,
            gelu: build(NonlinearFn::Gelu)?,
            exp: build(NonlinearFn::Exp)?,
            reciprocal: build(NonlinearFn::Reciprocal)?,
            rsqrt: build(NonlinearFn::Rsqrt)?,
            tanh: build(NonlinearFn::Tanh)?,
            sigmoid: build(NonlinearFn::Sigmoid)?,
            relu: build(NonlinearFn::Relu)?,
        })
    }

    /// Range overrides the standard set applies on top of
    /// [`NonlinearFn::default_range`] (`None` = the default range).
    fn standard_range(func: NonlinearFn) -> Option<(f32, f32)> {
        match func {
            NonlinearFn::Exp => Some((-16.0, 0.0)),
            NonlinearFn::Reciprocal => Some((1.0, 257.0)),
            NonlinearFn::Rsqrt => Some((0.0625, 64.0625)),
            _ => None,
        }
    }

    /// Number of segments the standard set's table for `func` holds at
    /// `granularity` — the L3 k/b preload footprint — computed without
    /// building the table (same formula as the table builder). `None`
    /// when the set does not tabulate `func`.
    pub fn preload_segments(func: NonlinearFn, granularity: f32) -> Option<usize> {
        if !(Self::supports(func) && granularity.is_finite() && granularity > 0.0) {
            return None;
        }
        let (lo, hi) = Self::standard_range(func).unwrap_or_else(|| func.default_range());
        Some((((hi - lo) / granularity).round() as usize).max(1))
    }

    /// The shared granularity.
    pub fn granularity(&self) -> f32 {
        self.granularity
    }

    /// Whether the standard set tabulates `func` — compile-time
    /// metadata for program validators: a `Program` op referencing an
    /// uncovered function must be rejected *before* it reaches an
    /// engine's queue, where [`TableSet::table`] would return `None`.
    pub fn supports(func: NonlinearFn) -> bool {
        matches!(
            func,
            NonlinearFn::Gelu
                | NonlinearFn::Exp
                | NonlinearFn::Reciprocal
                | NonlinearFn::Rsqrt
                | NonlinearFn::Tanh
                | NonlinearFn::Sigmoid
                | NonlinearFn::Relu
        )
    }

    /// Borrow an individual table by function.
    ///
    /// Returns `None` for functions outside the cached set (see
    /// [`TableSet::supports`]).
    pub fn table(&self, func: NonlinearFn) -> Option<&PwlTable> {
        match func {
            NonlinearFn::Gelu => Some(&self.gelu),
            NonlinearFn::Exp => Some(&self.exp),
            NonlinearFn::Reciprocal => Some(&self.reciprocal),
            NonlinearFn::Rsqrt => Some(&self.rsqrt),
            NonlinearFn::Tanh => Some(&self.tanh),
            NonlinearFn::Sigmoid => Some(&self.sigmoid),
            NonlinearFn::Relu => Some(&self.relu),
            _ => None,
        }
    }

    /// GELU over a tensor (IPF + MHP).
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn gelu(&self, x: &Tensor) -> Result<Tensor> {
        self.gelu.eval_tensor(x)
    }

    /// ReLU over a tensor (IPF + MHP; exact at any granularity).
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn relu(&self, x: &Tensor) -> Result<Tensor> {
        self.relu.eval_tensor(x)
    }

    /// Row-wise softmax lowered to array events:
    ///
    /// 1. row max (reduction; exact),
    /// 2. shift by `-max` (MHP add),
    /// 3. `exp` via IPF + MHP,
    /// 4. row sum via GEMM with a ones vector (exact),
    /// 5. `1/sum` via IPF + MHP,
    /// 6. row scale (MHP).
    ///
    /// Rows run sixteen side by side (see the [module docs](self)), with
    /// the bits of [`TableSet::softmax_row`] on each.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `x` is not a matrix.
    pub fn softmax_rows(&self, x: &Tensor) -> Result<Tensor> {
        let (_, n) = x.shape().as_matrix()?;
        let mut out = x.clone();
        self.softmax_rows_in_place(out.as_mut_slice(), n);
        Ok(out)
    }

    /// [`TableSet::softmax_rows`] in place over `rows`, whole rows of `n`.
    pub fn softmax_rows_in_place(&self, rows: &mut [f32], n: usize) {
        for block in rows.chunks_mut(BLOCK * n.max(1)) {
            self.softmax_block(block, n);
        }
    }

    /// The six steps of [`TableSet::softmax_rows`] on one block of at most
    /// [`BLOCK`] rows of `n` (`n > 0`), in place: each reduction is one
    /// [`gemm::fold_rows`], each pointwise step one pass over the block.
    fn softmax_block(&self, block: &mut [f32], n: usize) {
        let mut max = [f32::NEG_INFINITY; BLOCK];
        gemm::fold_rows(block, n, &mut max, |m, v| if v > m { v } else { m });
        for (row, max) in block.chunks_exact_mut(n).zip(max) {
            for v in row {
                *v -= max;
            }
        }
        self.exp.eval_in_place(block);
        let mut sum = [-0.0f32; BLOCK];
        gemm::fold_rows(block, n, &mut sum, |s, v| s + v);
        let rows = block.len() / n;
        let mut inv = [0.0f32; BLOCK];
        self.reciprocal.eval_slice(&sum[..rows], &mut inv[..rows]);
        for (row, inv) in block.chunks_exact_mut(n).zip(inv) {
            for v in row {
                *v *= inv;
            }
        }
    }

    /// The six steps of [`TableSet::softmax_rows`] on one row, in place —
    /// the same values, one row's chains at a time.
    pub fn softmax_row(&self, row: &mut [f32]) {
        let max = gemm::row_max(row);
        for v in row.iter_mut() {
            *v -= max;
        }
        self.exp.eval_in_place(row);
        let inv = self.reciprocal.eval(row.iter().sum());
        for v in row {
            *v *= inv;
        }
    }

    /// Row-wise layer normalization lowered to array events:
    ///
    /// 1. row mean via GEMM with `1/N` vector (exact),
    /// 2. centering (MHP add),
    /// 3. squares via MHP (`x ⊙ x`),
    /// 4. row mean of squares via GEMM (exact variance),
    /// 5. `1/√(var+ε)` via IPF + MHP,
    /// 6. scale + affine (`γ`, `β`) via MHPs.
    ///
    /// Sixteen rows run side by side, as in [`TableSet::softmax_rows`];
    /// each row's sums start at `-0.0` and run left to right, so the
    /// result is that of the same steps taken one row at a time.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `x` is not a matrix or `gamma`/`beta`
    /// lengths differ from the row width.
    pub fn layernorm_rows(
        &self,
        x: &Tensor,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> Result<Tensor> {
        let (m, n) = x.shape().as_matrix()?;
        if gamma.len() != n || beta.len() != n {
            return Err(crate::CpwlError::Tensor(
                onesa_tensor::TensorError::ShapeMismatch {
                    lhs: vec![m, n],
                    rhs: vec![gamma.len(), beta.len()],
                    op: "layernorm_rows",
                },
            ));
        }
        let mut out = x.clone();
        for block in out.as_mut_slice().chunks_mut(BLOCK * n.max(1)) {
            let rows = block.len() / n;
            let mut sum = [-0.0f32; BLOCK];
            gemm::fold_rows(block, n, &mut sum, |s, v| s + v);
            for (row, sum) in block.chunks_exact_mut(n).zip(sum) {
                let mean = sum / n as f32;
                for v in row {
                    *v -= mean;
                }
            }
            let mut var = [-0.0f32; BLOCK];
            gemm::fold_rows(block, n, &mut var, |s, v| s + v * v);
            for v in &mut var[..rows] {
                *v = *v / n as f32 + eps;
            }
            let mut inv_std = [0.0f32; BLOCK];
            self.rsqrt.eval_slice(&var[..rows], &mut inv_std[..rows]);
            for (row, inv_std) in block.chunks_exact_mut(n).zip(inv_std) {
                for ((v, g), b) in row.iter_mut().zip(gamma).zip(beta) {
                    *v = *v * inv_std * g + b;
                }
            }
        }
        Ok(out)
    }
}

/// Exact row-wise softmax (reference for tests and the `Exact` backend).
///
/// # Errors
///
/// Returns a tensor error if `x` is not a matrix.
pub fn softmax_rows_exact(x: &Tensor) -> Result<Tensor> {
    let (_, n) = x.shape().as_matrix()?;
    let mut out = x.clone();
    for row in out.as_mut_slice().chunks_mut(n.max(1)) {
        softmax_row_exact(row);
    }
    Ok(out)
}

/// [`softmax_rows_exact`] on one row, in place.
pub fn softmax_row_exact(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Exact row-wise layer normalization (reference).
///
/// # Errors
///
/// Returns a tensor error on malformed operands.
pub fn layernorm_rows_exact(x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> Result<Tensor> {
    let (m, n) = x.shape().as_matrix()?;
    if gamma.len() != n || beta.len() != n {
        return Err(crate::CpwlError::Tensor(
            onesa_tensor::TensorError::ShapeMismatch {
                lhs: vec![m, n],
                rhs: vec![gamma.len(), beta.len()],
                op: "layernorm_rows_exact",
            },
        ));
    }
    let mut out = x.clone();
    for i in 0..m {
        let row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        let mean: f32 = row.iter().sum::<f32>() / n as f32;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv * gamma[j] + beta[j];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_tensor::rng::Pcg32;
    use onesa_tensor::stats;

    #[test]
    fn softmax_rows_close_to_exact_at_fine_granularity() {
        let mut rng = Pcg32::seed_from_u64(1);
        let x = rng.randn(&[6, 10], 2.0);
        let tables = TableSet::for_granularity(0.0625).unwrap();
        let approx = tables.softmax_rows(&x).unwrap();
        let exact = softmax_rows_exact(&x).unwrap();
        assert!(stats::max_abs_diff(approx.as_slice(), exact.as_slice()) < 0.01);
        // Rows still sum to ≈ 1.
        for s in gemm::row_sums(&approx).unwrap() {
            assert!((s - 1.0).abs() < 0.05, "row sum {s}");
        }
    }

    #[test]
    fn softmax_error_grows_with_granularity() {
        let mut rng = Pcg32::seed_from_u64(2);
        let x = rng.randn(&[8, 16], 2.0);
        let exact = softmax_rows_exact(&x).unwrap();
        let mut last = 0.0f32;
        for g in [0.0625, 0.25, 1.0] {
            let tables = TableSet::for_granularity(g).unwrap();
            let approx = tables.softmax_rows(&x).unwrap();
            let err = stats::rms_diff(approx.as_slice(), exact.as_slice());
            assert!(err >= last - 1e-4, "granularity {g}: {err} < {last}");
            last = err;
        }
    }

    #[test]
    fn layernorm_close_to_exact() {
        let mut rng = Pcg32::seed_from_u64(3);
        let x = rng.randn(&[4, 32], 1.5);
        let gamma = vec![1.0f32; 32];
        let beta = vec![0.0f32; 32];
        let tables = TableSet::for_granularity(0.0625).unwrap();
        let approx = tables.layernorm_rows(&x, &gamma, &beta, 1e-5).unwrap();
        let exact = layernorm_rows_exact(&x, &gamma, &beta, 1e-5).unwrap();
        assert!(stats::max_abs_diff(approx.as_slice(), exact.as_slice()) < 0.05);
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut rng = Pcg32::seed_from_u64(4);
        let x = rng.randn(&[3, 64], 3.0);
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        let tables = TableSet::for_granularity(0.25).unwrap();
        let y = tables.layernorm_rows(&x, &gamma, &beta, 1e-5).unwrap();
        for i in 0..3 {
            let row = y.row(i).unwrap();
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 0.05, "mean {mean}");
            assert!((var - 1.0).abs() < 0.2, "var {var}");
        }
    }

    #[test]
    fn shape_validation() {
        let x = Tensor::zeros(&[2, 3]);
        let tables = TableSet::for_granularity(0.25).unwrap();
        assert!(tables
            .layernorm_rows(&x, &[1.0; 2], &[0.0; 3], 1e-5)
            .is_err());
    }

    #[test]
    fn table_lookup_by_function() {
        let tables = TableSet::for_granularity(0.25).unwrap();
        assert!(tables.table(NonlinearFn::Gelu).is_some());
        assert!(tables.table(NonlinearFn::Mish).is_none());
    }

    #[test]
    fn preload_segments_match_the_built_tables() {
        let funcs = [
            NonlinearFn::Gelu,
            NonlinearFn::Exp,
            NonlinearFn::Reciprocal,
            NonlinearFn::Rsqrt,
            NonlinearFn::Tanh,
            NonlinearFn::Sigmoid,
            NonlinearFn::Relu,
        ];
        for g in [0.0625, 0.25, 0.5, 1.0] {
            let tables = TableSet::for_granularity(g).unwrap();
            for func in funcs {
                assert_eq!(
                    TableSet::preload_segments(func, g),
                    Some(tables.table(func).unwrap().n_segments()),
                    "{func:?} at {g}"
                );
            }
        }
        // Coarser granularity => strictly smaller preload footprint.
        let fine = TableSet::preload_segments(NonlinearFn::Gelu, 0.25).unwrap();
        let coarse = TableSet::preload_segments(NonlinearFn::Gelu, 1.0).unwrap();
        assert!(coarse < fine);
        assert_eq!(TableSet::preload_segments(NonlinearFn::Mish, 0.25), None);
        assert_eq!(TableSet::preload_segments(NonlinearFn::Gelu, 0.0), None);
    }
}
