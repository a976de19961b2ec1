//! Reference linear algebra kernels.
//!
//! These are the *functional* definitions the cycle-level simulator is
//! checked against: general matrix multiply (the systolic array's native
//! operation) and the Matrix Hadamard Product `Y = X ⊙ K + B` that ONE-SA
//! uses to evaluate capped piecewise-linear approximations.

use crate::{Result, Tensor, TensorError};

/// Computes `A · B` for matrices `A (M×K)` and `B (K×N)`.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] if either operand is not rank-2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions differ.
///
/// # Example
///
/// ```
/// use onesa_tensor::{Tensor, gemm};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok::<(), onesa_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a, b, &mut out)?;
    Ok(out)
}

/// Computes `A · B` into a preallocated output, accumulating on top of the
/// existing contents (`C += A · B`), which mirrors how a tiled systolic
/// schedule accumulates partial products across K-tiles.
///
/// Each accumulation step is one **fused multiply-add**
/// ([`f32::mul_add`]) — the same single-rounding operation a hardware MAC
/// unit performs, and the contract the parallel backend
/// ([`crate::parallel`]) reproduces bit-for-bit.
///
/// # Errors
///
/// Shape errors as in [`matmul`]; additionally the output must be `M×N`.
pub(crate) fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    let (om, on) = out.shape().as_matrix()?;
    if k != k2 || om != m || on != n {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_into",
        });
    }
    let av = a.as_slice();
    let bv = b.as_slice();
    let ov = out.as_mut_slice();
    for i in 0..m {
        row_times(&av[i * k..(i + 1) * k], bv, &mut ov[i * n..(i + 1) * n]);
    }
    Ok(())
}

/// One row of [`matmul_into`]: `out += a · B` for a row `a` of `k` values
/// and a row-major `B` of `k` rows as wide as `out`. The k-j loop order
/// keeps the inner loop contiguous over `B`'s and `out`'s rows.
pub(crate) fn row_times(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    for (p, &aip) in a.iter().enumerate() {
        if aip == 0.0 {
            continue;
        }
        let brow = &b[p * n..(p + 1) * n];
        for (o, &bpj) in out.iter_mut().zip(brow.iter()) {
            *o = aip.mul_add(bpj, *o);
        }
    }
}

/// Matrix Hadamard Product with bias: `Y = X ⊙ K + B`.
///
/// This is the paper's step ③ — once Intermediate Parameter Fetching has
/// produced the slope matrix `K` and intercept matrix `B`, the nonlinear
/// function evaluation reduces to this elementwise form.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless all three operands share
/// one shape.
///
/// # Example
///
/// ```
/// use onesa_tensor::{Tensor, gemm};
///
/// let x = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
/// let k = Tensor::from_vec(vec![3.0, 4.0], &[2])?;
/// let b = Tensor::from_vec(vec![0.5, -0.5], &[2])?;
/// let y = gemm::mhp(&x, &k, &b)?;
/// assert_eq!(y.as_slice(), &[3.5, 7.5]);
/// # Ok::<(), onesa_tensor::TensorError>(())
/// ```
pub fn mhp(x: &Tensor, k: &Tensor, b: &Tensor) -> Result<Tensor> {
    if x.shape() != k.shape() || x.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: k.dims().to_vec(),
            op: "mhp",
        });
    }
    let data = x
        .as_slice()
        .iter()
        .zip(k.as_slice())
        .zip(b.as_slice())
        .map(|((&x, &k), &b)| x * k + b)
        .collect();
    Tensor::from_vec(data, x.dims())
}

/// Multiplies matrix rows by a per-row scalar: `Y[i,j] = X[i,j] * s[i]`.
///
/// Softmax lowering uses this for the final `exp(x) · (1/rowsum)` scale.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] / [`TensorError::ShapeMismatch`] on
/// malformed operands.
pub fn row_scale(x: &Tensor, s: &[f32]) -> Result<Tensor> {
    let (m, n) = x.shape().as_matrix()?;
    if s.len() != m {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: vec![s.len()],
            op: "row_scale",
        });
    }
    let mut out = x.clone();
    for (i, &scale) in s.iter().enumerate() {
        let row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for v in row {
            *v *= scale;
        }
    }
    Ok(out)
}

/// Row-wise sums of a matrix (`X · 1`), the reduction GEMM used in the
/// softmax and layer-norm lowerings: each row's sum is
/// `row.iter().sum::<f32>()` — a left-to-right chain of additions from
/// `-0.0`, so an all-`-0.0` row sums to `-0.0` — sixteen rows at a time
/// through [`fold_rows`].
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] for non-matrices.
pub fn row_sums(x: &Tensor) -> Result<Vec<f32>> {
    fold_matrix_rows(x, -0.0, |sum, v| sum + v)
}

/// Row-wise maxima of a matrix, used for numerically-stable softmax: each
/// row's [`row_max`], sixteen rows at a time through [`fold_rows`].
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] for non-matrices.
pub fn row_maxes(x: &Tensor) -> Result<Vec<f32>> {
    fold_matrix_rows(x, f32::NEG_INFINITY, max_step)
}

/// The maximum of one row, as [`row_maxes`] reduces it: left to right,
/// `NaN`s skipped, `-inf` for an empty row — and, of two zeros, the first.
pub fn row_max(row: &[f32]) -> f32 {
    row.iter()
        .fold(f32::NEG_INFINITY, |max, &v| max_step(max, v))
}

/// One step of [`row_max`].
fn max_step(max: f32, v: f32) -> f32 {
    if v > max {
        v
    } else {
        max
    }
}

/// Rows one [`fold_rows`] call reduces side by side.
const FOLD_ROWS: usize = 16;
/// Columns one row's chain advances before the next row's takes its turn:
/// one bounds check per step, and sixteen chains of eight in flight. (On
/// an AVX-512 Xeon a sum over 64 × 64 took 0.19 ns per element at 8
/// against 0.32 row by row; 4 and 16 were no faster, and 16 slowed the
/// maximum.)
const FOLD_STEP: usize = 8;

/// Folds up to sixteen rows side by side — the host's `X · 1`, every row's
/// accumulator in flight at once. `block` holds `block.len() / n` rows of
/// `n` (at most sixteen), and row `r`'s accumulator becomes
/// `f(…f(f(acc[r], x[r][0]), x[r][1])…, x[r][n − 1])`: the row's own
/// serial fold, one column at a time in ascending order, bit for bit.
/// Lanes past the block's rows are left as they are.
///
/// What changes is only the schedule. A row's fold is one dependency
/// chain, a latency per element; here each row advances a few columns and
/// hands over to the next, so sixteen independent chains overlap. Start
/// values are the caller's: `-0.0` for a sum (where
/// `Iterator::sum::<f32>` starts), `-inf` for a maximum.
///
/// # Panics
///
/// Panics unless `block` is a whole number of rows of `n`, at most
/// sixteen of them (an `n` of zero takes an empty block).
///
/// # Example
///
/// ```
/// use onesa_tensor::gemm;
///
/// let block = [1.0, 2.0, 3.0, -4.0, 5.0, -6.0];
/// let mut sums = [-0.0f32; 16];
/// gemm::fold_rows(&block, 3, &mut sums, |s, v| s + v);
/// assert_eq!(sums[..2], [6.0, -5.0]);
/// assert!(sums[2].is_sign_negative()); // untouched
/// ```
pub fn fold_rows(block: &[f32], n: usize, acc: &mut [f32; FOLD_ROWS], f: impl Fn(f32, f32) -> f32) {
    if n == 0 {
        assert!(block.is_empty(), "rows of no columns hold nothing");
        return;
    }
    let rows = block.chunks_exact(n);
    assert!(
        rows.remainder().is_empty() && rows.len() <= FOLD_ROWS,
        "a fold takes whole rows, at most {FOLD_ROWS} of them"
    );
    let whole = n - n % FOLD_STEP;
    for j0 in (0..whole).step_by(FOLD_STEP) {
        for (a, row) in acc.iter_mut().zip(block.chunks_exact(n)) {
            let step: &[f32; FOLD_STEP] = row[j0..j0 + FOLD_STEP].try_into().expect("a step");
            *a = step.iter().fold(*a, |a, &v| f(a, v));
        }
    }
    for (a, row) in acc.iter_mut().zip(block.chunks_exact(n)) {
        *a = row[whole..].iter().fold(*a, |a, &v| f(a, v));
    }
}

/// Every row of matrix `x` folded from `start` by `f`, [`FOLD_ROWS`] rows
/// at a time.
fn fold_matrix_rows(x: &Tensor, start: f32, f: impl Fn(f32, f32) -> f32) -> Result<Vec<f32>> {
    let (m, n) = x.shape().as_matrix()?;
    let mut out = vec![start; m];
    // No columns, no steps: every row keeps its start.
    let blocks = x.as_slice().chunks(FOLD_ROWS * n.max(1));
    for (folds, block) in out.chunks_mut(FOLD_ROWS).zip(blocks) {
        let mut acc = [start; FOLD_ROWS];
        fold_rows(block, n, &mut acc, &f);
        folds.copy_from_slice(&acc[..folds.len()]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]).unwrap();
        let i4 = Tensor::eye(4);
        assert_eq!(matmul(&a, &i4).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matmul_into_accumulates() {
        let a = Tensor::eye(2);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let mut c = Tensor::ones(&[2, 2]);
        matmul_into(&a, &b, &mut c).unwrap();
        assert_eq!(c.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn mhp_matches_scalar_formula() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]).unwrap();
        let k = Tensor::from_vec(vec![2.0, 2.0, -1.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, -1.0], &[2, 2]).unwrap();
        let y = mhp(&x, &k, &b).unwrap();
        assert_eq!(y.as_slice(), &[2.0, -3.0, 0.5, -1.0]);
    }

    #[test]
    fn mhp_shape_mismatch() {
        let x = Tensor::zeros(&[2, 2]);
        let k = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(mhp(&x, &k, &b).is_err());
    }

    #[test]
    fn row_helpers() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -4.0, 5.0, -6.0], &[2, 3]).unwrap();
        assert_eq!(row_sums(&x).unwrap(), vec![6.0, -5.0]);
        assert_eq!(row_maxes(&x).unwrap(), vec![3.0, 5.0]);
        let scaled = row_scale(&x, &[2.0, 0.5]).unwrap();
        assert_eq!(scaled.as_slice(), &[2.0, 4.0, 6.0, -2.0, 2.5, -3.0]);
    }

    #[test]
    fn fold_rows_is_each_rows_serial_fold() {
        // An order-sensitive step: any reordering of a row's columns, or
        // of which row a column feeds, changes the bits.
        let step = |a: f32, v: f32| a * 0.75 + v;
        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40];
        let mut rng = crate::rng::Pcg32::seed_from_u64(17);
        for rows in 0..=16 {
            for n in [0, 1, 7, 8, 9, 16, 31] {
                let mut x = rng.randn(&[rows * n], 1.0).into_vec();
                for (i, v) in hostile.iter().enumerate() {
                    if let Some(slot) = x.get_mut(i * 5 + 3) {
                        *slot = *v;
                    }
                }
                let start = rng.randn(&[16], 1.0).into_vec();
                let mut acc: [f32; 16] = start.clone().try_into().unwrap();
                fold_rows(&x, n, &mut acc, step);
                for r in 0..16 {
                    let want = match r < rows {
                        true => x[r * n..(r + 1) * n]
                            .iter()
                            .fold(start[r], |a, &v| step(a, v)),
                        false => start[r],
                    };
                    assert_eq!(acc[r].to_bits(), want.to_bits(), "{rows}x{n} row {r}");
                }
            }
        }
    }

    #[test]
    fn row_sums_and_maxes_are_the_serial_chains() {
        let mut rng = crate::rng::Pcg32::seed_from_u64(18);
        for (m, n) in [(0, 3), (3, 0), (1, 1), (15, 9), (16, 8), (17, 33), (40, 70)] {
            let mut x = rng.randn(&[m, n], 2.0);
            if m > 2 && n > 0 {
                // An all-`-0.0` row sums to `-0.0`; of zeros, the first is
                // the maximum; NaN is skipped by the maximum.
                x.as_mut_slice()[n..2 * n].fill(-0.0);
                x.as_mut_slice()[2 * n] = f32::NAN;
            }
            let rows: Vec<&[f32]> = x.as_slice().chunks(n.max(1)).collect();
            let sums: Vec<u32> = (0..m)
                .map(|i| {
                    rows.get(i)
                        .map_or(-0.0, |r| r.iter().sum::<f32>())
                        .to_bits()
                })
                .collect();
            let maxes: Vec<u32> = (0..m)
                .map(|i| row_max(rows.get(i).copied().unwrap_or(&[])).to_bits())
                .collect();
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(row_sums(&x).unwrap()), sums, "{m}x{n}");
            assert_eq!(bits(row_maxes(&x).unwrap()), maxes, "{m}x{n}");
            if m > 2 && n > 0 {
                assert_eq!(row_sums(&x).unwrap()[1].to_bits(), (-0.0f32).to_bits());
            }
        }
    }

    #[test]
    fn tiled_matmul_equals_direct() {
        // Tiling invariance: computing C by 2x2 output tiles with K-tile
        // accumulation must equal the direct product.
        let m = 5;
        let k = 7;
        let n = 6;
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[m, k],
        )
        .unwrap();
        let b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.53).cos()).collect(),
            &[k, n],
        )
        .unwrap();
        let direct = matmul(&a, &b).unwrap();

        let t = 2;
        let mut tiled = Tensor::zeros(&[m, n]);
        let mut r0 = 0;
        while r0 < m {
            let mut c0 = 0;
            while c0 < n {
                let mut acc = Tensor::zeros(&[t, t]);
                let mut k0 = 0;
                while k0 < k {
                    let at = a.tile_padded(r0, k0, t, t).unwrap();
                    let bt = b.tile_padded(k0, c0, t, t).unwrap();
                    matmul_into(&at, &bt, &mut acc).unwrap();
                    k0 += t;
                }
                tiled.tile_write(r0, c0, &acc).unwrap();
                c0 += t;
            }
            r0 += t;
        }
        for (x, y) in direct.as_slice().iter().zip(tiled.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }
}
