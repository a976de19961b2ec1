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
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
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
    // i-k-j loop order keeps the inner loop contiguous over B and C rows.
    for i in 0..m {
        for p in 0..k {
            let aip = av[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &bv[p * n..(p + 1) * n];
            let orow = &mut ov[i * n..(i + 1) * n];
            for (o, &bpj) in orow.iter_mut().zip(brow.iter()) {
                *o = aip.mul_add(bpj, *o);
            }
        }
    }
    Ok(())
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
/// softmax and layer-norm lowerings.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] for non-matrices.
pub fn row_sums(x: &Tensor) -> Result<Vec<f32>> {
    let (m, n) = x.shape().as_matrix()?;
    let mut sums = vec![0.0f32; m];
    for (i, sum) in sums.iter_mut().enumerate() {
        *sum = x.as_slice()[i * n..(i + 1) * n].iter().sum();
    }
    Ok(sums)
}

/// Row-wise maxima of a matrix, used for numerically-stable softmax.
///
/// # Errors
///
/// Returns [`TensorError::NotAMatrix`] for non-matrices.
pub fn row_maxes(x: &Tensor) -> Result<Vec<f32>> {
    let (m, n) = x.shape().as_matrix()?;
    let rows = (0..m).map(|i| row_max(&x.as_slice()[i * n..(i + 1) * n]));
    Ok(rows.collect())
}

/// The maximum of one row, as [`row_maxes`] reduces it: left to right,
/// `NaN`s skipped, `-inf` for an empty row — and, of two zeros, the first.
pub fn row_max(row: &[f32]) -> f32 {
    row.iter()
        .fold(f32::NEG_INFINITY, |max, &v| if v > max { v } else { max })
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
