//! Packed column-block sparse weights and the sparsity-aware GEMM.
//!
//! Structured pruning zeroes whole **column blocks** of a weight matrix
//! (groups of `block_cols` adjacent output columns). [`SparseTensor`]
//! stores such a matrix as a packed payload — the dense matrix with its
//! zero column-blocks deleted — plus the map from payload column to
//! original column. The payload is
//! exactly the sub-matrix the packed dense kernel would have swept had
//! the zero panels never existed, so [`matmul`] hands the payload and its
//! column map to the *same* sweep [`crate::parallel::matmul`] runs —
//! dense is its identity-map case — which stores each run of surviving
//! columns back at its true position. Zero blocks are never packed, never swept,
//! never touched.
//!
//! # Bit-identical by construction
//!
//! A column of `C` depends only on the matching column of `B`. For a
//! column inside a zero block, every term of the reference accumulation
//! is `a·(+0.0)`: starting from the `+0.0` the output is initialized
//! with, each fused multiply-add returns the accumulator unchanged (an
//! accumulator seeded from `+0.0` over finite terms can never become
//! `-0.0` — exact cancellation rounds to `+0.0`), so the reference
//! produces exactly the `+0.0` the sparse kernel leaves in place. A
//! block counts as zero only when every element is bit-pattern `+0.0`
//! (a `-0.0` keeps its block in the payload), which also makes the
//! packing lossless: scattering the payload back through the column map
//! rebuilds the dense matrix bit-exactly. Surviving
//! columns run the identical packed-microkernel op sequence as the dense
//! backend — which is bit-identical to the reference for every input (see
//! [`crate::parallel`]) — so for a finite `A` the whole product is
//! bit-identical to dense-times-dense under every [`Parallelism`] setting
//! (a non-finite `a` would turn a dropped column's `a·0` into NaN).
//!
//! # Example
//!
//! ```
//! use onesa_tensor::{gemm, sparse::SparseTensor, parallel::Parallelism, rng::Pcg32};
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let a = rng.randn(&[8, 32], 1.0);
//! let mut b = rng.randn(&[32, 64], 1.0);
//! // Zero columns 16..48 (two 16-wide blocks).
//! for row in 0..32 {
//!     for col in 16..48 {
//!         b.as_mut_slice()[row * 64 + col] = 0.0;
//!     }
//! }
//! let sb = SparseTensor::from_dense(&b, 16)?;
//! assert_eq!(sb.nnz_cols(), 32); // two 16-wide blocks survive
//! let fast = onesa_tensor::sparse::matmul(&a, &sb, Parallelism::Auto)?;
//! assert_eq!(fast, gemm::matmul(&a, &b)?); // bit-identical
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::parallel::{self, Parallelism, Rhs, Right};
use crate::{Result, Tensor, TensorError};
use std::borrow::Cow;

/// A `rows × cols` matrix whose zero column-blocks are not stored. See the [module docs](self) for the layout
/// and the bit-identicality contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    rows: usize,
    cols: usize,
    block_cols: usize,
    /// The dense matrix with zero column-blocks deleted: `rows ×
    /// nnz_cols`, row-major — byte-for-byte what the packed kernel
    /// sweeps.
    payload: Vec<f32>,
    /// Payload column → original column (length `nnz_cols`).
    col_map: Vec<usize>,
}

/// Column-block occupancy of a dense matrix without packing it:
/// `(nnz_blocks, total_blocks, nnz_cols)` at the given block width.
/// This is what `onesa-plan` validates a program's sparsity attribute
/// against.
///
/// # Errors
///
/// [`TensorError::NotAMatrix`] for non-2-D input,
/// [`TensorError::InvalidArgument`] for a zero block width.
pub fn column_block_stats(t: &Tensor, block_cols: usize) -> Result<(usize, usize, usize)> {
    let (rows, cols) = t.shape().as_matrix()?;
    if block_cols == 0 {
        return Err(TensorError::InvalidArgument(
            "sparse block width must be positive",
        ));
    }
    let total = cols.div_ceil(block_cols);
    let data = t.as_slice();
    let mut nnz_blocks = 0;
    let mut nnz_cols = 0;
    for b in 0..total {
        let j0 = b * block_cols;
        let width = block_cols.min(cols - j0);
        let live = (0..rows).any(|i| {
            data[i * cols + j0..i * cols + j0 + width]
                .iter()
                .any(|v| v.to_bits() != 0)
        });
        if live {
            nnz_blocks += 1;
            nnz_cols += width;
        }
    }
    Ok((nnz_blocks, total, nnz_cols))
}

impl SparseTensor {
    /// Packs a dense matrix at the given column-block width. Blocks in
    /// which every element is bit-pattern `+0.0` are dropped; all other
    /// blocks are copied bit-exactly into the payload.
    ///
    /// # Errors
    ///
    /// As for [`column_block_stats`].
    pub fn from_dense(t: &Tensor, block_cols: usize) -> Result<Self> {
        let (rows, cols) = t.shape().as_matrix()?;
        if block_cols == 0 {
            return Err(TensorError::InvalidArgument(
                "sparse block width must be positive",
            ));
        }
        let total = cols.div_ceil(block_cols);
        let data = t.as_slice();
        let mut col_map = Vec::new();
        for b in 0..total {
            let j0 = b * block_cols;
            let width = block_cols.min(cols - j0);
            let live = (0..rows).any(|i| {
                data[i * cols + j0..i * cols + j0 + width]
                    .iter()
                    .any(|v| v.to_bits() != 0)
            });
            if live {
                col_map.extend(j0..j0 + width);
            }
        }
        let nnz_cols = col_map.len();
        let mut payload = vec![0.0f32; rows * nnz_cols];
        for i in 0..rows {
            let src = &data[i * cols..(i + 1) * cols];
            let dst = &mut payload[i * nnz_cols..(i + 1) * nnz_cols];
            for (d, &j) in dst.iter_mut().zip(&col_map) {
                *d = src[j];
            }
        }
        Ok(SparseTensor {
            rows,
            cols,
            block_cols,
            payload,
            col_map,
        })
    }

    /// `t` packed by [`SparseTensor::from_dense`] at `block_cols`, once per
    /// buffer: kept in `t`'s storage and shared by every clone of it (see
    /// "What the buffer remembers" on [`Tensor`]). A second block width
    /// asked of one buffer packs a copy of the caller's own each time.
    ///
    /// # Errors
    ///
    /// As for [`SparseTensor::from_dense`].
    pub fn of(t: &Tensor, block_cols: usize) -> Result<Cow<'_, Self>> {
        let pack = |t: &Tensor| SparseTensor::from_dense(t, block_cols);
        match t.memo(|memo| &memo.sparse, pack)? {
            shared if shared.block_cols == block_cols => Ok(shared),
            _ => pack(t).map(Cow::Owned),
        }
    }

    /// The payload as the GEMM sweep reads it: its columns, each mapped to
    /// its place in the product.
    pub(crate) fn payload(&self) -> Rhs<'_> {
        Rhs::Rows {
            values: &self.payload,
            cols: self.col_map.len(),
            cmap: Some(&self.col_map),
        }
    }

    /// Row count (the GEMM's inner dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the dense matrix this represents.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The column-block width the matrix was packed at.
    pub fn block_cols(&self) -> usize {
        self.block_cols
    }

    /// Number of surviving columns in the payload.
    pub fn nnz_cols(&self) -> usize {
        self.col_map.len()
    }
}

/// Computes `A · B` for a column-block sparse `B` under the given
/// parallelism setting — bit-identical to the dense product `A · B` of
/// the matrix `B` was packed from, for every setting (see the [module docs](self)).
///
/// Zero blocks are skipped entirely: the kernel packs and sweeps only
/// the payload, so the MAC count scales with
/// [`SparseTensor::nnz_cols`], not with the dense width. A fully pruned
/// `B` sweeps nothing and returns the `+0.0` output as initialized.
///
/// # Errors
///
/// Shape errors as in [`crate::gemm::matmul`].
pub fn matmul(a: &Tensor, b: &SparseTensor, par: Parallelism) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    parallel::matmul_rows(&[a.as_slice()], m, k, Right::Sparse(b), par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;
    use crate::{gemm, parallel};

    fn assert_bit_identical(x: &Tensor, y: &Tensor) {
        assert_eq!(x.dims(), y.dims());
        for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
    }

    /// Reconstructs the dense matrix from the payload, bit-exactly.
    fn to_dense(sb: &SparseTensor) -> Tensor {
        let mut out = Tensor::zeros(&[sb.rows, sb.cols]);
        let data = out.as_mut_slice();
        let nnz = sb.col_map.len();
        for i in 0..sb.rows {
            let src = &sb.payload[i * nnz..(i + 1) * nnz];
            for (&v, &j) in src.iter().zip(&sb.col_map) {
                data[i * sb.cols + j] = v;
            }
        }
        out
    }

    /// Zeroes the column blocks of `b` whose index is not in `keep`.
    fn prune_blocks(b: &mut Tensor, block_cols: usize, keep: impl Fn(usize) -> bool) {
        let (rows, cols) = b.shape().as_matrix().unwrap();
        let data = b.as_mut_slice();
        for i in 0..rows {
            for j in 0..cols {
                if !keep(j / block_cols) {
                    data[i * cols + j] = 0.0;
                }
            }
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let mut rng = Pcg32::seed_from_u64(3);
        for (k, n, bc) in [(5, 7, 3), (16, 48, 16), (31, 50, 48), (8, 8, 13)] {
            let mut b = rng.randn(&[k, n], 1.0);
            prune_blocks(&mut b, bc, |blk| blk % 2 == 0);
            let sb = SparseTensor::from_dense(&b, bc).unwrap();
            assert_bit_identical(&to_dense(&sb), &b);
        }
    }

    #[test]
    fn negative_zero_keeps_its_block_and_round_trips() {
        // A block holding only -0.0 is NOT a zero block: packing it away
        // would lose the sign bit on reconstruction.
        let mut b = Tensor::zeros(&[2, 8]);
        b.as_mut_slice()[5] = -0.0;
        let sb = SparseTensor::from_dense(&b, 4).unwrap();
        assert_eq!(sb.nnz_cols(), 4);
        let back = to_dense(&sb);
        assert_bit_identical(&back, &b);
        assert!(back.as_slice()[5].is_sign_negative());
    }

    #[test]
    fn stats_match_packing() {
        let mut rng = Pcg32::seed_from_u64(9);
        let mut b = rng.randn(&[12, 50], 1.0);
        prune_blocks(&mut b, 16, |blk| blk == 1 || blk == 3);
        let sb = SparseTensor::from_dense(&b, 16).unwrap();
        let (nnz, total, cols) = column_block_stats(&b, 16).unwrap();
        assert_eq!((nnz, total, cols), (2, 4, 16 + 2)); // edge block is 2 wide
        assert_eq!(sb.nnz_cols(), cols);
    }

    #[test]
    fn sparse_matmul_bit_identical_to_dense_all_modes() {
        let mut rng = Pcg32::seed_from_u64(11);
        for (m, k, n, bc) in [
            (1, 1, 1, 1),
            (5, 7, 3, 2),
            (13, 29, 17, 5),
            (64, 48, 96, 16),
            (97, 31, 113, 48),
        ] {
            let a = rng.randn(&[m, k], 1.0);
            let mut b = rng.randn(&[k, n], 1.0);
            prune_blocks(&mut b, bc, |blk| blk % 3 != 1);
            let sb = SparseTensor::from_dense(&b, bc).unwrap();
            let reference = gemm::matmul(&a, &b).unwrap();
            for par in [
                Parallelism::Sequential,
                Parallelism::Threads(1),
                Parallelism::Threads(2),
                Parallelism::Threads(4),
                Parallelism::Auto,
            ] {
                assert_bit_identical(&matmul(&a, &sb, par).unwrap(), &reference);
                // And against the dense blocked backend, which is itself
                // bit-identical to the reference.
                assert_bit_identical(
                    &matmul(&a, &sb, par).unwrap(),
                    &parallel::matmul(&a, &b, par).unwrap(),
                );
            }
        }
    }

    #[test]
    fn zeros_in_a_and_signed_zero_accumulation() {
        let a = Tensor::from_vec(
            vec![
                0.0, 1.0, -0.0, 2.0, 0.0, 0.0, -1.5, 0.0, 3.0, 0.0, -0.0, 0.25,
            ],
            &[2, 6],
        )
        .unwrap();
        let mut b = Pcg32::seed_from_u64(5).randn(&[6, 49], 1.0);
        prune_blocks(&mut b, 16, |blk| blk != 1);
        let sb = SparseTensor::from_dense(&b, 16).unwrap();
        let reference = gemm::matmul(&a, &b).unwrap();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Auto,
        ] {
            assert_bit_identical(&matmul(&a, &sb, par).unwrap(), &reference);
        }
    }

    #[test]
    fn fully_zero_weight_yields_zero_output() {
        let a = Pcg32::seed_from_u64(2).randn(&[9, 12], 1.0);
        let b = Tensor::zeros(&[12, 20]);
        let sb = SparseTensor::from_dense(&b, 8).unwrap();
        assert_eq!(sb.nnz_cols(), 0);
        let out = matmul(&a, &sb, Parallelism::Auto).unwrap();
        assert_bit_identical(&out, &gemm::matmul(&a, &b).unwrap());
    }

    #[test]
    fn shape_and_argument_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(SparseTensor::from_dense(&b, 0).is_err());
        assert!(SparseTensor::from_dense(&Tensor::zeros(&[4]), 2).is_err());
        assert!(column_block_stats(&b, 0).is_err());
        let sb = SparseTensor::from_dense(&b, 2).unwrap();
        assert!(matmul(&a, &sb, Parallelism::Auto).is_err());
    }

    use proptest::prelude::*;

    fn sparse_case() -> impl Strategy<Value = (Tensor, Tensor, usize)> {
        (1usize..24, 1usize..40, 1usize..56, 1usize..24, 0u64..10_000).prop_map(
            |(m, k, n, bc, seed)| {
                let mut rng = Pcg32::seed_from_u64(seed);
                let a = rng.randn(&[m, k], 1.0);
                let mut b = rng.randn(&[k, n], 1.0);
                // Random block survival pattern driven by the seed.
                let total = n.div_ceil(bc);
                let keep: Vec<bool> = (0..total).map(|i| (seed >> (i % 60)) & 1 == 1).collect();
                prune_blocks(&mut b, bc, |blk| keep[blk]);
                (a, b, bc)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sparse patterns × shapes: pack/unpack is lossless.
        #[test]
        fn prop_pack_unpack_lossless((_a, b, bc) in sparse_case()) {
            let sb = SparseTensor::from_dense(&b, bc).unwrap();
            assert_bit_identical(&to_dense(&sb), &b);
            let (_, _, cols) = column_block_stats(&b, bc).unwrap();
            prop_assert_eq!(sb.nnz_cols(), cols);
        }

        /// Random sparse patterns × shapes: the sparse kernel is
        /// bit-identical to the dense reference in every mode.
        #[test]
        fn prop_sparse_kernel_bit_identical((a, b, bc) in sparse_case()) {
            let sb = SparseTensor::from_dense(&b, bc).unwrap();
            let reference = gemm::matmul(&a, &b).unwrap();
            for par in [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Auto] {
                assert_bit_identical(&matmul(&a, &sb, par).unwrap(), &reference);
            }
        }
    }
}
