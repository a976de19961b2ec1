//! Parallel execution backend for the reference kernels.
//!
//! The [`gemm`] module defines *what* the array computes; this
//! module computes the same values *fast* on the host CPU so the engine can
//! serve real traffic. Two ideas, mirroring how throughput is obtained in
//! systolic-array designs themselves:
//!
//! 1. **Cache/register blocking** — [`matmul`] packs `B` into column panels
//!    and drives a `4 × 48` register-tiled microkernel, exactly the
//!    output-stationary tiling a systolic schedule performs in hardware.
//! 2. **Row-panel threading** — the output matrix is split into disjoint
//!    row panels, one per worker, executed under [`std::thread::scope`]
//!    (no external dependencies).
//!
//! # Bit-identical by construction
//!
//! Every output element `C[i][j]` is accumulated over `k` in ascending
//! order, one fused multiply-add ([`f32::mul_add`], a hardware MAC) per
//! step, skipping steps where `A[i][k] == 0.0` — precisely the operation
//! sequence of the sequential reference
//! [`gemm::matmul`]. Row/column blocking and
//! the thread count only change *which core* performs a given output row,
//! never the floating-point op sequence behind an element, so results are
//! bit-identical to the reference for **every** [`Parallelism`] setting.
//! The integration suite (`tests/integration_parallel.rs`) asserts this
//! across thread counts 1/2/4.
//!
//! # Example
//!
//! ```
//! use onesa_tensor::{parallel, parallel::Parallelism, rng::Pcg32, gemm};
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let a = rng.randn(&[50, 30], 1.0);
//! let b = rng.randn(&[30, 40], 1.0);
//! let fast = parallel::matmul(&a, &b, Parallelism::Threads(2))?;
//! assert_eq!(fast, gemm::matmul(&a, &b)?); // bit-identical
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::{gemm, Result, Tensor, TensorError};
use std::num::NonZeroUsize;
use std::thread;

/// How many rows of `C` one microkernel call produces.
const MR: usize = 4;
/// Microkernel width (three 512-bit vectors of `f32`). `B` is packed into
/// panels of exactly this width — the last panel zero-padded — so one
/// kernel shape serves every column. The `MR × NR` accumulator tile plus
/// one panel line stay well inside the vector register file.
const NR: usize = 48;
/// K-blocking depth: one `KC × NR` packed panel is 24 KiB — it lives in
/// L1 while every row block sweeps it.
const KC: usize = 128;

/// How kernel work is spread across CPU cores.
///
/// The default is [`Parallelism::Sequential`], which dispatches to the
/// plain reference kernels — engines opt in to the blocked/threaded
/// backend explicitly. All settings produce bit-identical results (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// The sequential reference kernels, unchanged.
    #[default]
    Sequential,
    /// The blocked backend on exactly `n` worker threads (`0` is treated
    /// as `1`). `Threads(1)` runs the blocked kernel without spawning.
    Threads(usize),
    /// The blocked backend on [`std::thread::available_parallelism`]
    /// workers.
    Auto,
}

impl Parallelism {
    /// The number of worker threads this setting resolves to.
    ///
    /// Requests beyond the machine's [`available_parallelism`] are capped
    /// to it: on one core, oversubscribed workers only fight each other
    /// for cache, so `Threads(4)` degrades gracefully to the blocked
    /// kernel on however many cores exist.
    ///
    /// [`available_parallelism`]: std::thread::available_parallelism
    pub fn worker_count(&self) -> usize {
        let cores = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        match *self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, cores),
            Parallelism::Auto => cores,
        }
    }

    /// Short label for reports (`seq`, `threads(4)`, `auto(8)`).
    pub fn label(&self) -> String {
        match *self {
            Parallelism::Sequential => "seq".to_string(),
            Parallelism::Threads(n) => format!("threads({})", n.max(1)),
            Parallelism::Auto => format!("auto({})", self.worker_count()),
        }
    }
}

/// Computes `A · B` under the given parallelism setting.
///
/// [`Parallelism::Sequential`] calls [`gemm::matmul`] directly; the other
/// settings run the blocked backend, whose results are bit-identical to it.
///
/// # Errors
///
/// Shape errors as in [`gemm::matmul`].
pub fn matmul(a: &Tensor, b: &Tensor, par: Parallelism) -> Result<Tensor> {
    if let Parallelism::Sequential = par {
        return gemm::matmul(a, b);
    }
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "parallel::matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let workers = par.worker_count().min(m.max(1));
    let av = a.as_slice();
    let bv = b.as_slice();
    if workers <= 1 || m < 2 * MR {
        panel_rows(av, bv, out.as_mut_slice(), 0, m, k, n);
        return Ok(out);
    }
    // Split C into near-equal disjoint row panels, one per worker. Each
    // worker owns a contiguous `&mut` slice of the output, so no
    // synchronization is needed beyond the scope join.
    let base = m / workers;
    let extra = m % workers;
    thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let mut r0 = 0;
        for w in 0..workers {
            let rows = base + usize::from(w < extra);
            let (mine, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            scope.spawn(move || panel_rows(av, bv, mine, r0, rows, k, n));
            r0 += rows;
        }
    });
    Ok(out)
}

/// Matrix Hadamard Product `Y = X ⊙ K + B` under the given parallelism
/// setting; bit-identical to [`gemm::mhp`].
///
/// # Errors
///
/// Shape errors as in [`gemm::mhp`].
pub fn mhp(x: &Tensor, k: &Tensor, b: &Tensor, par: Parallelism) -> Result<Tensor> {
    if x.shape() != k.shape() || x.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: x.dims().to_vec(),
            rhs: k.dims().to_vec(),
            op: "parallel::mhp",
        });
    }
    let workers = par.worker_count().min(x.len().max(1));
    if workers <= 1 || x.len() < 4096 {
        return gemm::mhp(x, k, b);
    }
    let mut out = Tensor::zeros(x.dims());
    let chunk = x.len().div_ceil(workers);
    let xv = x.as_slice();
    let kv = k.as_slice();
    let bv = b.as_slice();
    thread::scope(|scope| {
        for (w, ochunk) in out.as_mut_slice().chunks_mut(chunk).enumerate() {
            let lo = w * chunk;
            let hi = lo + ochunk.len();
            let (xc, kc, bc) = (&xv[lo..hi], &kv[lo..hi], &bv[lo..hi]);
            scope.spawn(move || {
                for (((o, &xi), &ki), &bi) in ochunk.iter_mut().zip(xc).zip(kc).zip(bc) {
                    *o = xi * ki + bi;
                }
            });
        }
    });
    Ok(out)
}

/// Computes rows `r0..r0 + rows` of `C` into `c` (a slice holding exactly
/// those rows, starting at row `r0` of the full matrix).
///
/// BLIS-style packing, done independently by each worker (the duplicated
/// copies are `O(m·k + k·n)` against `O(rows · k · n)` of MACs):
///
/// * this worker's `A` rows are repacked block-major — `MR` rows
///   interleaved p-major — so the microkernel reads one contiguous
///   `MR`-float line per `k` step;
/// * `B` is consumed one [`NR`]-wide column panel at a time: the panel is
///   packed into a small contiguous buffer (the last panel zero-padded)
///   and immediately swept by every row block, staying cache-hot while
///   in use.
fn panel_rows(a: &[f32], b: &[f32], c: &mut [f32], r0: usize, rows: usize, k: usize, n: usize) {
    let full_rows = (rows / MR) * MR;
    let blocks = rows / MR;
    let mut apack = vec![0.0f32; blocks * k * MR];
    for blk in 0..blocks {
        let base = blk * k * MR;
        for p in 0..k {
            for r in 0..MR {
                apack[base + p * MR + r] = a[(r0 + blk * MR + r) * k + p];
            }
        }
    }
    let mut panel = vec![0.0f32; KC * NR];
    for t in 0..n.div_ceil(NR) {
        let j0 = t * NR;
        let width = NR.min(n - j0);
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            if width < NR || kc < KC {
                panel.fill(0.0);
            }
            for p in 0..kc {
                panel[p * NR..p * NR + width]
                    .copy_from_slice(&b[(k0 + p) * n + j0..(k0 + p) * n + j0 + width]);
            }
            for blk in 0..blocks {
                let base = blk * k * MR + k0 * MR;
                let ablock = &apack[base..base + kc * MR];
                microkernel(ablock, kc, &panel, c, blk * MR, j0, n, width);
            }
            k0 += kc;
        }
    }
    for ii in full_rows..rows {
        reference_row(a, b, c, r0 + ii, ii, k, n);
    }
}

/// The register-tiled inner kernel: an `MR × NR` block of `C` held in
/// accumulators across one `kc`-deep pass of the packed panels.
///
/// The block's running totals are *resumed from* `C` and checkpointed
/// back to it between k-blocks, so each output element experiences one
/// uninterrupted ascending-`k` chain of fused multiply-adds — the exact
/// reference op sequence — regardless of how `k` is blocked. Only the
/// first `width` columns are stored; the rest are the last panel's zero
/// padding.
#[allow(clippy::too_many_arguments)]
fn microkernel(
    ablock: &[f32],
    kc: usize,
    bpanel: &[f32],
    c: &mut [f32],
    ci0: usize,
    j0: usize,
    n: usize,
    width: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        let row = (ci0 + r) * n + j0;
        accr[..width].copy_from_slice(&c[row..row + width]);
    }
    for p in 0..kc {
        let brow: &[f32; NR] = bpanel[p * NR..p * NR + NR].try_into().expect("panel line");
        let arow: &[f32; MR] = ablock[p * MR..p * MR + MR]
            .try_into()
            .expect("A block line");
        for r in 0..MR {
            let arp = arow[r];
            // Same skip as the reference kernel: an exact zero in A
            // contributes no operation at all.
            if arp == 0.0 {
                continue;
            }
            let accr = &mut acc[r];
            for j in 0..NR {
                accr[j] = arp.mul_add(brow[j], accr[j]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let row = (ci0 + r) * n + j0;
        c[row..row + width].copy_from_slice(&accr[..width]);
    }
}

/// One full row of `C` via the reference axpy loop — used for the
/// leftover rows of a panel that do not fill an `MR`-row block.
fn reference_row(a: &[f32], b: &[f32], c: &mut [f32], ai: usize, ci: usize, k: usize, n: usize) {
    let arow = &a[ai * k..ai * k + k];
    for (p, &ap) in arow.iter().enumerate() {
        if ap == 0.0 {
            continue;
        }
        let brow = &b[p * n..(p + 1) * n];
        let crow = &mut c[ci * n..(ci + 1) * n];
        for (o, &bv) in crow.iter_mut().zip(brow) {
            *o = ap.mul_add(bv, *o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn assert_bit_identical(x: &Tensor, y: &Tensor) {
        assert_eq!(x.dims(), y.dims());
        for (i, (a, b)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn blocked_matches_reference_on_odd_shapes() {
        let mut rng = Pcg32::seed_from_u64(11);
        for (m, k, n) in [
            (1, 1, 1),
            (5, 7, 3),
            (13, 29, 17),
            (64, 48, 50),
            (97, 31, 113),
        ] {
            let a = rng.randn(&[m, k], 1.0);
            let b = rng.randn(&[k, n], 1.0);
            let reference = gemm::matmul(&a, &b).unwrap();
            for par in [
                Parallelism::Threads(1),
                Parallelism::Threads(2),
                Parallelism::Threads(4),
                Parallelism::Auto,
            ] {
                assert_bit_identical(&matmul(&a, &b, par).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn zero_skip_semantics_preserved() {
        // Zeros in A exercise the reference's skip branch; -0.0 and
        // negative values exercise signed-zero accumulation.
        let a = Tensor::from_vec(
            vec![
                0.0, 1.0, -0.0, 2.0, 0.0, 0.0, -1.5, 0.0, 3.0, 0.0, -0.0, 0.25,
            ],
            &[2, 6],
        )
        .unwrap();
        let b = Pcg32::seed_from_u64(5).randn(&[6, 49], 1.0);
        let reference = gemm::matmul(&a, &b).unwrap();
        for par in [Parallelism::Threads(2), Parallelism::Auto] {
            assert_bit_identical(&matmul(&a, &b, par).unwrap(), &reference);
        }
    }

    #[test]
    fn sequential_dispatches_to_reference() {
        let mut rng = Pcg32::seed_from_u64(3);
        let a = rng.randn(&[9, 4], 1.0);
        let b = rng.randn(&[4, 6], 1.0);
        assert_bit_identical(
            &matmul(&a, &b, Parallelism::Sequential).unwrap(),
            &gemm::matmul(&a, &b).unwrap(),
        );
    }

    #[test]
    fn mhp_matches_reference() {
        let mut rng = Pcg32::seed_from_u64(4);
        for dims in [vec![3, 5], vec![70, 80]] {
            let x = rng.randn(&dims, 1.0);
            let k = rng.randn(&dims, 1.0);
            let b = rng.randn(&dims, 1.0);
            let reference = gemm::mhp(&x, &k, &b).unwrap();
            for par in [
                Parallelism::Sequential,
                Parallelism::Threads(3),
                Parallelism::Auto,
            ] {
                assert_bit_identical(&mhp(&x, &k, &b, par).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn shape_errors_propagate() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b, Parallelism::Auto).is_err());
        assert!(mhp(&a, &b, &a, Parallelism::Auto).is_err());
    }

    #[test]
    fn worker_counts_resolve() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(Parallelism::Sequential.worker_count(), 1);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert_eq!(Parallelism::Threads(4).worker_count(), 4.min(cores));
        assert_eq!(Parallelism::Auto.worker_count(), cores);
        assert_eq!(Parallelism::Threads(4).label(), "threads(4)");
        assert_eq!(Parallelism::Sequential.label(), "seq");
    }
}
