//! Parallel execution backend for the reference kernels.
//!
//! The [`gemm`] module defines *what* the array computes; this
//! module computes the same values *fast* on the host CPU so the engine can
//! serve real traffic. One packed GEMM sweep serves every entry point —
//! [`matmul`] under every [`Parallelism`] setting and
//! [`sparse::matmul`](crate::sparse::matmul) over its payload — built from
//! two ideas, mirroring how throughput is obtained in systolic-array
//! designs themselves:
//!
//! 1. **Cache/register blocking** — `B` is packed into column panels that
//!    a register-tiled microkernel sweeps, exactly the output-stationary
//!    tiling a systolic schedule performs in hardware. The tile adapts to
//!    the product instead of the product to the tile: four rows by the
//!    narrowest of 16 / 32 / 48 lanes that covers the panel (`n = 64` is
//!    48 + 16, `n = 8` one 16-lane pass), and the last `m % 4` rows ride
//!    a zero-padded row block.
//! 2. **Row-panel threading** — the output matrix is split into disjoint
//!    row panels, one per worker, executed under [`std::thread::scope`]
//!    (no external dependencies). [`Parallelism::Sequential`] is the
//!    one-worker case of the same sweep.
//!
//! # Bit-identical by construction
//!
//! Every output element `C[i][j]` is accumulated over `k` in ascending
//! order, one fused multiply-add ([`f32::mul_add`], a hardware MAC) per
//! step, skipping steps where `A[i][k] == 0.0` — precisely the operation
//! sequence of the sequential reference
//! [`gemm::matmul`]. Row/column blocking, the panel width and
//! the thread count only change *which core and which vector lane*
//! performs a given output element, never the floating-point op sequence
//! behind it, so results are
//! bit-identical to the reference for **every** [`Parallelism`] setting.
//! The integration suite (`tests/integration_parallel.rs`) asserts this
//! across thread counts 1/2/4, and the crate's proptests across the whole
//! shape space.
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
use std::sync::OnceLock;
use std::thread;

/// How many rows of `C` one microkernel call produces.
const MR: usize = 4;
/// Widest microkernel (three 512-bit vectors of `f32`) and the column
/// step of the panel sweep; a panel narrower than this runs at 16 or 32
/// lanes. The `MR × NR` accumulator tile plus one panel line stay well
/// inside the vector register file.
const NR: usize = 48;
/// K-blocking depth: one `KC × NR` packed panel is 24 KiB — it lives in
/// L1 while every row block sweeps it, and it is the only buffer besides
/// the packed `A` rows a call allocates.
const KC: usize = 128;
/// `f32`s per cache line.
const LINE: usize = 16;

/// How kernel work is spread across CPU cores.
///
/// The default is [`Parallelism::Sequential`]: the packed kernels on the
/// calling thread — engines opt in to threading explicitly. All settings
/// run the same kernel and produce bit-identical results (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// The blocked backend on the calling thread: no thread is spawned
    /// and the OS is never asked for a core count.
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
    /// The core count is read from the OS once per process and cached
    /// (the query reads cgroup files — tens of microseconds, more than a
    /// small kernel call), and `Sequential` never asks for it, so no
    /// kernel call makes a syscall to size its thread split.
    ///
    /// [`available_parallelism`]: std::thread::available_parallelism
    pub fn worker_count(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = || {
            *CORES.get_or_init(|| {
                thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
        };
        match *self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.clamp(1, cores()),
            Parallelism::Auto => cores(),
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
/// Every setting runs the same packed kernel — [`Parallelism`] only picks
/// how many threads share its row panels — and every result is
/// bit-identical to [`gemm::matmul`]. Products with fewer than `MR` rows
/// (single-token decode steps) have no row block to amortize packing over
/// and go to the reference loop directly; that cut-off reads `m` alone.
///
/// # Errors
///
/// Shape errors as in [`gemm::matmul`].
pub fn matmul(a: &Tensor, b: &Tensor, par: Parallelism) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "parallel::matmul",
        });
    }
    if m < MR {
        return gemm::matmul(a, b);
    }
    Ok(gemm_sweep(a.as_slice(), m, k, b.as_slice(), None, n, par))
}

/// The one GEMM sweep behind [`matmul`] and [`crate::sparse::matmul`]:
/// `C = A · B` for a row-major `m × k` `A` and a row-major `B` with `k`
/// rows, split into disjoint row panels across `par`'s workers.
///
/// Column `j` of `B` lands in column `cmap[j]` of the `n`-wide result;
/// `None` is the identity map of a dense `B`. A block-sparse `B` passes its
/// payload and the payload → output column map, and the output columns no
/// payload column maps to keep the `+0.0` they are initialized with.
pub(crate) fn gemm_sweep(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    cmap: Option<&[usize]>,
    n: usize,
    par: Parallelism,
) -> Tensor {
    let mut out = Tensor::zeros(&[m, n]);
    let workers = par.worker_count().min(m.max(1));
    if workers <= 1 || m < 2 * MR {
        panel_rows(a, b, cmap, out.as_mut_slice(), 0, m, k, n);
        return out;
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
            scope.spawn(move || panel_rows(a, b, cmap, mine, r0, rows, k, n));
            r0 += rows;
        }
    });
    out
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
/// those rows, starting at row `r0` of the full matrix); `b` and `cmap`
/// as in [`gemm_sweep`].
///
/// BLIS-style packing, done independently by each worker (the duplicated
/// copies are `O(m·k + k·n)` against `O(rows · k · n)` of MACs):
///
/// * this worker's `A` rows are repacked block-major — `MR` rows
///   interleaved p-major — so the microkernel reads one contiguous
///   `MR`-float line per `k` step. The last block is zero-padded to `MR`
///   rows: the kernel's `a == 0.0` skip makes the padding free, and only
///   the live rows are resumed and stored;
/// * `B` is consumed one column panel of up to [`NR`] columns at a time,
///   `KC` rows deep: the panel is packed into a small contiguous buffer
///   and immediately swept by every row block, staying cache-hot while in
///   use. A panel is packed at the narrowest of 16 / 32 / 48 lanes that
///   covers it, so a narrow product (or the tail of a wide one) does not
///   pay for a `4 × 48` tile it leaves mostly empty.
#[allow(clippy::too_many_arguments)]
fn panel_rows(
    a: &[f32],
    b: &[f32],
    cmap: Option<&[usize]>,
    c: &mut [f32],
    r0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let nb = cmap.map_or(n, <[usize]>::len);
    let blocks = rows.div_ceil(MR);
    let mut apack = vec![0.0f32; blocks * k * MR];
    for i in 0..rows {
        let base = (i / MR) * k * MR + i % MR;
        for (p, &v) in a[(r0 + i) * k..(r0 + i + 1) * k].iter().enumerate() {
            apack[base + p * MR] = v;
        }
    }
    // The kernel reads the panel one 64-byte vector at a time; start it
    // on a cache line so no read straddles two (the allocator promises
    // 16 bytes, and which residue it hands out varies call to call).
    let len = KC.min(k) * lanes(nb.min(NR));
    let mut buf = vec![0.0f32; len + LINE];
    let skew = buf.as_ptr().align_offset(LINE * 4) % LINE;
    let panel = &mut buf[skew..skew + len];
    for j0 in (0..nb).step_by(NR) {
        let width = NR.min(nb - j0);
        let w = lanes(width);
        let kernel: Microkernel = match w {
            16 => microkernel::<16>,
            32 => microkernel::<32>,
            _ => microkernel::<NR>,
        };
        // Where this panel's columns land in C: one contiguous run (always,
        // for a dense B; for a sparse one whenever the panel does not
        // straddle a pruned block — `cmap` is strictly increasing, so the
        // end points decide it) or a scatter through the map.
        let cols = match cmap.map(|map| &map[j0..j0 + width]) {
            None => Cols::Run(j0, width),
            Some(map) if map[width - 1] - map[0] == width - 1 => Cols::Run(map[0], width),
            Some(map) => Cols::Map(map),
        };
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            // Lanes past `width` keep whatever an earlier panel left
            // there: the kernel computes on them and never stores them.
            for (p, line) in panel.chunks_exact_mut(w).take(kc).enumerate() {
                let row = (k0 + p) * nb + j0;
                line[..width].copy_from_slice(&b[row..row + width]);
            }
            for blk in 0..blocks {
                let base = (blk * k + k0) * MR;
                kernel(
                    &apack[base..base + kc * MR],
                    &panel[..kc * w],
                    c,
                    blk * MR,
                    MR.min(rows - blk * MR),
                    n,
                    cols,
                );
            }
        }
    }
}

/// The narrowest supported microkernel width covering `width` columns.
fn lanes(width: usize) -> usize {
    match width {
        0..=16 => 16,
        17..=32 => 32,
        _ => NR,
    }
}

/// The output columns one packed `B` panel lands in.
#[derive(Clone, Copy)]
enum Cols<'a> {
    /// `width` adjacent columns starting at `start`: `Run(start, width)`.
    Run(usize, usize),
    /// One output column per panel column.
    Map(&'a [usize]),
}

/// The signature every width of [`microkernel`] shares.
type Microkernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, Cols);

/// The register-tiled inner kernel: an `MR × W` block of `C` held in
/// accumulators across one k-block of the packed operands (`ablock`:
/// `kc × MR`, `bpanel`: `kc × W`).
///
/// The block's running totals are *resumed from* `C` and checkpointed
/// back to it between k-blocks, so each output element experiences one
/// uninterrupted ascending-`k` chain of fused multiply-adds — the exact
/// reference op sequence — regardless of how `k` is blocked. Only the
/// first `live` rows (the rest are the last block's zero padding) and the
/// columns named by `cols` are loaded and stored.
fn microkernel<const W: usize>(
    ablock: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ci0: usize,
    live: usize,
    n: usize,
    cols: Cols,
) {
    let mut acc = [[0.0f32; W]; MR];
    for (r, accr) in acc.iter_mut().enumerate().take(live) {
        let crow = &c[(ci0 + r) * n..(ci0 + r + 1) * n];
        match cols {
            Cols::Run(start, width) => {
                accr[..width].copy_from_slice(&crow[start..start + width]);
            }
            Cols::Map(map) => {
                for (x, &j) in accr.iter_mut().zip(map) {
                    *x = crow[j];
                }
            }
        }
    }
    for (arow, brow) in ablock.chunks_exact(MR).zip(bpanel.chunks_exact(W)) {
        let arow: &[f32; MR] = arow.try_into().expect("A block line");
        let brow: &[f32; W] = brow.try_into().expect("panel line");
        for r in 0..MR {
            let arp = arow[r];
            // Same skip as the reference kernel: an exact zero in A
            // contributes no operation at all.
            if arp == 0.0 {
                continue;
            }
            let accr = &mut acc[r];
            for j in 0..W {
                accr[j] = arp.mul_add(brow[j], accr[j]);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(live) {
        let crow = &mut c[(ci0 + r) * n..(ci0 + r + 1) * n];
        match cols {
            Cols::Run(start, width) => {
                crow[start..start + width].copy_from_slice(&accr[..width]);
            }
            Cols::Map(map) => {
                for (&x, &j) in accr.iter().zip(map) {
                    crow[j] = x;
                }
            }
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
    fn sequential_runs_the_packed_kernel() {
        // Below the MR-row cut-off, a ragged row block over one narrow
        // panel, and two k-blocks under a 48 + 48 + 32-lane sweep.
        let mut rng = Pcg32::seed_from_u64(3);
        for (m, k, n) in [(3, 5, 7), (9, 4, 6), (79, 256, 128)] {
            let a = rng.randn(&[m, k], 1.0);
            let b = rng.randn(&[k, n], 1.0);
            assert_bit_identical(
                &matmul(&a, &b, Parallelism::Sequential).unwrap(),
                &gemm::matmul(&a, &b).unwrap(),
            );
        }
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
