//! Parallel execution backend for the reference kernels.
//!
//! The [`gemm`] module defines *what* the array computes; this
//! module computes the same values *fast* on the host CPU so the engine can
//! serve real traffic. One packed GEMM sweep serves every entry point —
//! [`matmul`] under every [`Parallelism`] setting and
//! [`sparse::matmul`](crate::sparse::matmul) over its payload — built from
//! three ideas, mirroring how throughput is obtained in systolic-array
//! designs themselves:
//!
//! 1. **Cache/register blocking** — `B` is packed into column panels that
//!    a register-tiled microkernel sweeps, exactly the output-stationary
//!    tiling a systolic schedule performs in hardware. The tile adapts to
//!    the product instead of the product to the tile: four rows by the
//!    narrowest of 16 / 32 / 48 lanes that covers the panel (`n = 64` is
//!    48 + 16, `n = 8` one 16-lane pass), and the last `m % 4` rows ride
//!    a zero-padded row block.
//! 2. **Zeros in `A` cost nothing** — real left operands are full of exact
//!    zeros (a post-ReLU map, im2col padding, a GCN's `Â`). `A` is packed
//!    into a [`PackedLhs`]: four-row blocks that keep only the k-lines on
//!    which some row is non-zero, so an all-zero line is never streamed,
//!    and the microkernel walks the kept lines without a data-dependent
//!    branch, so a zero inside a live line mispredicts nothing. The pack
//!    is a value: whoever multiplies one `A` many times packs it once
//!    ([`matmul_packed`]).
//! 3. **Row-panel threading** — the output matrix is split into disjoint
//!    panels of row blocks, one per worker, executed under
//!    [`std::thread::scope`] (no external dependencies).
//!    [`Parallelism::Sequential`] is the one-worker case of the same sweep.
//!
//! # Bit-identical by construction
//!
//! Every output element `C[i][j]` is accumulated over `k` in ascending
//! order, one fused multiply-add ([`f32::mul_add`], a hardware MAC) per
//! step, skipping steps where `A[i][k] == 0.0` — precisely the operation
//! sequence of the sequential reference [`gemm::matmul`]. Row/column
//! blocking, the panel width and the thread count only change *which core
//! and which vector lane* performs a given output element, never the
//! floating-point op sequence behind it.
//!
//! The kernel does not branch on `A[i][k] == 0.0`; it never sees a line
//! whose four rows are all zero, and on the others it performs the step
//! the reference skips — which is the identity exactly when both hold:
//!
//! * **The accumulator is not `-0.0`.** `fma(±0, b, acc)` with a finite
//!   `b` adds `±0` to `acc`: any non-zero, infinite or NaN `acc` comes back
//!   bit for bit, and so does `+0.0` (`+0 + -0 = +0` under
//!   round-to-nearest); only `-0.0 + +0 = +0` would differ. Accumulators
//!   start at `+0.0`, an exact cancellation rounds to `+0.0`, and a
//!   `±0` product leaves `+0.0` alone — so the one way to reach `-0.0` is
//!   a negative sum that *underflows* past the smallest subnormal. That is
//!   ruled out when every non-zero `|a|` and `|b|` is at least `2⁻⁵⁰`:
//!   their lowest set bits are then at least `2⁻⁷³`, every exact product is
//!   a multiple of `2⁻¹⁴⁶`, every exact `a·b + acc` a multiple of `2⁻¹⁴⁹`,
//!   and a non-zero multiple of the smallest subnormal cannot round to
//!   zero.
//! * **`B` is finite**, so `0·b` is `±0` and not the NaN of `0·inf`.
//!
//! [`PackedLhs`] records `A`'s half of that test when it packs; the sweep
//! scans `B` once per call. If either fails — a `B` holding `±inf` or
//! `NaN`, an operand with non-zero values under `2⁻⁵⁰` — the same kernel
//! runs with the reference's skip compiled in (a const generic of it), so
//! results are bit-identical to the reference for **every** input and
//! **every** [`Parallelism`] setting; nothing but the operands' own values
//! chooses between the two, and on inputs where both apply they agree.
//! The integration suite (`tests/integration_parallel.rs`) asserts this
//! across thread counts 1/2/4, and the crate's proptests across the whole
//! shape space, zero fractions from none to all, signed zeros, non-finite
//! and underflowing values.
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

/// A GEMM's left operand, packed once for the microkernel: `MR`-row
/// blocks by `KC`-deep k-blocks, each holding only the k-lines on which
/// *some* row of the block is non-zero, with each line's k offset beside
/// it. A line of `MR` zeros contributes no operation to any output, so it
/// is never stored, never streamed and never multiplied — a GCN's `Â`
/// keeps under a fifth of its lines — while a dense operand keeps them
/// all and pays one offset byte per line.
///
/// Packing costs `O(m·k)` against the product's `O(m·k·n)`; a caller
/// that multiplies one left operand many times (`onesa-plan` holds one
/// per program constant) packs it once and calls [`matmul_packed`].
#[derive(Debug, Clone)]
pub struct PackedLhs {
    m: usize,
    k: usize,
    /// Lines `spans[i]..spans[i + 1]` belong to (row block, k-block) pair
    /// `i = blk · ceil(k / KC) + kb`.
    spans: Vec<usize>,
    /// The retained lines, `MR` values each (the last row block is
    /// zero-padded to `MR` rows).
    lines: Vec<f32>,
    /// Each retained line's k offset inside its k-block (`< KC`).
    offs: Vec<u8>,
    /// Whether every non-zero element is at least [`SAFE_MIN`] in
    /// magnitude — this operand's half of the test that lets the kernel
    /// multiply by its zeros instead of branching around them.
    safe: bool,
}

// A line's k offset is stored in one byte.
const _: () = assert!(KC <= 256);

/// `2⁻⁵⁰`, as `f32` bits: the magnitude at or above which a non-zero
/// operand element can never take part in an underflow to `-0.0`. The
/// lowest set bit of such a value is at least `2⁻⁷³`, so the exact product
/// of two of them is a multiple of `2⁻¹⁴⁶` and its exact sum with any
/// `f32` accumulator a multiple of `2⁻¹⁴⁹` — zero, or at least the
/// smallest subnormal. See "Bit-identical by construction" in the
/// [module docs](self).
const SAFE_MIN: u32 = (127 - 50) << 23;
/// `+inf` as `f32` bits with the sign cleared.
const INF: u32 = 0xff << 23;

/// Whether every element is zero or has a magnitude (as `f32` bits) in
/// `SAFE_MIN..below`. An `A` passes `u32::MAX` — its non-finite elements
/// are multiplied on both paths alike, only its zeros are in question —
/// and a `B` passes [`INF`], so that `0·b` is `±0`.
fn magnitudes_safe(values: &[f32], below: u32) -> bool {
    values.iter().fold(true, |ok, v| {
        let mag = v.to_bits() & !(1 << 31);
        ok & ((mag == 0) | (SAFE_MIN..below).contains(&mag))
    })
}

impl PackedLhs {
    /// Packs a matrix for reuse, dropping its all-zero lines.
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    pub fn pack(a: &Tensor) -> Result<Self> {
        Self::pack_with(a, true)
    }

    /// Packs `a` one k-block of a row block at a time. The four rows are
    /// interleaved into lines (a transpose the compiler does in shuffles);
    /// with `compact`, a k-block that has a dead line goes through a
    /// scratch tile and is compacted from there — each line is copied to
    /// the cursor and the cursor advances by whether the line was live. No
    /// loop has a data-dependent branch inside it, so a half-zero operand
    /// mispredicts nothing.
    ///
    /// Compaction is a serial pass over the lines, worth its cost only
    /// when the pack is reused: [`PackedLhs::pack`] compacts, the pack
    /// [`matmul`] makes for one call keeps every line (its zeros still
    /// cost no branch, and a ReLU-masked activation packs as fast as a
    /// dense one).
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    pub(crate) fn pack_with(a: &Tensor, compact: bool) -> Result<Self> {
        let (m, k) = a.shape().as_matrix()?;
        let a = a.as_slice();
        const ZEROS: [f32; KC] = [0.0; KC];
        const IOTA: [u8; KC] = {
            let mut iota = [0; KC];
            let mut p = 0;
            while p < KC {
                iota[p] = p as u8;
                p += 1;
            }
            iota
        };
        let blocks = m.div_ceil(MR);
        let mut lines = vec![0.0f32; blocks * k * MR];
        let mut offs = vec![0u8; blocks * k];
        let mut spans = Vec::with_capacity(blocks * k.div_ceil(KC) + 1);
        let mut at = 0;
        spans.push(at);
        let mut scratch = [0.0f32; KC * MR];
        for blk in 0..blocks {
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                // This block's rows over the k-block; rows past `m` are
                // the zero padding of the last block.
                let row = |r: usize| match blk * MR + r {
                    i if i < m => &a[i * k + k0..i * k + k0 + kc],
                    _ => &ZEROS[..kc],
                };
                let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                let quads = || r0.iter().zip(r1).zip(r2).zip(r3);
                let interleave = |tile: &mut [f32]| {
                    for (line, (((&a0, &a1), &a2), &a3)) in tile.chunks_exact_mut(MR).zip(quads()) {
                        line.copy_from_slice(&[a0, a1, a2, a3]);
                    }
                };
                let mut live = [1u8; KC];
                if compact {
                    for (live, (((&a0, &a1), &a2), &a3)) in live.iter_mut().zip(quads()) {
                        *live = u8::from((a0 != 0.0) | (a1 != 0.0) | (a2 != 0.0) | (a3 != 0.0));
                    }
                }
                if !live[..kc].contains(&0) {
                    interleave(&mut lines[at * MR..(at + kc) * MR]);
                    offs[at..at + kc].copy_from_slice(&IOTA[..kc]);
                    at += kc;
                } else {
                    interleave(&mut scratch[..kc * MR]);
                    for ((line, &off), &live) in
                        scratch.chunks_exact(MR).zip(&IOTA).zip(&live[..kc])
                    {
                        lines[at * MR..(at + 1) * MR].copy_from_slice(line);
                        offs[at] = off;
                        at += usize::from(live);
                    }
                }
                spans.push(at);
            }
        }
        lines.truncate(at * MR);
        offs.truncate(at);
        Ok(PackedLhs {
            m,
            k,
            spans,
            lines,
            offs,
            safe: magnitudes_safe(a, u32::MAX),
        })
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
    let (m, _) = a.shape().as_matrix()?;
    if m < MR {
        return gemm::matmul(a, b);
    }
    matmul_packed(&PackedLhs::pack_with(a, false)?, b, par)
}

/// [`matmul`] for a left operand that is already packed — bit-identical
/// to it, and to [`gemm::matmul`] on the matrix `a` was packed from.
///
/// # Errors
///
/// Shape errors as in [`gemm::matmul`].
pub fn matmul_packed(a: &PackedLhs, b: &Tensor, par: Parallelism) -> Result<Tensor> {
    let (k, n) = b.shape().as_matrix()?;
    if a.k != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![a.m, a.k],
            rhs: b.dims().to_vec(),
            op: "parallel::matmul",
        });
    }
    Ok(gemm_sweep(a, b.as_slice(), None, n, par))
}

/// The one GEMM sweep behind [`matmul`] and [`crate::sparse::matmul`]:
/// `C = A · B` for a packed `A` and a row-major `B` with `a.k` rows,
/// split into disjoint panels of row blocks across `par`'s workers.
///
/// Column `j` of `B` lands in column `cmap[j]` of the `n`-wide result;
/// `None` is the identity map of a dense `B`. A block-sparse `B` passes its
/// payload and the payload → output column map, and the output columns no
/// payload column maps to keep the `+0.0` they are initialized with.
///
/// The operands decide which of the microkernel's two bodies runs, once
/// per call: the one that multiplies by `A`'s zeros whenever that is the
/// identity (see "Bit-identical by construction" in the
/// [module docs](self)), the one that branches around them otherwise.
pub(crate) fn gemm_sweep(
    a: &PackedLhs,
    b: &[f32],
    cmap: Option<&[usize]>,
    n: usize,
    par: Parallelism,
) -> Tensor {
    let mut out = Tensor::zeros(&[a.m, n]);
    let skip = !(a.safe && magnitudes_safe(b, INF));
    let blocks = a.m.div_ceil(MR);
    let workers = par.worker_count().min(blocks.max(1));
    if workers <= 1 || blocks < 2 {
        panel_rows(a, 0, b, cmap, out.as_mut_slice(), n, skip);
        return out;
    }
    // Split C into near-equal disjoint panels of whole row blocks, one per
    // worker. Each worker owns a contiguous `&mut` slice of the output, so
    // no synchronization is needed beyond the scope join.
    let base = blocks / workers;
    let extra = blocks % workers;
    thread::scope(|scope| {
        let mut rest = out.as_mut_slice();
        let mut blk0 = 0;
        for w in 0..workers {
            let mine = base + usize::from(w < extra);
            let rows = (mine * MR).min(a.m - blk0 * MR);
            let (panel, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            scope.spawn(move || panel_rows(a, blk0, b, cmap, panel, n, skip));
            blk0 += mine;
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
    if pointwise_workers(x.len(), par) <= 1 {
        return gemm::mhp(x, k, b);
    }
    let mut out = Tensor::zeros(x.dims());
    let (xv, kv, bv) = (x.as_slice(), k.as_slice(), b.as_slice());
    for_each_chunk(out.as_mut_slice(), par, |lo, chunk| {
        let hi = lo + chunk.len();
        let operands = xv[lo..hi].iter().zip(&kv[lo..hi]).zip(&bv[lo..hi]);
        for (o, ((&xi, &ki), &bi)) in chunk.iter_mut().zip(operands) {
            *o = xi * ki + bi;
        }
    });
    Ok(out)
}

/// How many workers a pointwise sweep over `len` elements is split
/// across: `par`'s, or one below 4 096 elements — less work than spawning
/// a thread costs.
fn pointwise_workers(len: usize, par: Parallelism) -> usize {
    if len < 4096 {
        1
    } else {
        par.worker_count()
    }
}

/// The thread split of every pointwise sweep ([`mhp`], the fused CPWL
/// evaluation in `onesa-cpwl`): calls `f(offset, chunk)` on disjoint,
/// near-equal chunks of `out`, one per worker (of `par`'s; one worker
/// below 4 096 elements, and then `f` runs on the calling thread),
/// `offset` being the chunk's position in `out`. `f` must compute each
/// element from its own index alone, so the split never shows in the
/// result.
pub fn for_each_chunk<F>(out: &mut [f32], par: Parallelism, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let workers = pointwise_workers(out.len(), par);
    if workers <= 1 {
        return f(0, out);
    }
    let len = out.len().div_ceil(workers);
    thread::scope(|scope| {
        for (w, chunk) in out.chunks_mut(len).enumerate() {
            let f = &f;
            scope.spawn(move || f(w * len, chunk));
        }
    });
}

/// Computes the rows of `C` that `c` holds — whole row blocks of `a`
/// starting at block `blk0` (the last may be ragged) — with `b`, `cmap`
/// and `skip` as in [`gemm_sweep`].
///
/// `B` is consumed one column panel of up to [`NR`] columns at a time,
/// `KC` rows deep, BLIS-style and independently by each worker (the
/// duplicated copies are `O(k·n)` against `O(rows · k · n)` of MACs): the
/// panel is packed into a small contiguous buffer and immediately swept by
/// every row block, staying cache-hot while in use. A panel is packed at
/// the narrowest of 16 / 32 / 48 lanes that covers it, so a narrow product
/// (or the tail of a wide one) does not pay for a `4 × 48` tile it leaves
/// mostly empty.
fn panel_rows(
    a: &PackedLhs,
    blk0: usize,
    b: &[f32],
    cmap: Option<&[usize]>,
    c: &mut [f32],
    n: usize,
    skip: bool,
) {
    let nb = cmap.map_or(n, <[usize]>::len);
    let kblocks = a.k.div_ceil(KC);
    // The kernel reads the panel one 64-byte vector at a time; start it
    // on a cache line so no read straddles two (the allocator promises
    // 16 bytes, and which residue it hands out varies call to call).
    let len = KC.min(a.k) * lanes(nb.min(NR));
    let mut buf = vec![0.0f32; len + LINE];
    let skew = buf.as_ptr().align_offset(LINE * 4) % LINE;
    let panel = &mut buf[skew..skew + len];
    let mut runs = Vec::new();
    for j0 in (0..nb).step_by(NR) {
        let width = NR.min(nb - j0);
        let w = lanes(width);
        let kernel: Microkernel = match (w, skip) {
            (16, false) => microkernel::<16, false>,
            (32, false) => microkernel::<32, false>,
            (_, false) => microkernel::<NR, false>,
            (16, true) => microkernel::<16, true>,
            (32, true) => microkernel::<32, true>,
            (_, true) => microkernel::<NR, true>,
        };
        // Where this panel's columns land in C: one run for a dense B;
        // for a sparse one, one per stretch of the map that no pruned
        // block interrupts.
        runs.clear();
        match cmap.map(|map| &map[j0..j0 + width]) {
            None => runs.push(Run {
                at: 0,
                col: j0,
                len: width,
            }),
            Some(map) => {
                let mut at = 0;
                for p in 1..=width {
                    if p == width || map[p] != map[p - 1] + 1 {
                        runs.push(Run {
                            at,
                            col: map[at],
                            len: p - at,
                        });
                        at = p;
                    }
                }
            }
        }
        for kb in 0..kblocks {
            let k0 = kb * KC;
            let kc = KC.min(a.k - k0);
            // Lanes past `width` keep whatever an earlier panel left
            // there: the kernel computes on them and never stores them.
            for (p, line) in panel.chunks_exact_mut(w).take(kc).enumerate() {
                let row = (k0 + p) * nb + j0;
                line[..width].copy_from_slice(&b[row..row + width]);
            }
            for (i, crows) in c.chunks_mut(MR * n).enumerate() {
                let span = (blk0 + i) * kblocks + kb;
                let (lo, hi) = (a.spans[span], a.spans[span + 1]);
                if lo < hi {
                    kernel(
                        &a.lines[lo * MR..hi * MR],
                        &a.offs[lo..hi],
                        &panel[..kc * w],
                        crows,
                        n,
                        &runs,
                    );
                }
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

/// `len` adjacent columns of a packed `B` panel, from panel column `at`
/// on, and the column of `C` the first of them lands in.
#[derive(Clone, Copy)]
struct Run {
    at: usize,
    col: usize,
    len: usize,
}

/// The signature every instance of [`microkernel`] shares.
type Microkernel = fn(&[f32], &[u8], &[f32], &mut [f32], usize, &[Run]);

/// The register-tiled inner kernel: an `MR × W` block of `C` held in
/// accumulators across the retained lines of one (row block, k-block)
/// pair of the packed `A` (`alines`: `MR` values per line, `offs`: the
/// line of `bpanel` each one multiplies; `bpanel`: `kc × W`).
///
/// The block's running totals are *resumed from* `C` and checkpointed
/// back to it between k-blocks, so each output element experiences one
/// uninterrupted ascending-`k` chain of fused multiply-adds — the exact
/// reference op sequence — regardless of how `k` is blocked. `crows`
/// holds the block's live rows of `C` (fewer than `MR` for a ragged last
/// block, whose padding rows are computed and dropped), `n` wide; only
/// the columns named by `runs` are loaded and stored.
///
/// `SKIP` compiles in the reference's `a == 0.0` test. Without it the
/// loop body has no data-dependent branch: a zero in a live line is
/// multiplied like any other value, which [`gemm_sweep`] allows only when
/// that returns the accumulator bit for bit.
fn microkernel<const W: usize, const SKIP: bool>(
    alines: &[f32],
    offs: &[u8],
    bpanel: &[f32],
    crows: &mut [f32],
    n: usize,
    runs: &[Run],
) {
    let mut acc = [[0.0f32; W]; MR];
    for (accr, crow) in acc.iter_mut().zip(crows.chunks_exact(n)) {
        for &Run { at, col, len } in runs {
            accr[at..at + len].copy_from_slice(&crow[col..col + len]);
        }
    }
    for (arow, &off) in alines.chunks_exact(MR).zip(offs) {
        let arow: &[f32; MR] = arow.try_into().expect("A block line");
        let off = usize::from(off) * W;
        let brow: &[f32; W] = bpanel[off..off + W].try_into().expect("panel line");
        for r in 0..MR {
            let arp = arow[r];
            // The reference kernel's skip: an exact zero in A contributes
            // no operation at all.
            if SKIP && arp == 0.0 {
                continue;
            }
            let accr = &mut acc[r];
            for j in 0..W {
                accr[j] = arp.mul_add(brow[j], accr[j]);
            }
        }
    }
    for (accr, crow) in acc.iter().zip(crows.chunks_exact_mut(n)) {
        for &Run { at, col, len } in runs {
            crow[col..col + len].copy_from_slice(&accr[at..at + len]);
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
    fn non_finite_b_takes_the_skip_kernel() {
        // 0·inf and 0·NaN are NaN: a zero of A must contribute no
        // operation at all when B is not finite.
        let mut rng = Pcg32::seed_from_u64(6);
        let a = rng.randn(&[9, 140], 1.0).map(|v| v.max(0.0));
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut b = rng.randn(&[140, 20], 1.0);
            b.as_mut_slice()[3 * 20 + 7] = poison;
            b.as_mut_slice()[139 * 20] = poison;
            let reference = gemm::matmul(&a, &b).unwrap();
            assert!(reference.as_slice().iter().any(|v| v.is_finite()));
            for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
                assert_bit_identical(&matmul(&a, &b, par).unwrap(), &reference);
            }
        }
    }

    #[test]
    fn underflow_to_negative_zero_takes_the_skip_kernel() {
        // The one way an accumulator becomes -0.0: a negative product too
        // small for the smallest subnormal. Multiplying the zero of A that
        // follows would turn it into +0.0; the reference skips it. (Odd
        // rows keep that zero's line live.)
        let tiny_a = ([-1e-30, 0.0], vec![1e-30, 1.0]);
        let tiny_b = ([-0.25, 0.0], vec![f32::from_bits(1), 1.0]);
        for (row, col) in [tiny_a, tiny_b] {
            let a = Tensor::from_vec([row, [1.0, 1.0]].concat().repeat(3), &[6, 2]).unwrap();
            let b = Tensor::from_vec(col, &[2, 1]).unwrap();
            let reference = gemm::matmul(&a, &b).unwrap();
            assert_eq!(reference.as_slice()[0].to_bits(), (-0.0f32).to_bits());
            assert_bit_identical(
                &matmul(&a, &b, Parallelism::Sequential).unwrap(),
                &reference,
            );
        }
    }

    #[test]
    fn pack_keeps_only_live_lines() {
        // 6 rows x 130 columns: two row blocks, two k-blocks. Column p is
        // live in block 0 iff p is odd (row 1) and in block 1 iff p == 129
        // (row 5, of the block's two real rows).
        let mut a = Tensor::zeros(&[6, 130]);
        for p in (1..130).step_by(2) {
            a.as_mut_slice()[130 + p] = -1.5;
        }
        a.as_mut_slice()[5 * 130 + 129] = f32::NAN;
        a.as_mut_slice()[2 * 130 + 4] = -0.0;
        let packed = PackedLhs::pack(&a).unwrap();
        assert_eq!((packed.m, packed.k), (6, 130));
        assert_eq!(packed.spans, [0, 64, 65, 65, 66]);
        assert_eq!(packed.offs[..3], [1, 3, 5]);
        assert_eq!(packed.offs[64..], [1, 1]);
        assert_eq!(packed.lines[..4], [0.0, -1.5, 0.0, 0.0]);
        let dense = PackedLhs::pack(&Tensor::from_vec(vec![1.0; 7 * 3], &[7, 3]).unwrap()).unwrap();
        assert_eq!(dense.offs, [0, 1, 2, 0, 1, 2]);
        assert!(PackedLhs::pack(&Tensor::zeros(&[9, 5]))
            .unwrap()
            .offs
            .is_empty());
        assert!(PackedLhs::pack(&Tensor::zeros(&[4])).is_err());
        let b = Pcg32::seed_from_u64(8).randn(&[130, 33], 1.0);
        assert_bit_identical(
            &matmul_packed(&packed, &b, Parallelism::Threads(2)).unwrap(),
            &gemm::matmul(&a, &b).unwrap(),
        );
        assert!(matmul_packed(&packed, &Tensor::zeros(&[129, 3]), Parallelism::Auto).is_err());
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
