//! Host execution backend for the reference kernels.
//!
//! The [`gemm`] module defines *what* the array computes; this
//! module computes the same values *fast* on the host CPU so the engine can
//! serve real traffic. One GEMM sweep serves every entry point —
//! [`matmul`], [`matmul_rows`], [`matmul_packed`],
//! [`sparse::matmul`](crate::sparse::matmul) over its payload and
//! [`conv2d`] over image patches; only a left operand packed by rows
//! (idea 2) has a kernel of its own — built from two ideas, mirroring how
//! throughput is obtained in systolic-array designs themselves:
//!
//! 1. **Cache/register blocking** — `B` is packed into column panels that
//!    a register-tiled microkernel sweeps, exactly the output-stationary
//!    tiling a systolic schedule performs in hardware. The tile adapts to
//!    the product instead of the product to the tile: four rows by the
//!    narrowest of 16 / 32 / 48 lanes that covers the panel (`n = 64` is
//!    48 + 16, `n = 8` one 16-lane pass; a `B` packed once takes panels
//!    of up to 64 lanes, so `n = 64` is one), and the last `m % 4` rows
//!    ride a row block padded with rows of zeros.
//! 2. **Zeros in `A` cost nothing** — real left operands are full of exact
//!    zeros (a post-ReLU map, im2col padding, a GCN's `Â`). The microkernel
//!    walks `A`'s lines without a data-dependent branch, so a zero
//!    mispredicts nothing. A reused operand is packed once
//!    ([`matmul_packed`]), and a per-call operand is read where it lies:
//!    the sweep takes `A` as a list of row-major **parts** — one for
//!    [`matmul`], one per member for a row-stacked group through
//!    [`matmul_rows`] — and hands the microkernel each row block's four
//!    rows where they lie, from one part or from two; it broadcasts
//!    `A[i][p]` from them as it does from a packed line — interleaving an
//!    operand the sweep then reads once or twice cost more than it saved,
//!    and so did gathering a group's rows into one block. A pack is a
//!    [`PackedLhs`]: four-row
//!    blocks that keep only the k-lines on which some row is non-zero, so
//!    an all-zero line is never streamed. It may instead keep **rows**:
//!    each row's non-zeros as `(value, k)` pairs, multiplied one row at a
//!    time with the row's `W`-lane slice of `C` in registers and `B`'s rows
//!    read in place. Scattered zeros rarely empty a whole four-row line —
//!    a GCN's `Â`, 5.2 % non-zero, keeps 19.4 % of its lines, 3.7
//!    multiply-adds per non-zero — so such an operand pays by its
//!    non-zeros alone. The pack picks the layout from its own counts (see
//!    [`PackedLhs::pack`]).
//!
//! Every kernel runs on the calling thread. A served pool gets its
//! parallelism from its shards — one thread or worker process per
//! simulated array — never from threads inside one call: a call's spawns
//! cost more than the split saved on the 5–70 µs ops a pool serves.
//!
//! # Bit-identical by construction
//!
//! Every output element `C[i][j]` is accumulated over `k` in ascending
//! order, one fused multiply-add ([`f32::mul_add`], a hardware MAC) per
//! step, skipping steps where `A[i][k] == 0.0` — precisely the operation
//! sequence of the sequential reference [`gemm::matmul`]. Row/column
//! blocking and the panel width only change *which vector lane* performs a
//! given output element, never the floating-point op sequence behind it.
//!
//! The kernel does not branch on `A[i][k] == 0.0`; it never sees a packed
//! line whose four rows are all zero, and on the others — and on every
//! line of an `A` read in place — it performs the step the reference skips,
//! which is the identity exactly when both hold:
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
//! [`PackedLhs`] records `A`'s half of that test when it packs, and a `B`
//! packed once ([`Right::Reused`]) records `B`'s; an `A` read in place is
//! scanned once per call, and so is a `B` packed per call. If either half
//! fails — a `B` holding `±inf` or
//! `NaN`, an operand with non-zero values under `2⁻⁵⁰` — the same kernel
//! runs with the reference's skip compiled in (a const generic of it), so
//! results are bit-identical to the reference for **every** input; nothing
//! but the operands' own values chooses between the two, and on inputs
//! where both apply they agree. The integration suite
//! (`tests/integration_parallel.rs`) and the crate's proptests assert this
//! across the whole shape space, zero fractions from none to all, signed
//! zeros, non-finite and underflowing values.
//!
//! The rows layout needs no such test. A row keeps exactly the `A[i][k]`
//! for which `A[i][k] != 0.0` — the steps the reference does not skip, so
//! `-0.0` is dropped and `NaN` kept — in ascending `k`, and each of the
//! row's outputs is one accumulator that starts at `+0.0` and takes one
//! fused multiply-add per kept step: the reference's own chain, step for
//! step, for **every** input, with nothing to fall back on.
//!
//! # Four sources of `B`, one sweep
//!
//! The sweep walks `B` one `KC × NR` panel at a time, every row block of
//! `A` reading each panel line while it is cache-hot, and the entry
//! points differ only in where a panel line is: the rows of a dense `B`
//! multiplied once, packed per call into a small buffer; the payload of a
//! block-sparse one, packed the same way, whose column map sends each run
//! of surviving columns to its place in `C`; a **packed** `B` — a weight
//! multiplied many times, whose panels were laid out once for every
//! (panel, k-block) pair and kept in its storage with its scan's verdict,
//! so a call neither copies nor scans it ([`Right::Reused`]); or, for
//! [`conv2d`], **image patches**. A convolution
//! runs with its kernel weight `W = [cout, C·k·k]` as the packed left
//! operand and the transposed im2col matrix as `B` — row `(c, ky, kx)` is
//! that tap of every output pixel — so the wide axis is the pixels, not
//! the few output channels. That `B` is never built. Each image is copied
//! once, zero-padded and split into its stride phases, so that tap `(c,
//! ky, kx)` of `NR` consecutive output pixels is one contiguous run of the
//! copy (the few pixels a row's end adds are computed and never stored);
//! the kernel reads every line in place through a per-image tap-offset
//! table, and nothing is gathered per panel. Images that share one weight
//! add their pixels as further columns of the one sweep.
//!
//! The reference for [`conv2d`] is `im2col` → `matmul(cols, Wᵀ)` →
//! `col2im_output`: the argument above with `A` and `B` swapped. Each
//! output element is still one ascending-`k` chain of fused multiply-adds,
//! and `fma` is symmetric in its multiplicands, so the chains differ only
//! in which zero steps they take: the reference skips a patch zero that
//! the no-skip body multiplies, and compacting `W`'s all-zero lines drops
//! products the reference performs. Both are the identity under the same
//! test — every image and `W` finite, every non-zero magnitude at least
//! `2⁻⁵⁰` — and there is no skip body to fall back on (it would skip
//! `W`'s zeros, not the patches'), so [`conv2d`] checks that test, with
//! `W`'s half recorded when it was packed, and otherwise declines.
//!
//! # Example
//!
//! ```
//! use onesa_tensor::{parallel, parallel::Parallelism, rng::Pcg32, gemm};
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let a = rng.randn(&[50, 30], 1.0);
//! let b = rng.randn(&[30, 40], 1.0);
//! let fast = parallel::matmul(&a, &b, Parallelism::Sequential)?;
//! assert_eq!(fast, gemm::matmul(&a, &b)?); // bit-identical
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::im2col::Conv2dGeometry;
use crate::sparse::SparseTensor;
use crate::{gemm, Result, Tensor, TensorError};
use std::borrow::Cow;

/// How many rows of `C` one microkernel call produces.
pub(crate) const MR: usize = 4;
/// Widest panel of a `B` packed per call (three 512-bit vectors of
/// `f32`) and the column step of its sweep; a panel narrower than this
/// runs at 16 or 32 lanes. The `MR × NR` accumulator tile plus one panel
/// line stay well inside the vector register file.
const NR: usize = 48;
/// Widest panel of a `B` packed once ([`PackedRhs`]): four 512-bit
/// vectors, a `4 × 64` accumulator tile that with one panel line still
/// takes 20 of the 32 vector registers.
const PW: usize = 64;
/// K-blocking depth: one `KC × NR` packed panel is 24 KiB — it lives in
/// L1 while every row block sweeps it, and it is the only buffer a call
/// allocates besides the zero-padded last row block of an `A` read in
/// place (a convolution allocates none, and one padded copy per image
/// instead).
const KC: usize = 128;
/// `f32`s per cache line.
const LINE: usize = 16;

/// How kernel work is spread across CPU cores: only ever on the calling
/// thread (see the [module docs](self)).
///
/// The type stays only because the system benchmark (`benchmark/`) names
/// it, in the seven signatures that still take an ignored `Parallelism` —
/// [`matmul`], [`mhp`], [`sparse::matmul`](crate::sparse::matmul) and four
/// in `onesa-plan` and `onesa-core` — and goes with them (ROADMAP 12(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// The blocked backend on the calling thread.
    #[default]
    Sequential,
}

/// A GEMM's left operand, packed once for the kernels, in one of two
/// layouts:
///
/// * **lines** — `MR`-row blocks by `KC`-deep k-blocks, each holding only
///   the k-lines on which *some* row of the block is non-zero, with each
///   line's k offset beside it. A line of `MR` zeros contributes no
///   operation to any output, so it is never stored, never streamed and
///   never multiplied, while a dense operand keeps every line and pays
///   one offset byte per line. The microkernel multiplies a kept line's
///   zeros like any other value, so a scattered zero still costs a
///   multiply-add: a GCN's `Â` (5.2 % non-zero) keeps 19.4 % of its
///   lines, 3.7 multiply-adds per non-zero.
/// * **rows** — each row's non-zeros as `(value, k)` pairs in ascending
///   `k`, multiplied one pair at a time: the product costs one
///   multiply-add per non-zero and per column, and nothing else.
///
/// A pack is made for reuse: a caller that multiplies one left operand
/// many times (`onesa-plan` holds one per program constant and one per
/// convolution weight) packs it once and calls [`matmul_packed`]. An
/// operand multiplied once goes to [`matmul`], which reads it where it
/// lies — packing it would interleave it for a sweep that reads it once
/// or twice.
#[derive(Debug, Clone)]
pub struct PackedLhs(Layout);

#[derive(Debug, Clone)]
enum Layout {
    Lines(LinePack),
    Rows(RowPack),
}

/// The lines layout of a [`PackedLhs`]: the packed `A` [`gemm_sweep`]
/// reads ([`Lhs::Packed`]).
#[derive(Debug, Clone)]
pub(crate) struct LinePack {
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
    /// Whether every element is finite — the other half [`conv2d`] needs
    /// of its weight, whose zero lines are dropped where the reference
    /// multiplies them by the patches.
    finite: bool,
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

/// `(safe, finite)`: whether every element is zero or at least
/// [`SAFE_MIN`] in magnitude, and whether every element is finite. An `A`
/// needs only the first — its non-finite elements are multiplied on both
/// paths alike, only its zeros are in question — and a `B` both, so that
/// `0·b` is `±0`.
fn magnitudes(values: &[f32]) -> (bool, bool) {
    values.iter().fold((true, true), |(safe, finite), v| {
        let mag = v.to_bits() & !(1 << 31);
        (
            safe & ((mag == 0) | (mag >= SAFE_MIN)),
            finite & (mag < INF),
        )
    })
}

/// Whether `values` pass the whole test a `B` is held to.
fn safe_and_finite(values: &[f32]) -> bool {
    magnitudes(values) == (true, true)
}

/// What one non-zero costs the rows kernel, in the line kernel's
/// multiply-adds: the line kernel shares each `B` line it loads across
/// `MR` rows and runs `MR` independent chains, the rows kernel loads one
/// line per multiply-add and runs one chain per lane. Measured on random
/// masks at `420 × 420 × 64`, each layout forced, the rows kernel takes
/// 0.55× the lines kernel's time at 25 % density, where the lines cost
/// 2.74 multiply-adds per non-zero, 0.68× at 35 % (2.34), 0.95× at 50 %
/// (1.88) and 1.41× at 75 % (1.33): one rows step costs 1.5–1.9 line
/// steps, and the layouts cross near 50 %. `gemm_parallel`'s `density`
/// section holds the choice this makes to within 10 % of the lines
/// layout at 2–100 %.
const ROW_COST: usize = 2;

impl PackedLhs {
    /// Packs a matrix for reuse, in whichever layout multiplies it in less
    /// time: rows when `2 · nnz < 4 · kept lines`, lines otherwise — a
    /// fixed comparison of the operand's own counts, its non-zeros and the
    /// lines of four it keeps, weighted by what one step of each kernel
    /// costs. A dense operand (every line kept, four non-zeros each) keeps
    /// lines, and so does a large ReLU-masked one (15 of 16 lines kept, 2.1
    /// non-zeros each); a GCN's `Â` (9 142 non-zeros against 8 555 lines of
    /// four) takes rows, and runs in under a third of the lines kernel's
    /// time.
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    pub fn pack(a: &Tensor) -> Result<Self> {
        let lines = LinePack::pack(a)?;
        let nnz = a.as_slice().iter().filter(|v| **v != 0.0).count();
        let rows_cost = nnz.saturating_mul(ROW_COST);
        if rows_cost < lines.offs.len() * MR && u32::try_from(lines.k).is_ok() {
            return Ok(PackedLhs(Layout::Rows(RowPack::pack(a, nnz))));
        }
        Ok(PackedLhs(Layout::Lines(lines)))
    }

    /// Packs a matrix for reuse in the lines layout whatever its counts,
    /// dropping its all-zero lines — the layout [`conv2d`] reads its weight
    /// in.
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    pub fn pack_lines(a: &Tensor) -> Result<Self> {
        LinePack::pack(a).map(|lines| PackedLhs(Layout::Lines(lines)))
    }

    /// `a` packed by [`PackedLhs::pack`], once per buffer: kept in `a`'s
    /// storage and shared by every clone of it (see "What the buffer
    /// remembers" on [`Tensor`]).
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    pub fn of(a: &Tensor) -> Result<Cow<'_, Self>> {
        a.memo(|memo| &memo.lhs, PackedLhs::pack)
    }

    /// The transpose of `w` — a convolution's `[C·k·k, cout]` weight —
    /// packed by [`PackedLhs::pack_lines`] as [`conv2d`]'s left operand,
    /// once per buffer like [`PackedLhs::of`].
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    pub fn of_transposed(w: &Tensor) -> Result<Cow<'_, Self>> {
        w.memo(
            |memo| &memo.conv,
            |w| PackedLhs::pack_lines(&w.transpose()?),
        )
    }

    /// Whether the pack keeps rows (rather than lines).
    pub fn by_rows(&self) -> bool {
        matches!(self.0, Layout::Rows(_))
    }

    /// The packed matrix's `(rows, columns)`.
    fn dims(&self) -> (usize, usize) {
        match &self.0 {
            Layout::Lines(a) => (a.m, a.k),
            Layout::Rows(a) => (a.m, a.k),
        }
    }
}

/// The rows layout of a [`PackedLhs`].
#[derive(Debug, Clone)]
struct RowPack {
    m: usize,
    k: usize,
    /// Row `i`'s non-zeros are `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// `(A[i][k], k)` for every `A[i][k] != 0.0`, row by row, each row in
    /// ascending `k`.
    entries: Vec<(f32, u32)>,
}

impl RowPack {
    /// Packs the `nnz` non-zeros of matrix `a` (whose `k` fits `u32`).
    fn pack(a: &Tensor, nnz: usize) -> Self {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let mut starts = Vec::with_capacity(m + 1);
        let mut entries = Vec::with_capacity(nnz);
        starts.push(0);
        for i in 0..m {
            let row = &a.as_slice()[i * k..(i + 1) * k];
            let kept = (0u32..).zip(row).filter(|(_, v)| **v != 0.0);
            entries.extend(kept.map(|(p, &v)| (v, p)));
            starts.push(entries.len());
        }
        RowPack {
            m,
            k,
            starts,
            entries,
        }
    }
}

/// The k offsets of a k-block's lines when every line is there: a dense
/// block's, and every block's of an `A` read in place.
const IOTA: [u8; KC] = {
    let mut iota = [0; KC];
    let mut p = 0;
    while p < KC {
        iota[p] = p as u8;
        p += 1;
    }
    iota
};

impl LinePack {
    /// Packs `a` one k-block of a row block at a time. The four rows are
    /// interleaved into lines (a transpose the compiler does in shuffles);
    /// a k-block that has a dead line goes through a scratch tile and is
    /// compacted from there — each line is copied to the cursor and the
    /// cursor advances by whether the line was live. No loop has a
    /// data-dependent branch inside it, so a half-zero operand mispredicts
    /// nothing. Compaction is a serial pass over the lines, worth its cost
    /// because a pack is made only to be reused.
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    fn pack(a: &Tensor) -> Result<Self> {
        let (m, k) = a.shape().as_matrix()?;
        let a = a.as_slice();
        const ZEROS: [f32; KC] = [0.0; KC];
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
                for (live, (((&a0, &a1), &a2), &a3)) in live.iter_mut().zip(quads()) {
                    *live = u8::from((a0 != 0.0) | (a1 != 0.0) | (a2 != 0.0) | (a3 != 0.0));
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
        let (safe, finite) = magnitudes(a);
        Ok(LinePack {
            m,
            k,
            spans,
            lines,
            offs,
            safe,
            finite,
        })
    }
}

/// A GEMM's right operand `B`, packed once for reuse: the column panels
/// the sweep packs per call from a [`Rhs::Rows`] matrix, laid out for
/// every (panel, k-block) pair, plus `B`'s half of the zero-multiplying
/// test. The sweep reads its lines in place, so a product against a
/// constant `B` neither scans nor copies it. Made by [`Right::Reused`]
/// in a tensor's storage, once per buffer, on its second product.
#[derive(Debug)]
pub(crate) struct PackedRhs {
    /// Each panel's first column and width.
    panels: Vec<(usize, usize)>,
    /// Where each panel's lines start in [`PackedRhs::values`]: `k` lines
    /// of [`lanes`]`(width)` values (lanes past the width hold `+0.0`).
    starts: Vec<usize>,
    /// The lines from `buf[skew]` on, which starts a cache line.
    buf: Vec<f32>,
    skew: usize,
    /// Whether every element is finite and either zero or at least
    /// [`SAFE_MIN`] in magnitude.
    safe: bool,
}

impl PackedRhs {
    /// Packs matrix `b` into as few panels as [`PW`]-lane ones cover,
    /// their widths as even as whole 16-lane vectors make them: `n = 64`
    /// is one panel, 96 is 48 + 48 and 128 is 64 + 64 (per call they are
    /// 48 + 16 and 48 + 48 + 32). The sweep reads `A` once per panel,
    /// and a wider tile shares each broadcast of `A` across more
    /// multiply-adds; timed at `[16..80, 256]` rows, one 64-lane panel
    /// takes 0.83× the time of 32 + 32 at `n = 64` and 64 + 64 0.94× of 48
    /// + 48 + 32 at `n = 128`, while 64 + 32 is 1.02× of 48 + 48 at `n =
    /// 96`.
    ///
    /// # Errors
    ///
    /// [`TensorError::NotAMatrix`] for non-2-D input.
    fn pack(b: &Tensor) -> Result<Self> {
        let (k, n) = b.shape().as_matrix()?;
        let count = n.div_ceil(PW);
        let mut panels = Vec::with_capacity(count);
        let mut j0 = 0;
        for left in (1..=count).rev() {
            let width = (n - j0).div_ceil(left).next_multiple_of(LINE).min(n - j0);
            panels.push((j0, width));
            j0 += width;
        }
        let mut starts = Vec::with_capacity(panels.len());
        let mut len = 0;
        for &(_, width) in &panels {
            starts.push(len);
            len += k * lanes(width);
        }
        let (mut buf, skew) = aligned(len);
        let values = b.as_slice();
        for (&(j0, width), &start) in panels.iter().zip(&starts) {
            let w = lanes(width);
            let lines = buf[skew + start..skew + start + k * w].chunks_exact_mut(w);
            for (line, row) in lines.zip(values.chunks_exact(n)) {
                line[..width].copy_from_slice(&row[j0..j0 + width]);
            }
        }
        Ok(PackedRhs {
            panels,
            starts,
            buf,
            skew,
            safe: safe_and_finite(values),
        })
    }

    /// Every panel's lines, back to back.
    fn values(&self) -> &[f32] {
        &self.buf[self.skew..self.skew + self.buf.len() - LINE]
    }
}

/// `len` zeroed values starting on a cache line, as `(buffer, offset of
/// the first)`: a kernel that reads 64-byte vectors of them then never
/// straddles two lines, where the allocator promises 16 bytes.
fn aligned(len: usize) -> (Vec<f32>, usize) {
    let buf = vec![0.0; len + LINE];
    let skew = buf.as_ptr().align_offset(LINE * 4) % LINE;
    (buf, skew)
}

/// A copy starts on a cache line of its own.
impl Clone for PackedRhs {
    fn clone(&self) -> Self {
        let values = self.values();
        let (mut buf, skew) = aligned(values.len());
        buf[skew..skew + values.len()].copy_from_slice(values);
        PackedRhs {
            panels: self.panels.clone(),
            starts: self.starts.clone(),
            buf,
            skew,
            safe: self.safe,
        }
    }
}

/// A GEMM's right operand `B` as [`matmul_rows`] takes it.
#[derive(Debug, Clone, Copy)]
pub enum Right<'a> {
    /// A matrix multiplied once (an activation): the sweep packs each
    /// panel as it reaches it, per call.
    Dense(&'a Tensor),
    /// A matrix multiplied many times (a weight): packed once per buffer,
    /// in its storage (see "What the buffer remembers" on [`Tensor`]), by
    /// its second product, and read in place by every call after. Its
    /// first product packs per call, as [`Right::Dense`] does, so a
    /// weight that arrives for one product (decoded from a request's
    /// frame) pays for no pack it would read once.
    Reused(&'a Tensor),
    /// A block-sparse weight: its payload, packed per call.
    Sparse(&'a SparseTensor),
}

/// Computes `A · B` on the calling thread, bit-identical to
/// [`gemm::matmul`]. `a` is read where it lies, four rows at a time, and
/// is not packed: an operand multiplied once would pay for a pack it
/// reads once (see "Zeros in `A`" in the [module docs](self)). Products
/// with fewer than `MR` rows (single-token decode steps) fill less than
/// one register tile, whose padding rows the sweep would compute and drop,
/// and go to the reference loop directly; that cut-off reads `m` alone.
///
/// The [`Parallelism`] argument is ignored; it stays only for
/// `benchmark/` and goes with ROADMAP 12(b).
///
/// # Errors
///
/// Shape errors as in [`gemm::matmul`].
pub fn matmul(a: &Tensor, b: &Tensor, _: Parallelism) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    matmul_rows(&[a.as_slice()], m, k, Right::Dense(b))
}

/// [`matmul`] for a left operand given as row-major `parts`, `k` values
/// per row and `m` rows in all: the product of their rows stacked in
/// order, which is never built — each part is read where it lies, and a
/// row block may take its rows from two parts. The result is
/// bit-identical to [`gemm::matmul`] of the stacked matrix for every
/// source of `b`, and `m < MR` rows go
/// to the reference loop as in [`matmul`] (but for a sparse `b`, which
/// is swept at every `m`).
///
/// # Errors
///
/// [`TensorError::LengthMismatch`] if the parts do not hold `m · k`
/// values; shape errors as in [`gemm::matmul`].
pub fn matmul_rows(parts: &[&[f32]], m: usize, k: usize, b: Right<'_>) -> Result<Tensor> {
    let len = parts.iter().map(|part| part.len()).sum();
    if len != m * k {
        return Err(TensorError::LengthMismatch {
            len,
            expected: m * k,
        });
    }
    let a = Lhs::InPlace { parts, m, k };
    match b {
        Right::Dense(t) | Right::Reused(t) => {
            let n = rhs_cols(m, k, t, "parallel::matmul")?;
            if m < MR {
                let mut out = Tensor::zeros(&[m, n]);
                let rows = parts.iter().flat_map(|part| part.chunks_exact(k.max(1)));
                for (row, out) in rows.zip(out.as_mut_slice().chunks_exact_mut(n.max(1))) {
                    gemm::row_times(row, t.as_slice(), out);
                }
                return Ok(out);
            }
            if matches!(b, Right::Reused(_)) && t.multiplied_before() {
                let packed = t.memo(|memo| &memo.rhs, PackedRhs::pack)?;
                return Ok(gemm_sweep(a, Rhs::Packed(&packed), n));
            }
            Ok(gemm_sweep(a, Rhs::dense(t), n))
        }
        Right::Sparse(b) => {
            if k != b.rows() {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![m, k],
                    rhs: vec![b.rows(), b.cols()],
                    op: "sparse::matmul",
                });
            }
            Ok(gemm_sweep(a, b.payload(), b.cols()))
        }
    }
}

/// The column count of a `B` that an `m × k` left operand multiplies.
///
/// # Errors
///
/// [`TensorError::NotAMatrix`] or [`TensorError::ShapeMismatch`] (naming
/// `op`).
fn rhs_cols(m: usize, k: usize, b: &Tensor, op: &'static str) -> Result<usize> {
    let (bk, n) = b.shape().as_matrix()?;
    if bk != k {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![m, k],
            rhs: b.dims().to_vec(),
            op,
        });
    }
    Ok(n)
}

/// [`matmul`] for a left operand that is already packed — bit-identical
/// to it, and to [`gemm::matmul`] on the matrix `a` was packed from, in
/// either layout.
///
/// # Errors
///
/// Shape errors as in [`gemm::matmul`].
pub fn matmul_packed(a: &PackedLhs, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.dims();
    let n = rhs_cols(m, k, b, "parallel::matmul")?;
    Ok(match &a.0 {
        Layout::Lines(a) => gemm_sweep(Lhs::Packed(a), Rhs::dense(b), n),
        Layout::Rows(a) => rows_sweep(a, b.as_slice(), n),
    })
}

/// A convolution as one sweep with the kernel weight on the left: per
/// `[C, H, W]` image, the `[cout, oh, ow]` feature map that
/// [`im2col`](crate::im2col::im2col) → [`matmul`]`(cols, Wᵀ)` →
/// [`col2im_output`](crate::im2col::col2im_output) produces, with no patch
/// matrix, no per-call pack and no transpose. `w` is the weight `W =
/// [cout, C·k·k]`, packed once by its owner ([`PackedLhs::pack_lines`]);
/// the output pixels of every image are the sweep's columns, side by side,
/// so a group of images sharing one weight is one sweep (see "Three
/// sources of `B`" in the [module docs](self)). No bias is added.
///
/// Returns `Ok(None)` — declines, computing nothing — unless `w` keeps
/// lines and every image and `w` are finite with every non-zero magnitude
/// at least `2⁻⁵⁰`; when it does not decline, every map is bit-identical
/// to the reference. Only the operands' values and `w`'s layout decide.
///
/// # Errors
///
/// [`TensorError::ShapeMismatch`] if `w` is not `C·k·k` deep or an image is
/// not `[C, H, W]` with `C = geo.in_channels`; invalid-argument errors from
/// [`Conv2dGeometry::output_hw`] and its checked companions.
pub fn conv2d(
    w: &PackedLhs,
    images: &[&Tensor],
    geo: &Conv2dGeometry,
) -> Result<Option<Vec<Tensor>>> {
    let (m, k) = w.dims();
    let shape_err = |rhs: &[usize]| TensorError::ShapeMismatch {
        lhs: vec![m, k],
        rhs: rhs.to_vec(),
        op: "parallel::conv2d",
    };
    if k != geo.checked_patch_len()? {
        return Err(shape_err(&[geo.in_channels, geo.kernel, geo.kernel]));
    }
    let mut maps = Vec::with_capacity(images.len());
    let mut n = 0usize;
    for image in images {
        let &[c, h, width] = image.dims() else {
            return Err(shape_err(image.dims()));
        };
        if c != geo.in_channels {
            return Err(shape_err(image.dims()));
        }
        let (oh, ow) = geo.output_hw(h, width)?;
        n = n
            .checked_add(geo.output_pixels(h, width)?)
            .ok_or(TensorError::InvalidArgument("output pixel count overflows"))?;
        maps.push((oh, ow));
    }
    let Layout::Lines(w) = &w.0 else {
        return Ok(None);
    };
    if !(w.safe && w.finite && images.iter().all(|x| safe_and_finite(x.as_slice()))) {
        return Ok(None);
    }
    let patches = Patches::new(geo, images)?;
    let out = gemm_sweep(Lhs::Packed(w), Rhs::Patches(&patches), n);
    if let [(oh, ow)] = maps[..] {
        return Ok(Some(vec![Tensor::from_vec(out.into_vec(), &[m, oh, ow])?]));
    }
    // Each image's map is its own stretch of every row of the result.
    let mut off = 0;
    let split = maps.iter().map(|&(oh, ow)| {
        let pixels = oh * ow;
        let mut vals = Vec::with_capacity(m * pixels);
        for row in out.as_slice().chunks_exact(n) {
            vals.extend_from_slice(&row[off..off + pixels]);
        }
        off += pixels;
        Tensor::from_vec(vals, &[m, oh, ow])
    });
    split.collect::<Result<_>>().map(Some)
}

/// Where the sweep's right operand `B` — `a.k` rows by the result's `n`
/// columns — comes from. The sources differ only in where a panel's lines
/// are (see "Four sources of `B`" in the [module docs](self)).
#[derive(Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// A row-major matrix of `cols` columns whose column `j` lands in
    /// result column `cmap[j]`. `None` is the identity map of a dense `B`;
    /// a block-sparse `B` passes its payload and the payload → result
    /// column map, and the result columns nothing maps to keep the `+0.0`
    /// they are initialized with.
    Rows {
        values: &'a [f32],
        cols: usize,
        cmap: Option<&'a [usize]>,
    },
    /// A matrix packed once ([`Right::Reused`]), read in place.
    Packed(&'a PackedRhs),
    /// The transposed patch matrix of [`conv2d`]'s images.
    Patches(&'a Patches),
}

impl<'a> Rhs<'a> {
    /// A dense matrix: its own columns, in place.
    fn dense(b: &'a Tensor) -> Self {
        Rhs::Rows {
            values: b.as_slice(),
            cols: b.dims()[1],
            cmap: None,
        }
    }

    /// How many column panels the sweep cuts `B` into.
    fn panels(self) -> usize {
        match self {
            Rhs::Rows { cols, .. } => cols.div_ceil(NR),
            Rhs::Packed(p) => p.panels.len(),
            Rhs::Patches(p) => p.panels.len(),
        }
    }

    /// How many lanes of panel `i` the kernel computes on (at most
    /// [`NR`]); [`Rhs::runs`] says which of them it stores.
    fn width(self, i: usize) -> usize {
        match self {
            Rhs::Rows { cols, .. } => NR.min(cols - i * NR),
            Rhs::Packed(p) => p.panels[i].1,
            Rhs::Patches(p) => p.panel_width(i),
        }
    }

    /// Where panel `i`'s lanes land in the result: one run for a dense
    /// `B`; for a sparse one, one per stretch of the map that no pruned
    /// block interrupts; for patches, one per output row the panel meets.
    fn runs(self, i: usize, runs: &mut Vec<Run>) {
        runs.clear();
        let width = self.width(i);
        match self {
            Rhs::Rows { cmap: None, .. } => runs.push(Run {
                at: 0,
                col: i * NR,
                len: width,
            }),
            Rhs::Packed(p) => runs.push(Run {
                at: 0,
                col: p.panels[i].0,
                len: width,
            }),
            Rhs::Rows {
                cmap: Some(map), ..
            } => {
                let map = &map[i * NR..i * NR + width];
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
            Rhs::Patches(p) => p.runs(i, runs),
        }
    }

    /// Rows `k0..k0 + kc` of panel `i`, `w` lanes each, where the kernel
    /// reads them. A matrix is packed into `buf`, line after line (lanes
    /// past the panel's width keep whatever an earlier panel left there:
    /// the kernel computes on them and never stores them); a packed matrix
    /// and patches are read where they lie.
    fn lines<'s>(self, i: usize, k0: usize, kc: usize, w: usize, buf: &'s mut [f32]) -> Lines<'s>
    where
        'a: 's,
    {
        match self {
            Rhs::Rows { values, cols, .. } => {
                let (j0, width) = (i * NR, self.width(i));
                for (p, line) in buf.chunks_exact_mut(w).take(kc).enumerate() {
                    let row = (k0 + p) * cols + j0;
                    line[..width].copy_from_slice(&values[row..row + width]);
                }
                Lines {
                    values: buf,
                    taps: &[],
                }
            }
            Rhs::Packed(p) => Lines {
                values: &p.values()[p.starts[i] + k0 * w..],
                taps: &[],
            },
            Rhs::Patches(p) => p.lines(i, k0, kc),
        }
    }
}

/// One k-block of a panel's `B` lines as the microkernel finds them: line
/// `off` starts at `off · W` of `values` — a packed panel, lines back to
/// back — or, through a tap table, at `taps[off]`.
struct Lines<'s> {
    values: &'s [f32],
    taps: &'s [usize],
}

/// The transposed im2col matrix of [`conv2d`]'s images, never built: row
/// `(c, ky, kx)` holds that tap of every output pixel, the images' pixels
/// side by side.
///
/// Each image is copied once, zero-padded and split into its stride phases
/// ([`Phases`]), a layout in which output pixel `(oy, ox)` is *virtual
/// pixel* `oy·pitch + ox` and tap `t` of every virtual pixel `q` sits at
/// `taps[t] + q`. A panel is [`NR`] consecutive virtual pixels, so each of
/// its lines is one contiguous run of that copy: the kernel reads it in
/// place through the image's tap-offset table, and nothing is gathered.
/// The `pitch − ow` virtual pixels at the end of each row are computed on
/// and never stored.
pub(crate) struct Patches {
    images: Vec<Phases>,
    /// `(image, first virtual pixel)` of each panel.
    panels: Vec<(usize, usize)>,
}

/// One image of [`Patches`].
struct Phases {
    /// Channel `c`'s phase `(ry, rx)` is a `rows × pitch` plane whose
    /// element `[a][b]` is the zero-padded image's pixel `(s·a + ry, s·b +
    /// rx)`, for the `min(s, k)²` phases some tap reads; then [`NR`]
    /// floats of `+0.0` for the lanes a last panel computes past the end.
    values: Vec<f32>,
    /// Where tap `t`'s line for virtual pixel 0 starts in `values`.
    taps: Vec<usize>,
    /// Virtual pixels per output row: output pixel `(oy, ox)` is virtual
    /// pixel `oy · pitch + ox`.
    pitch: usize,
    /// Output height and width.
    oh: usize,
    ow: usize,
    /// The result column of the image's first output pixel.
    col: usize,
}

impl Phases {
    /// Virtual pixels up to and including the last output pixel.
    fn extent(&self) -> usize {
        (self.oh - 1) * self.pitch + self.ow
    }
}

impl Patches {
    /// The patches of `images` (already checked against `geo`).
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] if a phase-split copy's size
    /// overflows `usize`.
    fn new(geo: &Conv2dGeometry, images: &[&Tensor]) -> Result<Self> {
        let (k, s, pad) = (geo.kernel, geo.stride, geo.padding);
        let phases = s.min(k);
        let overflow = || TensorError::InvalidArgument("phase-split image size overflows");
        let mut col = 0;
        let mut split = Vec::with_capacity(images.len());
        for image in images {
            let &[c, h, w] = image.dims() else {
                unreachable!("conv2d checked every image is [C, H, W]")
            };
            let (oh, ow) = geo.output_hw(h, w)?;
            // `output_hw` checked that the padded sizes fit.
            let (rows, pitch) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
            let plane = rows.checked_mul(pitch).ok_or_else(overflow)?;
            let len = [c, phases, phases, plane]
                .into_iter()
                .try_fold(1usize, usize::checked_mul)
                .and_then(|v| v.checked_add(NR))
                .ok_or_else(overflow)?;
            let mut values = vec![0.0f32; len];
            let src = image.as_slice();
            let channels = values[..len - NR].chunks_exact_mut(phases * phases * plane);
            for (c, planes) in channels.enumerate() {
                for (phase, dst) in planes.chunks_exact_mut(plane).enumerate() {
                    let (ry, rx) = (phase / phases, phase % phases);
                    // Phase columns `b` whose padded column `s·b + rx` is
                    // inside the image.
                    let lo = pad.saturating_sub(rx).div_ceil(s);
                    let hi = (w + pad).saturating_sub(rx).div_ceil(s).max(lo);
                    for (a, dst) in dst.chunks_exact_mut(pitch).enumerate() {
                        let iy = (s * a + ry).checked_sub(pad);
                        let Some(iy) = iy.filter(|&iy| iy < h && lo < hi) else {
                            continue;
                        };
                        let row = &src[(c * h + iy) * w + s * lo + rx - pad..];
                        if s == 1 {
                            dst[lo..hi].copy_from_slice(&row[..hi - lo]);
                        } else {
                            for (d, &v) in dst[lo..hi].iter_mut().zip(row.iter().step_by(s)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
            let taps = (0..geo.patch_len())
                .map(|t| {
                    let (c, ky, kx) = (t / (k * k), t / k % k, t % k);
                    let phase = (c * phases + ky % s) * phases + kx % s;
                    phase * plane + ky / s * pitch + kx / s
                })
                .collect();
            let phases = Phases {
                values,
                taps,
                pitch,
                oh,
                ow,
                col,
            };
            col += oh * ow;
            split.push(phases);
        }
        let panels = split
            .iter()
            .enumerate()
            .flat_map(|(image, p)| (0..p.extent()).step_by(NR).map(move |q| (image, q)))
            .collect();
        Ok(Patches {
            images: split,
            panels,
        })
    }

    fn panel_width(&self, i: usize) -> usize {
        let (image, q0) = self.panels[i];
        NR.min(self.images[image].extent() - q0)
    }

    /// One run per output row that panel `i`'s virtual pixels meet.
    fn runs(&self, i: usize, runs: &mut Vec<Run>) {
        let (image, q0) = self.panels[i];
        let Phases { pitch, ow, col, .. } = self.images[image];
        let end = q0 + self.panel_width(i);
        for oy in q0 / pitch..end.div_ceil(pitch) {
            let row = oy * pitch;
            let (lo, hi) = (q0.max(row), end.min(row + ow));
            if lo < hi {
                runs.push(Run {
                    at: lo - q0,
                    col: col + oy * ow + lo - row,
                    len: hi - lo,
                });
            }
        }
    }

    /// Panel `i`'s taps `k0..k0 + kc`: its image's phase-split copy, read
    /// through the image's tap table from the panel's first virtual pixel.
    fn lines(&self, i: usize, k0: usize, kc: usize) -> Lines<'_> {
        let (image, q0) = self.panels[i];
        let phases = &self.images[image];
        Lines {
            values: &phases.values[q0..],
            taps: &phases.taps[k0..k0 + kc],
        }
    }
}

/// Where the sweep's left operand `A` — `m` rows by `k` — comes from: a
/// [`LinePack`] made once for reuse (a program constant, a convolution
/// weight), or row-major matrices read where they lie (activations,
/// multiplied once): `A`'s rows are the rows of `parts`, one part after
/// another — one part for [`matmul`], each member's rows for a group
/// [`matmul_rows`] stacks. The sweep finds a row block's k-block of lines
/// in either, and the microkernel reads a line's `MR` values from the
/// pack's interleaved line or from the block's `MR` row slices.
#[derive(Clone, Copy)]
pub(crate) enum Lhs<'a> {
    Packed(&'a LinePack),
    InPlace {
        parts: &'a [&'a [f32]],
        m: usize,
        k: usize,
    },
}

impl<'a> Lhs<'a> {
    fn dims(self) -> (usize, usize) {
        match self {
            Lhs::Packed(a) => (a.m, a.k),
            Lhs::InPlace { m, k, .. } => (m, k),
        }
    }

    /// `A`'s half of the zero-multiplying test (see "Bit-identical by
    /// construction" in the [module docs](self)): recorded by the pack, or
    /// one fold over a matrix read in place.
    fn safe(self) -> bool {
        match self {
            Lhs::Packed(a) => a.safe,
            Lhs::InPlace { parts, .. } => parts.iter().all(|part| magnitudes(part).0),
        }
    }

    /// The rows of an `A` read in place, padded to whole row blocks with
    /// `zeros` (a row of `k` zeros: the rows the microkernel finds past
    /// `m`, computed on and never stored). Empty for a pack, whose last
    /// block is padded already, and when `k` is 0.
    fn rows<'z>(self, zeros: &'z [f32]) -> Vec<&'z [f32]>
    where
        'a: 'z,
    {
        match self {
            Lhs::InPlace { parts, m, k } if k > 0 => {
                let mut rows = Vec::with_capacity(m.next_multiple_of(MR));
                rows.extend(parts.iter().flat_map(|part| part.chunks_exact(k)));
                rows.resize(m.next_multiple_of(MR), zeros);
                rows
            }
            _ => Vec::new(),
        }
    }
}

/// The one GEMM sweep behind [`matmul`], [`matmul_packed`],
/// [`crate::sparse::matmul`] and [`conv2d`]: `C = A · B` for an `A` from
/// either [`Lhs`] source and a `B` of `k` rows from any [`Rhs`] source,
/// into an `n`-wide result.
///
/// The operands decide which of the microkernel's two bodies runs, once
/// per call: the one that multiplies by `A`'s zeros whenever that is the
/// identity (see "Bit-identical by construction" in the
/// [module docs](self)), the one that branches around them otherwise.
/// Patches always take the first: [`conv2d`] checked the stronger test
/// before it swept.
pub(crate) fn gemm_sweep(a: Lhs<'_>, b: Rhs<'_>, n: usize) -> Tensor {
    let (m, k) = a.dims();
    let mut out = Tensor::zeros(&[m, n]);
    let skip = match b {
        Rhs::Rows { values, .. } => !(a.safe() && safe_and_finite(values)),
        Rhs::Packed(b) => !(a.safe() && b.safe),
        Rhs::Patches(_) => false,
    };
    let zeros = vec![0.0f32; if m % MR == 0 { 0 } else { k }];
    panel_rows(a, &a.rows(&zeros), b, out.as_mut_slice(), n, skip);
    out
}

/// Lanes of the rows kernel's widest pass: four 512-bit accumulators, so
/// one pass covers a GCN's 64 hidden features.
const RW: usize = 64;

/// `C = A · B` for a rows-packed `A` and a row-major `B` of `n` columns,
/// computed [`RW`] lanes at a time by
/// [`rows_kernel`], which reads whole 64-byte vectors of `B`'s rows: in
/// place when `n` is a whole number of vectors and `B` starts on a cache
/// line, else from one copy that does, each row padded to the next vector
/// (its extra lanes are computed on and never stored). A `B` off its cache
/// line would split every vector read across two lines — 1.8× the time on
/// a GCN's `Â · XW` — and the allocator promises 16 bytes.
fn rows_sweep(a: &RowPack, b: &[f32], n: usize) -> Tensor {
    let mut out = Tensor::zeros(&[a.m, n]);
    if n == 0 {
        return out;
    }
    let stride = n.next_multiple_of(LINE);
    let copy: Vec<f32>;
    let b = if stride == n && b.as_ptr().align_offset(LINE * 4) == 0 {
        b
    } else {
        let len = a.k * stride;
        let (mut buf, skew) = aligned(len);
        for (dst, src) in buf[skew..].chunks_exact_mut(stride).zip(b.chunks_exact(n)) {
            dst[..n].copy_from_slice(src);
        }
        copy = buf;
        &copy[skew..skew + len]
    };
    for j0 in (0..n).step_by(RW) {
        let kernel = match (stride - j0).min(RW) {
            16 => rows_kernel::<16>,
            32 => rows_kernel::<32>,
            48 => rows_kernel::<48>,
            _ => rows_kernel::<RW>,
        };
        kernel(&a.starts, &a.entries, b, stride, j0, out.as_mut_slice(), n);
    }
    out
}

/// Lanes `j0..j0 + W` of the rows of `C` that `c` holds (`n` wide; only
/// its lanes under `n` are stored), the rows' non-zeros being
/// `entries[starts[i]..starts[i + 1]]`: per row, `W` accumulators that
/// start at `+0.0` and take one fused multiply-add per `(value, k)`,
/// against row `k` of `B` (rows `stride` apart) — each element the
/// reference's own chain (see "Bit-identical by construction" in the
/// [module docs](self)). The row loop lives inside the kernel: called once
/// per row, the kernel was 1.25× slower on a GCN's `Â · HW`. Rows go two
/// at a time, their steps alternating while both have some left: the two
/// chains are independent, so one's multiply-add hides the other's
/// latency, which a narrow pass (one vector of accumulators per row, a
/// GCN's seven classes) is otherwise bound by.
fn rows_kernel<const W: usize>(
    starts: &[usize],
    entries: &[(f32, u32)],
    b: &[f32],
    stride: usize,
    j0: usize,
    c: &mut [f32],
    n: usize,
) {
    let lanes = W.min(n - j0);
    let b = &b[j0..];
    for (i, pair) in c.chunks_mut(2 * n).enumerate() {
        // A last row on its own pairs with no steps.
        let kept = |r: usize| match starts.get(2 * i + r + 1) {
            Some(&end) => &entries[starts[2 * i + r]..end],
            None => &[],
        };
        let (kept0, kept1) = (kept(0), kept(1));
        let (mut acc0, mut acc1) = ([0.0f32; W], [0.0f32; W]);
        for (&e0, &e1) in kept0.iter().zip(kept1) {
            rows_step(&mut acc0, e0, b, stride);
            rows_step(&mut acc1, e1, b, stride);
        }
        let both = kept0.len().min(kept1.len());
        for &e in &kept0[both..] {
            rows_step(&mut acc0, e, b, stride);
        }
        for &e in &kept1[both..] {
            rows_step(&mut acc1, e, b, stride);
        }
        for (crow, acc) in pair.chunks_exact_mut(n).zip([acc0, acc1]) {
            crow[j0..j0 + lanes].copy_from_slice(&acc[..lanes]);
        }
    }
}

/// One step of a row's chain in [`rows_kernel`]: its next `(value, k)`
/// times the `W` lanes of `B`'s row `k` (rows `stride` apart in `b`).
#[inline(always)]
fn rows_step<const W: usize>(acc: &mut [f32; W], (v, p): (f32, u32), b: &[f32], stride: usize) {
    let start = p as usize * stride;
    let brow: &[f32; W] = b[start..start + W].try_into().expect("B row lanes");
    for j in 0..W {
        acc[j] = v.mul_add(brow[j], acc[j]);
    }
}

/// Matrix Hadamard Product `Y = X ⊙ K + B`: [`gemm::mhp`] itself. The
/// [`Parallelism`] argument is ignored; it stays only for `benchmark/` and
/// goes with ROADMAP 12(b).
///
/// # Errors
///
/// Shape errors as in [`gemm::mhp`].
pub fn mhp(x: &Tensor, k: &Tensor, b: &Tensor, _: Parallelism) -> Result<Tensor> {
    gemm::mhp(x, k, b)
}

/// Computes `C` into `c`, `n` wide, row block by row block (the last may
/// be ragged; an in-place `a` is read from `rows`, its [`Lhs::rows`]) —
/// with `b` and `skip` as in [`gemm_sweep`].
///
/// `B` is consumed one column panel of up to [`NR`] columns at a time,
/// `KC` rows deep, BLIS-style: the panel is packed into a small contiguous buffer — unless `B` was packed
/// once already — and immediately swept by every row block, staying
/// cache-hot while in use. A panel is packed at the narrowest of 16 / 32 /
/// 48 lanes that covers it, so a narrow product (or the tail of a wide
/// one) does not pay for a `4 × 48` tile it leaves mostly empty.
fn panel_rows(a: Lhs<'_>, rows: &[&[f32]], b: Rhs<'_>, c: &mut [f32], n: usize, skip: bool) {
    let (_, k) = a.dims();
    let kblocks = k.div_ceil(KC);
    // A matrix is packed panel by panel into one buffer (a packed one and
    // patches are read where they lie), on a cache line, since the kernel
    // reads it one 64-byte vector at a time (and which residue the
    // allocator hands out varies call to call).
    let len = match b {
        Rhs::Rows { cols, .. } => KC.min(k) * lanes(cols.min(NR)),
        Rhs::Packed(_) | Rhs::Patches(_) => 0,
    };
    let (mut buf, skew) = aligned(len);
    let panel = &mut buf[skew..skew + len];
    let mut runs = Vec::new();
    for i in 0..b.panels() {
        let w = lanes(b.width(i));
        let kernel = match (a, b, skip) {
            (_, Rhs::Patches(_), _) => microkernel_for::<false, true, false>(w),
            (Lhs::Packed(_), _, false) => microkernel_for::<false, false, false>(w),
            (Lhs::Packed(_), _, true) => microkernel_for::<true, false, false>(w),
            (Lhs::InPlace { .. }, _, false) => microkernel_for::<false, false, true>(w),
            (Lhs::InPlace { .. }, _, true) => microkernel_for::<true, false, true>(w),
        };
        b.runs(i, &mut runs);
        for kb in 0..kblocks {
            let k0 = kb * KC;
            let kc = KC.min(k - k0);
            let lines = b.lines(i, k0, kc, w, panel);
            for (blk, crows) in c.chunks_mut(MR * n).enumerate() {
                // The block's k-block of `A` lines, and their k offsets.
                let mut arows: [&[f32]; MR] = [&[]; MR];
                let (alines, offs) = match a {
                    Lhs::Packed(a) => {
                        let span = blk * kblocks + kb;
                        let (lo, hi) = (a.spans[span], a.spans[span + 1]);
                        (&a.lines[lo * MR..hi * MR], &a.offs[lo..hi])
                    }
                    Lhs::InPlace { .. } => {
                        let block = &rows[blk * MR..(blk + 1) * MR];
                        arows = std::array::from_fn(|r| &block[r][k0..k0 + kc]);
                        (arows[0], &IOTA[..kc])
                    }
                };
                if !offs.is_empty() {
                    kernel(
                        alines,
                        &arows,
                        offs,
                        lines.values,
                        lines.taps,
                        crows,
                        n,
                        &runs,
                        kb > 0,
                    );
                }
            }
        }
    }
}

/// The narrowest supported microkernel width covering `width` columns
/// (at most [`PW`]; only a packed `B` has panels wider than [`NR`]).
fn lanes(width: usize) -> usize {
    match width {
        0..=16 => 16,
        17..=32 => 32,
        33..=48 => NR,
        _ => PW,
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
type Microkernel =
    fn(&[f32], &[&[f32]; MR], &[u8], &[f32], &[usize], &mut [f32], usize, &[Run], bool);

/// The instance of [`microkernel`] for a `w`-lane panel.
fn microkernel_for<const SKIP: bool, const TAPS: bool, const IN_PLACE: bool>(
    w: usize,
) -> Microkernel {
    match w {
        16 => microkernel::<16, SKIP, TAPS, IN_PLACE>,
        32 => microkernel::<32, SKIP, TAPS, IN_PLACE>,
        NR => microkernel::<NR, SKIP, TAPS, IN_PLACE>,
        _ => microkernel::<PW, SKIP, TAPS, IN_PLACE>,
    }
}

/// The register-tiled inner kernel: an `MR × W` block of `C` held in
/// accumulators across the lines of one (row block, k-block) pair of `A`
/// (`offs`: each line's k offset in the block), each multiplying the
/// `W`-lane line of `B` at that offset: of `values`, a packed panel, or —
/// if `TAPS` — through the tap table, as [`Lines`] describes. A line of
/// `A` is `MR` values side by side in `alines`, a pack's retained line,
/// or — if `IN_PLACE` — element `p` of the block's `MR` rows `arows`,
/// wherever each lies (and `offs` is `0, 1, 2, …`). (The operands travel
/// as separate arguments: passed as one `Lines`, the loop is no longer
/// vectorised.)
///
/// The block's running totals are *resumed from* `C` (if `resume`: from
/// the second k-block on — the first starts at the `+0.0` every sweep's
/// `C` is created with, without reading it) and checkpointed back to it
/// between k-blocks, so each output element experiences one
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
#[allow(clippy::too_many_arguments)]
fn microkernel<const W: usize, const SKIP: bool, const TAPS: bool, const IN_PLACE: bool>(
    alines: &[f32],
    arows: &[&[f32]; MR],
    offs: &[u8],
    values: &[f32],
    taps: &[usize],
    crows: &mut [f32],
    n: usize,
    runs: &[Run],
    resume: bool,
) {
    let mut acc = [[0.0f32; W]; MR];
    if resume {
        for (accr, crow) in acc.iter_mut().zip(crows.chunks_exact(n)) {
            for &Run { at, col, len } in runs {
                accr[at..at + len].copy_from_slice(&crow[col..col + len]);
            }
        }
    }
    // Rows sliced to the block's line count up front, so that reading line
    // `p` checks no bound. (In place, `alines` is the first row, and
    // `packed` walks it one value at a time, only to be zipped.)
    let lines = offs.len();
    let rows: [&[f32]; MR] = match IN_PLACE {
        true => std::array::from_fn(|r| &arows[r][..lines]),
        false => [&[]; MR],
    };
    let packed = alines.chunks_exact(if IN_PLACE { 1 } else { MR });
    for (p, (&off, line)) in offs.iter().zip(packed).enumerate() {
        let off = usize::from(off);
        let start = if TAPS { taps[off] } else { off * W };
        let brow: &[f32; W] = values[start..start + W].try_into().expect("panel line");
        for r in 0..MR {
            // Read where it is used, so that the load is the broadcast's
            // own operand: loaded into a register first, every broadcast
            // takes a shuffle port from the multiply-adds (0.75× speed on
            // AVX-512).
            let arp = match IN_PLACE {
                true => rows[r][p],
                false => line[r],
            };
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

    const SEQ: Parallelism = Parallelism::Sequential;

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
            assert_bit_identical(&matmul(&a, &b, SEQ).unwrap(), &reference);
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
        assert_bit_identical(&matmul(&a, &b, SEQ).unwrap(), &reference);
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
            assert_bit_identical(&matmul(&a, &b, SEQ).unwrap(), &reference);
        }
    }

    #[test]
    fn underflow_to_negative_zero_takes_the_skip_kernel() {
        // The one way an accumulator becomes -0.0: a negative product too
        // small for the smallest subnormal. Multiplying the zero of A that
        // follows would turn it into +0.0; the reference skips it. (Odd
        // rows keep that zero's line live.) In the last case only A holds
        // a value under 2^-50, so only A's half of the test can catch it.
        let tiny_a = ([-1e-30, 0.0], vec![1e-30, 1.0]);
        let tiny_b = ([-0.25, 0.0], vec![f32::from_bits(1), 1.0]);
        let only_a = ([-1e-40, 0.0], vec![1e-10, 1.0]);
        for (row, col) in [tiny_a, tiny_b, only_a] {
            let a = Tensor::from_vec([row, [1.0, 1.0]].concat().repeat(3), &[6, 2]).unwrap();
            let b = Tensor::from_vec(col, &[2, 1]).unwrap();
            let reference = gemm::matmul(&a, &b).unwrap();
            assert_eq!(reference.as_slice()[0].to_bits(), (-0.0f32).to_bits());
            assert_bit_identical(&matmul(&a, &b, SEQ).unwrap(), &reference);
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
        let line_pack = |a: &Tensor| match PackedLhs::pack_lines(a).unwrap().0 {
            Layout::Lines(lines) => lines,
            Layout::Rows(_) => unreachable!("pack_lines keeps lines"),
        };
        let packed = line_pack(&a);
        assert_eq!((packed.m, packed.k), (6, 130));
        assert_eq!(packed.spans, [0, 64, 65, 65, 66]);
        assert_eq!(packed.offs[..3], [1, 3, 5]);
        assert_eq!(packed.offs[64..], [1, 1]);
        assert_eq!(packed.lines[..4], [0.0, -1.5, 0.0, 0.0]);
        let dense = line_pack(&Tensor::from_vec(vec![1.0; 7 * 3], &[7, 3]).unwrap());
        assert_eq!(dense.offs, [0, 1, 2, 0, 1, 2]);
        assert!(line_pack(&Tensor::zeros(&[9, 5])).offs.is_empty());
        assert!(PackedLhs::pack_lines(&Tensor::zeros(&[4])).is_err());
        let b = Pcg32::seed_from_u64(8).randn(&[130, 33], 1.0);
        let packed = PackedLhs(Layout::Lines(packed));
        assert_bit_identical(
            &matmul_packed(&packed, &b).unwrap(),
            &gemm::matmul(&a, &b).unwrap(),
        );
        assert!(matmul_packed(&packed, &Tensor::zeros(&[129, 3])).is_err());
    }

    #[test]
    fn pack_keeps_rows_when_they_take_fewer_steps() {
        // Row 1 holds 65 values, row 4 a NaN and a -0.0 the reference
        // skips: 66 non-zeros against 66 kept lines of four.
        let mut a = Tensor::zeros(&[6, 130]);
        for p in (1..130).step_by(2) {
            a.as_mut_slice()[130 + p] = -1.5;
        }
        a.as_mut_slice()[4 * 130 + 129] = f32::NAN;
        a.as_mut_slice()[4 * 130 + 4] = -0.0;
        let packed = PackedLhs::pack(&a).unwrap();
        let Layout::Rows(rows) = &packed.0 else {
            panic!("66 non-zeros in 66 lines of four take rows");
        };
        assert_eq!((rows.m, rows.k), (6, 130));
        assert_eq!(rows.starts, [0, 0, 65, 65, 65, 66, 66]);
        assert_eq!(rows.entries[..2], [(-1.5, 1), (-1.5, 3)]);
        assert_eq!(rows.entries[65].1, 129);
        assert!(rows.entries[65].0.is_nan());
        let mut rng = Pcg32::seed_from_u64(8);
        for n in [0, 1, 7, 16, 33, 64, 100, 128] {
            let b = rng.randn(&[130, n], 1.0);
            assert_bit_identical(
                &matmul_packed(&packed, &b).unwrap(),
                &gemm::matmul(&a, &b).unwrap(),
            );
        }
        assert!(matmul_packed(&packed, &Tensor::zeros(&[129, 3])).is_err());
        // A dense operand, or one that is a quarter zeros, keeps lines.
        let dense = rng.randn(&[9, 20], 1.0);
        assert!(!PackedLhs::pack(&dense).unwrap().by_rows());
        let quarter = dense.map(|v| if v < -0.67 { 0.0 } else { v });
        assert!(!PackedLhs::pack(&quarter).unwrap().by_rows());
        assert!(!PackedLhs::pack(&Tensor::zeros(&[0, 3])).unwrap().by_rows());
        // A rows pack is not a convolution weight: conv2d declines it.
        let geo = Conv2dGeometry {
            in_channels: 4,
            out_channels: 6,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let w = Tensor::from_vec((0..24).map(|i| f32::from(i % 5 == 0)).collect(), &[6, 4]);
        let w = w.unwrap();
        let image = rng.randn(&[4, 3, 3], 1.0);
        let conv = |w: &PackedLhs| conv2d(w, &[&image], &geo).unwrap();
        assert!(PackedLhs::pack(&w).unwrap().by_rows());
        assert!(conv(&PackedLhs::pack(&w).unwrap()).is_none());
        assert!(conv(&PackedLhs::pack_lines(&w).unwrap()).is_some());
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
                &matmul(&a, &b, SEQ).unwrap(),
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
            assert_bit_identical(&mhp(&x, &k, &b, SEQ).unwrap(), &reference);
        }
    }

    #[test]
    fn conv2d_checks_shapes_before_values() {
        let geo = Conv2dGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let w = PackedLhs::pack(&Pcg32::seed_from_u64(9).randn(&[3, 18], 1.0)).unwrap();
        let x = Pcg32::seed_from_u64(10).randn(&[2, 5, 7], 1.0);
        let run = |images: &[&Tensor], w: &PackedLhs| conv2d(w, images, &geo);
        let maps = run(&[&x, &x], &w).unwrap().unwrap();
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].dims(), &[3, 3, 4]);
        assert_eq!(maps[0], maps[1]);
        assert!(run(&[], &w).unwrap().unwrap().is_empty());
        // Shape errors win over a declining value.
        let mut nan = Tensor::zeros(&[3, 5, 7]);
        nan.as_mut_slice()[0] = f32::NAN;
        assert!(run(&[&x, &nan], &w).is_err());
        assert!(run(&[&Tensor::zeros(&[2, 35])], &w).is_err());
        let shallow = PackedLhs::pack(&Tensor::zeros(&[3, 9])).unwrap();
        assert!(run(&[&x], &shallow).is_err());
        assert!(run(&[&x, &Tensor::zeros(&[2, 1, 1])], &w)
            .unwrap()
            .is_some());
    }

    #[test]
    fn shape_errors_propagate() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 5]);
        assert!(matmul(&a, &b, SEQ).is_err());
        assert!(mhp(&a, &b, &a, SEQ).is_err());
    }
}
