//! CPWL tables: construction, segment addressing, capping and evaluation.
//!
//! # The sweep: the host's IPF + MHP
//!
//! On the array a nonlinear function is two passes — Intermediate
//! Parameter Fetching gathers `K` and `B`, one Matrix Hadamard Product
//! computes `X ⊙ K + B`. On the host both are **one sweep over slices**
//! ([`PwlTable::eval_slice`], its in-place form and the affine-folded
//! [`PwlTable::eval_affine_slice`]): per element, index the segment,
//! gather `(k, b)`, multiply, add, store. Nothing but the output is
//! written; [`PwlTable::eval_tensor`] is "allocate the output, run the
//! sweep". The materialised form ([`PwlTable::ipf`] → [`IpfOutput`] →
//! `gemm::mhp`) is what the simulator's L3 addressing model and its
//! capped-fraction probe consume, and the reference the sweep equals bit
//! for bit.
//!
//! Two choices keep that equality while letting the compiler vectorise
//! the loop:
//!
//! * **Capping happens before the index is formed**, on the float:
//!   `floor((x − x_min) / seg_len)` is clamped to `[0, n − 1]` with
//!   `f32::max` / `f32::min` — `NaN` goes to segment 0 and `±inf` to the
//!   caps, exactly as the scalar path's saturating `as i64` then
//!   `clamp` does — and only then turned into an integer, by adding 2²³
//!   and reading the mantissa. That conversion is exact for an integral
//!   float in `[0, 2²³)`; [`PwlTableBuilder::build`] refuses tables past
//!   [`MAX_SEGMENTS`], far inside it. (A float → int `as` cast saturates,
//!   which LLVM lowers to a compare and branch per lane.)
//! * **`x * k + b` is a multiply and an add, not `mul_add`**: that is
//!   what [`PwlTable::eval`] and `gemm::mhp` compute, Rust contracts
//!   nothing, and a fused form would round once where they round twice.

use crate::{CpwlError, NonlinearFn, Result};
use onesa_tensor::fixed::QFormat;
use onesa_tensor::parallel::{self, Parallelism};
use onesa_tensor::Tensor;

/// The most segments a table can hold: the L3 data-addressing module's
/// segment address — and [`IpfOutput::segments`] — is 16 bits wide.
pub const MAX_SEGMENTS: usize = 1 << 16;

/// How segment indices are computed from inputs.
///
/// The hardware distinction matters: when the segment length is a power of
/// two, the L3 data-addressing module computes the index with a bare
/// right shift of the fixed-point input (Fig 5 of the paper); otherwise a
/// divide is required. Both paths are modelled so the accuracy sweep can
/// use the paper's non-power-of-two granularities (0.1, 0.75, 1.0 …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentIndexer {
    /// Index by arithmetic right shift; `log2_seg` is `log2(segment
    /// length)` (e.g. `-2` for granularity 0.25).
    Shift {
        /// Base-2 logarithm of the segment length.
        log2_seg: i8,
    },
    /// Index by floating-point division (non-power-of-two granularity).
    Divide {
        /// Segment length in input units.
        seg_len: f32,
    },
}

/// Result of Intermediate Parameter Fetching over a whole tensor: the
/// segment matrix `S` and the gathered parameter matrices `K` and `B`.
///
/// `Y = X ⊙ K + B` (a Matrix Hadamard Product) completes the evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct IpfOutput {
    /// Capped segment index of every element, row-major.
    pub segments: Vec<u16>,
    /// Slope matrix `K`, same shape as the input.
    pub k: Tensor,
    /// Intercept matrix `B`, same shape as the input.
    pub b: Tensor,
}

/// A capped piecewise-linear approximation of one [`NonlinearFn`].
///
/// Construct with [`PwlTable::builder`]. The table stores per-segment
/// chord parameters `k`, `b` in both `f32` and Q-format INT16, mirroring
/// the k/b buffers preloaded into the L3 buffer.
///
/// # Example
///
/// ```
/// use onesa_cpwl::{NonlinearFn, PwlTable};
///
/// let t = PwlTable::builder(NonlinearFn::Tanh).granularity(0.5).build()?;
/// assert_eq!(t.n_segments(), 16); // range [-4, 4] at 0.5
/// // Inside the range the chord error is small …
/// assert!((t.eval(0.3) - 0.3f32.tanh()).abs() < 0.05);
/// // … and moderately outside the range the capped boundary chord keeps
/// // tracking the saturated asymptote (it extrapolates linearly, so very
/// // distant inputs do drift — that is the "capped" trade-off).
/// assert!((t.eval(6.0) - 1.0).abs() < 0.05);
/// # Ok::<(), onesa_cpwl::CpwlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PwlTable {
    func: NonlinearFn,
    x_min: f32,
    x_max: f32,
    seg_len: f32,
    indexer: SegmentIndexer,
    k: Vec<f32>,
    b: Vec<f32>,
    qformat: QFormat,
    k_q: Vec<i16>,
    b_q: Vec<i16>,
    x_min_q: i16,
}

impl PwlTable {
    /// Starts building a table for `func`.
    pub fn builder(func: NonlinearFn) -> PwlTableBuilder {
        PwlTableBuilder {
            func,
            granularity: 0.25,
            range: None,
            max_segments: 4096,
        }
    }

    /// The approximated function.
    pub(crate) fn func(&self) -> NonlinearFn {
        self.func
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.k.len()
    }

    /// Segment length (the paper's "approximation granularity").
    pub fn granularity(&self) -> f32 {
        self.seg_len
    }

    /// Approximation range `[lo, hi]`.
    pub fn range(&self) -> (f32, f32) {
        (self.x_min, self.x_max)
    }

    /// The segment indexing scheme in use.
    pub fn indexer(&self) -> SegmentIndexer {
        self.indexer
    }

    /// The Q-format of the INT16 parameter copies.
    pub fn qformat(&self) -> QFormat {
        self.qformat
    }

    /// Bytes of parameter storage at INT16 precision (`k` and `b` per
    /// segment), i.e. the L3 preload footprint.
    pub fn table_bytes(&self) -> usize {
        self.n_segments() * 2 * std::mem::size_of::<i16>()
    }

    /// Uncapped segment index — what the data-shift module produces before
    /// the scale module intervenes. Negative below the range.
    pub(crate) fn raw_segment_index(&self, x: f32) -> i64 {
        ((x - self.x_min) / self.seg_len).floor() as i64
    }

    /// Capped segment index: `s = max(min(s, s_max), s_min)` exactly as
    /// the paper's scale module computes it.
    pub fn segment_index(&self, x: f32) -> usize {
        let raw = self.raw_segment_index(x);
        raw.clamp(0, self.n_segments() as i64 - 1) as usize
    }

    /// Capped segment index of a fixed-point input, taking the shift path
    /// when the granularity allows it.
    pub fn segment_index_q(&self, x_q: i16) -> usize {
        let raw = match self.indexer {
            SegmentIndexer::Shift { log2_seg } => {
                self.qformat.segment_shift(x_q, self.x_min_q, log2_seg) as i64
            }
            SegmentIndexer::Divide { seg_len } => {
                ((self.qformat.to_f32(x_q) - self.x_min) / seg_len).floor() as i64
            }
        };
        raw.clamp(0, self.n_segments() as i64 - 1) as usize
    }

    /// Chord parameters `(k, b)` of segment `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn params(&self, s: usize) -> (f32, f32) {
        (self.k[s], self.b[s])
    }

    /// Evaluates the approximation at `x` (float path).
    pub fn eval(&self, x: f32) -> f32 {
        let s = self.segment_index(x);
        self.k[s] * x + self.b[s]
    }

    /// Evaluates the approximation on the full INT16 path: shift-indexed
    /// segment, quantized parameters, MAC with saturation — bit-equivalent
    /// to what the array computes.
    pub fn eval_q(&self, x_q: i16) -> i16 {
        let s = self.segment_index_q(x_q);
        self.qformat.mac(self.k_q[s], x_q, self.b_q[s])
    }

    /// Runs Intermediate Parameter Fetching over a tensor: produces the
    /// segment matrix and gathers `K` and `B`.
    pub fn ipf(&self, x: &Tensor) -> IpfOutput {
        let mut segments = Vec::with_capacity(x.len());
        let mut k = Vec::with_capacity(x.len());
        let mut b = Vec::with_capacity(x.len());
        for &v in x.iter() {
            let s = self.segment_index(v);
            segments.push(s as u16);
            k.push(self.k[s]);
            b.push(self.b[s]);
        }
        IpfOutput {
            segments,
            k: Tensor::from_vec(k, x.dims()).expect("shape preserved"),
            b: Tensor::from_vec(b, x.dims()).expect("shape preserved"),
        }
    }

    /// Full three-step evaluation of a tensor — IPF then MHP, as one
    /// fused sweep on the calling thread. Bit-identical to
    /// `gemm::mhp(x, &ipf.k, &ipf.b)` over [`PwlTable::ipf`]'s output.
    ///
    /// # Errors
    ///
    /// None today; the `Result` is the signature callers compiled against.
    pub fn eval_tensor(&self, x: &Tensor) -> Result<Tensor> {
        Ok(self.eval_tensor_par(x, Parallelism::Sequential))
    }

    /// [`PwlTable::eval_tensor`] split across `par`'s workers where
    /// `parallel::mhp` splits (see [`parallel::for_each_chunk`]);
    /// bit-identical to it under every setting.
    pub fn eval_tensor_par(&self, x: &Tensor, par: Parallelism) -> Tensor {
        let mut out = Tensor::zeros(x.dims());
        let xv = x.as_slice();
        parallel::for_each_chunk(out.as_mut_slice(), par, |lo, chunk| {
            self.eval_slice(&xv[lo..lo + chunk.len()], chunk);
        });
        out
    }

    /// The fused sweep — the host's IPF + MHP in one pass:
    /// `out[i] = x[i] * k[s] + b[s]` with `s` the capped segment of
    /// `x[i]`, a multiply and an add as in `gemm::mhp` (never `mul_add`),
    /// bit-identical to the materialised [`PwlTable::ipf`] → `gemm::mhp`
    /// pair for every input, `NaN` and infinities included.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub(crate) fn eval_slice(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "sweep input and output lengths");
        let lanes = Lanes::of(self);
        for (o, &v) in out.iter_mut().zip(x) {
            let (k, b) = lanes.fetch(v);
            *o = v * k + b;
        }
    }

    /// The fused sweep (IPF + MHP in one pass) over `x`, in place.
    pub fn eval_in_place(&self, x: &mut [f32]) {
        let lanes = Lanes::of(self);
        for v in x {
            let (k, b) = lanes.fetch(*v);
            *v = *v * k + b;
        }
    }

    /// The sweep behind an affine map: evaluates `f(kc·x + bc)` as one
    /// MHP over `x` itself — the segment is indexed on `kc·x + bc` and
    /// `(kc, bc)` are folded into the fetched pair, `k' = k·kc`,
    /// `b' = b + k·bc`, `out = x·k' + b'`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn eval_affine_slice(&self, kc: f32, bc: f32, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), out.len(), "sweep input and output lengths");
        let lanes = Lanes::of(self);
        for (o, &v) in out.iter_mut().zip(x) {
            let (k, b) = lanes.fetch(v * kc + bc);
            *o = v * (k * kc) + (b + k * bc);
        }
    }
}

/// What one lane of the sweep reads, borrowed from the table once per
/// call so the loop body indexes two equal-length slices and nothing else.
struct Lanes<'t> {
    k: &'t [f32],
    b: &'t [f32],
    x_min: f32,
    seg_len: f32,
}

impl<'t> Lanes<'t> {
    fn of(table: &'t PwlTable) -> Self {
        // What makes `fetch`'s `s.min(top)` an in-bounds index in the
        // compiler's eyes too: the loop vectorises only without the check.
        assert!(!table.k.is_empty(), "a built table has a segment");
        Lanes {
            k: &table.k,
            b: &table.b[..table.k.len()],
            x_min: table.x_min,
            seg_len: table.seg_len,
        }
    }

    /// `(k, b)` of the capped segment `t` falls in — IPF for one element,
    /// branch-free: the same index [`PwlTable::segment_index`] returns.
    #[inline(always)]
    fn fetch(&self, t: f32) -> (f32, f32) {
        let top = self.k.len() - 1;
        let capped = ((t - self.x_min) / self.seg_len)
            .floor()
            .max(0.0)
            .min(top as f32);
        // An integral float in [0, 2²³) plus 2²³ has itself as mantissa.
        let s = ((capped + 8_388_608.0).to_bits() & 0x007f_ffff) as usize;
        // No-op on the value; lets the compiler drop both bounds checks.
        let s = s.min(top);
        (self.k[s], self.b[s])
    }
}

/// Builder for [`PwlTable`] (see [`PwlTable::builder`]).
#[derive(Debug, Clone)]
pub struct PwlTableBuilder {
    func: NonlinearFn,
    granularity: f32,
    range: Option<(f32, f32)>,
    max_segments: usize,
}

impl PwlTableBuilder {
    /// Sets the segment length (default 0.25, the paper's default
    /// setting).
    pub fn granularity(mut self, g: f32) -> Self {
        self.granularity = g;
        self
    }

    /// Overrides the approximation range (default: the function's own
    /// default range).
    pub fn range(mut self, lo: f32, hi: f32) -> Self {
        self.range = Some((lo, hi));
        self
    }

    /// Caps the number of segments (models the finite L3 k/b buffers;
    /// default 4096). Whatever is asked, [`MAX_SEGMENTS`] is the ceiling.
    pub fn max_segments(mut self, cap: usize) -> Self {
        self.max_segments = cap;
        self
    }

    /// Builds the table by sampling the function at segment endpoints.
    ///
    /// # Errors
    ///
    /// * [`CpwlError::InvalidGranularity`] for non-positive granularity,
    /// * [`CpwlError::InvalidRange`] for an empty range,
    /// * [`CpwlError::TooManySegments`] when the range/granularity imply
    ///   more segments than the cap, or than [`MAX_SEGMENTS`],
    /// * [`CpwlError::NonFiniteSample`] if the function is singular inside
    ///   the range.
    pub fn build(self) -> Result<PwlTable> {
        let g = self.granularity;
        if !(g.is_finite() && g > 0.0) {
            return Err(CpwlError::InvalidGranularity(g));
        }
        let (lo, hi) = self.range.unwrap_or_else(|| self.func.default_range());
        if lo >= hi || !lo.is_finite() || !hi.is_finite() {
            return Err(CpwlError::InvalidRange { lo, hi });
        }
        let n = (((hi - lo) / g).round() as usize).max(1);
        let cap = self.max_segments.min(MAX_SEGMENTS);
        if n > cap {
            return Err(CpwlError::TooManySegments { requested: n, cap });
        }
        let mut k = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for s in 0..n {
            let x0 = lo + s as f32 * g;
            let x1 = x0 + g;
            let y0 = self.func.eval(x0);
            let y1 = self.func.eval(x1);
            if !y0.is_finite() {
                return Err(CpwlError::NonFiniteSample { x: x0 });
            }
            if !y1.is_finite() {
                return Err(CpwlError::NonFiniteSample { x: x1 });
            }
            let slope = (y1 - y0) / g;
            k.push(slope);
            b.push(y0 - slope * x0);
        }
        let qformat = QFormat::default();
        let indexer = match pow2_log(g) {
            Some(log2_seg) if qformat.frac_bits() as i32 + log2_seg as i32 >= 0 => {
                SegmentIndexer::Shift { log2_seg }
            }
            _ => SegmentIndexer::Divide { seg_len: g },
        };
        let k_q = k.iter().map(|&v| qformat.from_f32(v)).collect();
        let b_q = b.iter().map(|&v| qformat.from_f32(v)).collect();
        let x_min_q = qformat.from_f32(lo);
        Ok(PwlTable {
            func: self.func,
            x_min: lo,
            x_max: hi,
            seg_len: g,
            indexer,
            k,
            b,
            qformat,
            k_q,
            b_q,
            x_min_q,
        })
    }
}

/// Returns `Some(log2(g))` when `g` is an exact power of two within f32.
fn pow2_log(g: f32) -> Option<i8> {
    let log = g.log2();
    let rounded = log.round();
    if (log - rounded).abs() < 1e-6 && (-14.0..=14.0).contains(&rounded) {
        let candidate = rounded as i8;
        // Confirm exactness to avoid misclassifying 0.1 etc.
        if (2.0f32.powi(candidate as i32) - g).abs() <= f32::EPSILON * g.abs() {
            return Some(candidate);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gelu_table(g: f32) -> PwlTable {
        PwlTable::builder(NonlinearFn::Gelu)
            .granularity(g)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            PwlTable::builder(NonlinearFn::Gelu)
                .granularity(0.0)
                .build(),
            Err(CpwlError::InvalidGranularity(_))
        ));
        assert!(matches!(
            PwlTable::builder(NonlinearFn::Gelu).range(1.0, 1.0).build(),
            Err(CpwlError::InvalidRange { .. })
        ));
        assert!(matches!(
            PwlTable::builder(NonlinearFn::Gelu)
                .granularity(0.001)
                .max_segments(10)
                .build(),
            Err(CpwlError::TooManySegments { .. })
        ));
        assert!(matches!(
            PwlTable::builder(NonlinearFn::Reciprocal)
                .range(-1.0, 1.0)
                .build(),
            Err(CpwlError::NonFiniteSample { .. })
        ));
    }

    #[test]
    fn segment_count_matches_range() {
        let t = gelu_table(0.25);
        assert_eq!(t.n_segments(), 32); // [-4, 4] / 0.25
        assert_eq!(t.range(), (-4.0, 4.0));
        let t = PwlTable::builder(NonlinearFn::Gelu)
            .granularity(0.1)
            .build()
            .unwrap();
        assert_eq!(t.n_segments(), 80);
    }

    #[test]
    fn pow2_granularity_selects_shift_indexer() {
        assert!(matches!(
            gelu_table(0.25).indexer(),
            SegmentIndexer::Shift { log2_seg: -2 }
        ));
        assert!(matches!(
            gelu_table(0.5).indexer(),
            SegmentIndexer::Shift { log2_seg: -1 }
        ));
        assert!(matches!(
            gelu_table(1.0).indexer(),
            SegmentIndexer::Shift { log2_seg: 0 }
        ));
        assert!(matches!(
            gelu_table(0.1).indexer(),
            SegmentIndexer::Divide { .. }
        ));
        assert!(matches!(
            gelu_table(0.75).indexer(),
            SegmentIndexer::Divide { .. }
        ));
    }

    #[test]
    fn capping_below_and_above() {
        let t = gelu_table(0.25);
        assert_eq!(t.segment_index(-100.0), 0);
        assert_eq!(t.segment_index(100.0), t.n_segments() - 1);
        assert!(t.raw_segment_index(-100.0) < 0);
        // Above range GELU extrapolates ≈ identity.
        assert!((t.eval(10.0) - 10.0).abs() < 0.05);
        // Below range ≈ 0.
        assert!(t.eval(-10.0).abs() < 0.1);
    }

    #[test]
    fn chord_is_exact_at_endpoints() {
        let t = gelu_table(0.25);
        for s in 0..t.n_segments() {
            let x0 = -4.0 + s as f32 * 0.25;
            let exact = NonlinearFn::Gelu.eval(x0);
            assert!((t.eval(x0) - exact).abs() < 1e-5, "segment {s}");
        }
    }

    #[test]
    fn error_shrinks_with_granularity() {
        let coarse = gelu_table(1.0);
        let fine = gelu_table(0.125);
        let mut worst_coarse = 0.0f32;
        let mut worst_fine = 0.0f32;
        let mut x = -4.0f32;
        while x < 4.0 {
            let exact = NonlinearFn::Gelu.eval(x);
            worst_coarse = worst_coarse.max((coarse.eval(x) - exact).abs());
            worst_fine = worst_fine.max((fine.eval(x) - exact).abs());
            x += 0.01;
        }
        assert!(
            worst_fine < worst_coarse / 4.0,
            "{worst_fine} vs {worst_coarse}"
        );
    }

    #[test]
    fn quantized_path_matches_float_path() {
        let t = gelu_table(0.25);
        let q = t.qformat();
        let mut x = -6.0f32;
        while x < 6.0 {
            let xq = q.from_f32(x);
            let yq = t.eval_q(xq);
            let yf = t.eval(q.to_f32(xq));
            assert!(
                (q.to_f32(yq) - yf).abs() < 0.02,
                "x={x} quantized {} float {yf}",
                q.to_f32(yq)
            );
            x += 0.0371;
        }
    }

    #[test]
    fn shift_and_divide_agree_on_pow2() {
        let t = gelu_table(0.25);
        let q = t.qformat();
        let mut x = -5.0f32;
        while x < 5.0 {
            let xq = q.from_f32(x);
            let via_q = t.segment_index_q(xq);
            let via_f = t.segment_index(q.to_f32(xq));
            assert_eq!(via_q, via_f, "x = {x}");
            x += 0.013;
        }
    }

    #[test]
    fn ipf_plus_mhp_equals_eval() {
        let t = gelu_table(0.25);
        let x = Tensor::from_vec(vec![-5.0, -1.3, 0.0, 0.7, 2.2, 9.0], &[2, 3]).unwrap();
        let y = t.eval_tensor(&x).unwrap();
        for (i, &v) in x.as_slice().iter().enumerate() {
            assert_eq!(y.as_slice()[i], t.eval(v));
        }
        let ipf = t.ipf(&x);
        assert_eq!(ipf.segments[0], 0); // capped below
        assert_eq!(ipf.segments[5], (t.n_segments() - 1) as u16); // capped above
        assert_eq!(ipf.k.dims(), x.dims());
    }

    #[test]
    fn relu_is_exact_under_cpwl() {
        // ReLU is piecewise linear with a knee at 0; any power-of-two
        // granularity places a segment boundary at 0, so CPWL is exact.
        let t = PwlTable::builder(NonlinearFn::Relu)
            .granularity(0.5)
            .build()
            .unwrap();
        for x in [-3.0f32, -0.25, 0.0, 0.25, 3.0] {
            assert_eq!(t.eval(x), x.max(0.0), "x = {x}");
        }
    }

    #[test]
    fn table_bytes_scale_with_segments() {
        let t = gelu_table(0.25);
        assert_eq!(t.table_bytes(), 32 * 4);
    }
}
