//! Hand-rolled binary **wire format** for shipping programs between
//! processes: the serialization layer under `onesa-core`'s cross-host
//! serving transport.
//!
//! The repository builds with no network access, so there is no serde,
//! no bincode. The format is designed around two constraints:
//!
//! * **Bit-identicality.** `f32` payloads travel as little-endian
//!   [`f32::to_bits`] words, so a decoded tensor is bit-identical to the
//!   encoded one — the same `to_bits()` contract the rest of the
//!   repository tests against (NaN payloads and signed zeros included).
//! * **Versioned framing.** Every frame starts with a 4-byte magic, the
//!   format version and a kind. Host and worker are always one build, so
//!   a reader accepts exactly [`VERSION`]. Other versions and malformed
//!   frames surface as a typed [`WireError`], never a panic.
//!
//! # Frame layout
//!
//! ```text
//! magic "OSAW" (4) | version u16 | kind u16 | body
//! ```
//!
//! All integers are little-endian. `kind` identifies the body
//! (`0x0001` a tensor, `0x0002` a program; `onesa-core`'s transport claims
//! kinds ≥ `0x0100` for its protocol messages), and the body is the
//! kind's values in their [`Wire`] layouts, back to back, to the last
//! byte: [`frame`] writes the header and [`open`] checks it. A decoder
//! reads its values and then [`WireReader::expect_end`], so a frame
//! with bytes left over is corrupt.
//!
//! # The schema: each layout written once
//!
//! Every value on the wire implements [`Wire`]: [`Wire::put`] writes it
//! into a [`WireSink`] and [`Wire::get`] reads it back off a
//! [`WireReader`]. Primitives, `Option<T>`, length-prefixed `Vec<T>`,
//! [`Tensor`] and [`Program`] (with all of its constants) implement it
//! here by hand. Every other
//! layout — every
//! [`Op`] with its tag, [`NonlinearFn`], [`EvalMode`], [`ArrayConfig`],
//! [`ExecStats`], the optimizer report, the transport's window reply —
//! is one line of a [`wire_layout!`](crate::wire_layout) table, which
//! generates both directions. The encoder and the decoder cannot
//! disagree about a layout, because there is only one.
//!
//! The same encoding is the program fingerprint and keys the optimizer's
//! common-subexpression pass and the staged scheduler's groups, so
//! "equal" there means equal on the wire, NaN payloads included.
//!
//! # Programs on the wire
//!
//! A program's one layout (the [`Wire`] impl for [`Program`]) names each
//! constant by its key, its [`crate::tensor_fingerprint`], and is followed
//! by the bytes of only those constants its reader lacks
//! ([`WireSink::lacks`]), each beside its key. A reader
//! ([`get_program`]) files what arrives in a store of constants by key and
//! resolves the layout against it. [`encode_program`] carries every one of
//! the program's own constants, so its frame stands alone; the cross-host
//! transport's window carries only the constants the worker does not yet
//! hold, so a weight crosses each connection once, whatever program or
//! shape it next serves in.
//!
//! Decoding reconstructs through [`ProgramBuilder`][crate::ProgramBuilder],
//! so every decoded program re-runs the same validation and fingerprinting
//! as a locally-built one; the recomputed fingerprint must equal the
//! recorded one, and each carried constant must hash to its key, or
//! decoding fails with [`WireError::FingerprintMismatch`]. A flipped
//! weight bit, a reordered op, a truncated const — anything that survives
//! the structural checks still trips a fingerprint.
//!
//! ```
//! use onesa_plan::{wire, EvalMode, Op, Program};
//!
//! let mut b = Program::builder("demo", EvalMode::Exact);
//! let x = b.input(&[1, 4]);
//! b.push(Op::Softmax, &[x]);
//! let program = b.finish()?;
//!
//! let bytes = wire::encode_program(&program);
//! let back = wire::decode_program(&bytes).expect("round trip");
//! assert_eq!(back, program);
//! assert_eq!(back.fingerprint(), program.fingerprint());
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use onesa_cpwl::NonlinearFn;
use onesa_sim::{ArrayConfig, BufferSizes, CycleBreakdown, ExecStats, ParamStaging};
use onesa_tensor::im2col::Conv2dGeometry;
use onesa_tensor::{Tensor, TensorError};

use crate::exec::StageGroups;
use crate::opt::{OptLevel, OptReport, OptTotals};
use crate::program::{EvalMode, GemmSparsity, Op, OpNode, Operand, PoolKind, Precision, Program};

/// Leading 4 bytes of every frame.
pub(crate) const MAGIC: [u8; 4] = *b"OSAW";

/// The format version. A reader accepts exactly this version and
/// rejects every other one with [`WireError::UnsupportedVersion`]:
/// host and worker are always the same build (the worker is spawned
/// from the tree) and nothing persists frames. Any layout change bumps
/// it.
///
/// * v1 — initial format.
/// * v2 — sparse-GEMM attribute (op tag 20), INT8 quantize boundary
///   (op tag 21), `prune-pack` pass stats and the `pruned` counter in
///   the optimizer-report tail.
/// * v3 — one tag per op: `Gemm` (tag 0) sends its optional sparsity
///   attribute and `Quantize` (tag 14) its [`Precision`]; tags 15
///   (`Embed`, now `EmbedAt { offset: 0 }`), 20 and 21 are gone. The
///   program fingerprint hashes this encoding.
/// * v4 — a frame is its header and one body: the section table is gone,
///   a tensor frame's body is the inline [`Tensor`] layout, a program
///   frame's the [`Program`] layout (session lists always present, empty
///   for a stateless program), and the transport's window carries a
///   full program inline instead of a nested frame.
/// * v5 — one optimizer level and a report of what the program cannot
///   tell: [`OptLevel`] loses tag 2 (`Fusion`); [`OptReport`] is
///   `{ level, ops_before, totals }` (the pass list, the op count after
///   and both MAC counts are gone) and [`OptTotals`] is
///   `{ shared, pruned, dead }`.
/// * v6 — attention is one op: [`Op`] gains `Attention { heads, scale,
///   causal }` (tag 22; the retired tags 20 and 21 stay unused) and loses
///   `ConcatCols` (tag 12).
/// * v7 — the op set is the emitted set: [`Op`] loses `Scale` (tag 8),
///   `Transpose` (tag 10) and `SliceCols` (tag 11) and gains `SliceRows
///   { start, len }` (tag 23); the transport's outcome loses its per-op
///   stats and its report the optimizer and sparse-block totals.
/// * v8 — no layout change; the fingerprint a program frame records is
///   the new hash: a constant's [`crate::tensor_fingerprint`] runs 64
///   independent lanes and the encoding's hash takes one FNV-1a step per
///   byte.
/// * v9 — a program names its constants by key and is followed by the
///   `(key, tensor)` pairs its reader lacks ([`WireSink::lacks`]); the
///   transport's request is that program and its inputs (the full / ref
///   request tags are gone).
/// * v10 — the transport's Configure message loses its host-execution
///   policy (`Parallelism`, whose schema is gone): every kernel runs on
///   the calling thread.
pub const VERSION: u16 = 10;

/// Frame kind: a standalone tensor ([`encode_tensor`]).
pub(crate) const KIND_TENSOR: u16 = 0x0001;
/// Frame kind: a whole program ([`encode_program`]).
pub(crate) const KIND_PROGRAM: u16 = 0x0002;

/// Hard cap on the length of any sequence but an `f32` run (whose
/// bytes bound it one for one): a corrupt count cannot make a decoder
/// allocate much more than the bytes it was handed.
const MAX_SEQ: usize = 1 << 20;

/// Everything that can go wrong while decoding wire bytes. Decoding
/// never panics on malformed input; it returns one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The first four bytes are not the magic `"OSAW"`.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The frame's format version is not the one this build reads.
    UnsupportedVersion {
        /// Version recorded in the frame.
        found: u16,
        /// The one version this build reads ([`VERSION`]).
        supported: u16,
    },
    /// The buffer ended before a read completed, or holds fewer bytes
    /// than a sequence's count says follow.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Structurally invalid bytes (bad tag, bad length, bad UTF-8, …).
    Corrupt(&'static str),
    /// A decoded program's recomputed fingerprint differs from the one
    /// recorded on the wire, or a constant's bytes do not hash to the key
    /// they came under — content corruption that survived the structural
    /// checks.
    FingerprintMismatch {
        /// Fingerprint recorded in the frame.
        recorded: u64,
        /// Fingerprint recomputed from the decoded content.
        computed: u64,
    },
    /// The decoded value failed semantic validation (e.g. a program
    /// whose ops do not type-check).
    Rejected(TensorError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported wire format version {found} (this build reads {supported})"
            ),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::FingerprintMismatch { recorded, computed } => write!(
                f,
                "fingerprint mismatch: wire records {recorded:#018x}, \
                 decoded content hashes to {computed:#018x}"
            ),
            WireError::Rejected(e) => write!(f, "decoded value rejected: {e}"),
        }
    }
}

impl Error for WireError {}

impl From<TensorError> for WireError {
    fn from(e: TensorError) -> Self {
        WireError::Rejected(e)
    }
}

/// Wire-level result.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// The Wire trait
// ---------------------------------------------------------------------------

/// Where [`Wire::put`] writes: a frame body (`Vec<u8>`), or anything
/// else that consumes bytes in order — the program fingerprint and the
/// staged scheduler hash an encoding without storing it, and the
/// cross-host transport's window knows which constants its reader holds.
pub trait WireSink {
    /// Appends `bytes`.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Announces that about `additional` more bytes follow.
    fn reserve(&mut self, _additional: usize) {}

    /// Whether this sink's reader lacks constant `t`, keyed `key`: a
    /// [`Program`] asks once per constant it names, in order, and carries
    /// the bytes of each one the answer is yes for. By default a reader
    /// holds nothing, so a program's frame stands alone.
    fn lacks(&mut self, _key: u64, _t: &Tensor) -> bool {
        true
    }
}

// `#[inline]`: every `put` is generic over its sink, so it is compiled in
// the caller's crate, and without the attribute each field it writes is
// an out-of-line call back into this one.
impl WireSink for Vec<u8> {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

/// A value with one wire layout, from which both directions follow.
///
/// Implemented by hand for primitives (little-endian; `usize` travels
/// as a `u64`, `bool` as one strict byte, floats as bit patterns),
/// `Option<T>` (a `0`/`1` byte, then the value), `Vec<T>` (a `usize`
/// count, then the items), [`Tensor`] and [`Program`]; every other
/// layout is a
/// [`wire_layout!`](crate::wire_layout) table.
pub trait Wire: Sized {
    /// Fewest bytes any value of the type occupies on the wire — what
    /// lets a sequence decoder reject an impossible count before it
    /// allocates.
    const MIN_LEN: usize;

    /// The tag bytes an enum layout assigns, in table order (empty for
    /// every other layout): what a test walks to cover every tag.
    const TAGS: &'static [u8] = &[];

    /// Writes the value.
    fn put(&self, w: &mut impl WireSink);

    /// Reads a value written by [`Wire::put`].
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] on malformed bytes, never a panic.
    fn get(r: &mut WireReader<'_>) -> WireResult<Self>;

    /// Writes `items` as a `Vec<Self>`: the count, then each item.
    fn put_seq(items: &[Self], w: &mut impl WireSink) {
        items.len().put(w);
        for item in items {
            item.put(w);
        }
    }

    /// Reads what [`Wire::put_seq`] wrote. The count is checked against
    /// the remaining bytes ([`WireReader::get_len`]) before anything is
    /// allocated.
    ///
    /// # Errors
    ///
    /// As for [`Wire::get`].
    fn get_seq(r: &mut WireReader<'_>) -> WireResult<Vec<Self>> {
        let n = r.get_len(Self::MIN_LEN)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(r)?);
        }
        Ok(out)
    }
}

/// Reads a frame body front to back. Every read checks bounds and
/// returns [`WireError::Truncated`] rather than panicking.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf` starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the reader consumed its buffer exactly — trailing
    /// garbage is treated as corruption, not silently ignored.
    pub fn expect_end(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes after value"))
        }
    }

    /// Reads `n` raw bytes, borrowed (a string's bytes, an `f32` run).
    pub(crate) fn get_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a sequence count and rejects one the remaining bytes cannot
    /// hold at `min_len` bytes per item ([`WireError::Truncated`]), or
    /// one above the sequence cap ([`WireError::Corrupt`]) — before the
    /// caller allocates for it.
    pub fn get_len(&mut self, min_len: usize) -> WireResult<usize> {
        let n = usize::get(self)?;
        if n > MAX_SEQ {
            return Err(WireError::Corrupt("sequence count exceeds cap"));
        }
        let needed = n * min_len.max(1);
        if needed > self.remaining() {
            return Err(WireError::Truncated {
                needed,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.get_bytes(N)?);
        Ok(out)
    }
}

macro_rules! little_endian {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut impl WireSink) {
                w.put_bytes(&self.to_le_bytes());
            }

            fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

// `f64::from_le_bytes` is `from_bits`: NaN payloads survive.
little_endian!(u8, u16, u32, u64, f64);

/// The wire has one integer width: a `usize` travels as a `u64`, and
/// one the host cannot hold is corruption.
impl Wire for usize {
    const MIN_LEN: usize = 8;

    fn put(&self, w: &mut impl WireSink) {
        (*self as u64).put(w);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        usize::try_from(u64::get(r)?).map_err(|_| WireError::Corrupt("length exceeds usize"))
    }
}

impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put(&self, w: &mut impl WireSink) {
        u8::from(*self).put(w);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool byte is neither 0 nor 1")),
        }
    }
}

/// Bit patterns, NaN payloads and signed zeros included. A run of them
/// (every `Vec<f32>`, every tensor's elements) is one reserve on the
/// way out and one length check on the way in.
impl Wire for f32 {
    const MIN_LEN: usize = 4;

    fn put(&self, w: &mut impl WireSink) {
        self.to_bits().put(w);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        Ok(f32::from_le_bytes(r.array()?))
    }

    fn put_seq(items: &[f32], w: &mut impl WireSink) {
        items.len().put(w);
        put_f32_run(items, w);
    }

    fn get_seq(r: &mut WireReader<'_>) -> WireResult<Vec<f32>> {
        let n = usize::get(r)?;
        let bytes = n
            .checked_mul(4)
            .ok_or(WireError::Corrupt("f32 run length overflows"))?;
        Ok(f32_run(r.get_bytes(bytes)?))
    }
}

fn put_f32_run(vs: &[f32], w: &mut impl WireSink) {
    w.reserve(vs.len() * 4);
    // A stack block at a time: the conversion is a straight copy the
    // compiler vectorises, and the sink sees one call per 64 values
    // instead of one capacity check per value.
    let mut block = [0u8; 256];
    for run in vs.chunks(64) {
        for (b, v) in block.chunks_exact_mut(4).zip(run) {
            b.copy_from_slice(&v.to_bits().to_le_bytes());
        }
        w.put_bytes(&block[..4 * run.len()]);
    }
}

fn f32_run(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn put_str(s: &str, w: &mut impl WireSink) {
    s.len().put(w);
    w.put_bytes(s.as_bytes());
}

impl Wire for String {
    const MIN_LEN: usize = 8;

    fn put(&self, w: &mut impl WireSink) {
        put_str(self, w);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let n = usize::get(r)?;
        String::from_utf8(r.get_bytes(n)?.to_vec())
            .map_err(|_| WireError::Corrupt("string is not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, w: &mut impl WireSink) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError::Corrupt("unknown Option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 8;

    fn put(&self, w: &mut impl WireSink) {
        T::put_seq(self, w);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        T::get_seq(r)
    }
}

/// Dims as a `u32` rank (at most 8) and one `usize` per axis.
fn put_dims(dims: &[usize], w: &mut impl WireSink) {
    (dims.len() as u32).put(w);
    for d in dims {
        d.put(w);
    }
}

/// Reads [`put_dims`]' layout, rejecting a rank above 8 and a volume
/// that overflows `usize`.
fn get_dims(r: &mut WireReader<'_>) -> WireResult<Vec<usize>> {
    let rank = u32::get(r)?;
    if rank > 8 {
        return Err(WireError::Corrupt("rank exceeds 8"));
    }
    let dims = (0..rank)
        .map(|_| usize::get(r))
        .collect::<WireResult<Vec<usize>>>()?;
    dims.iter()
        .try_fold(1usize, |v, &d| v.checked_mul(d))
        .ok_or(WireError::Corrupt("tensor volume overflows"))?;
    Ok(dims)
}

/// A tensor inline: its dims, then its elements as one `f32` run,
/// checked against the dims product.
impl Wire for Tensor {
    const MIN_LEN: usize = 4 + 8;

    fn put(&self, w: &mut impl WireSink) {
        put_dims(self.dims(), w);
        f32::put_seq(self.as_slice(), w);
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        let dims = get_dims(r)?;
        Tensor::from_vec(Vec::get(r)?, &dims).map_err(WireError::from)
    }
}

// ---------------------------------------------------------------------------
// The schema macro
// ---------------------------------------------------------------------------

/// Declares wire layouts: each entry implements [`Wire`](crate::wire::Wire)
/// for an existing type, `put` and `get` both generated from the one
/// line, so they cannot drift apart.
///
/// ```text
/// struct Name { field: Type, …, derived = expr, … }
/// enum Name { tag => Unit, tag => Tuple(Type), tag => Struct { field: Type, … }, … }
/// #[non_exhaustive] enum Name { … }       // a foreign non-exhaustive enum
/// ```
///
/// * A **struct** writes its typed fields in table order. A field
///   written `derived = expr` is not on the wire: decoding fills it with
///   `expr` and the caller restores it from what was sent.
/// * An **enum** writes one tag byte, then the variant's typed fields in
///   order. An unknown tag byte decodes to
///   [`WireError::Corrupt`](crate::wire::WireError::Corrupt);
///   [`Wire::TAGS`](crate::wire::Wire::TAGS) lists the assigned ones. A
///   `#[non_exhaustive]` foreign enum panics on a variant the table
///   lacks.
///
/// Field types must implement `Wire`; `MIN_LEN` is derived from them.
/// The encoder is one `match`, so a variant the table misses is a
/// compile error.
///
/// ```
/// use onesa_plan::wire::{Wire, WireReader};
///
/// #[derive(Debug, PartialEq)]
/// struct Window { start: u64, rows: Vec<f32>, cached: bool }
/// #[derive(Debug, PartialEq)]
/// enum Shape { Point, Line(f32), Box { w: u32, h: u32 } }
///
/// onesa_plan::wire_layout! {
///     struct Window { start: u64, rows: Vec<f32>, cached = false }
///     enum Shape { 0 => Point, 1 => Line(f32), 7 => Box { w: u32, h: u32 } }
/// }
///
/// let mut bytes = Vec::new();
/// Window { start: 3, rows: vec![-0.0], cached: true }.put(&mut bytes);
/// let back = Window::get(&mut WireReader::new(&bytes)).unwrap();
/// assert_eq!(back, Window { start: 3, rows: vec![-0.0], cached: false });
///
/// let mut bytes = Vec::new();
/// Shape::Box { w: 2, h: 1 }.put(&mut bytes);
/// assert_eq!(bytes, [7, 2, 0, 0, 0, 1, 0, 0, 0]);
/// assert_eq!(Shape::TAGS, &[0, 1, 7]);
/// assert!(Shape::get(&mut WireReader::new(&[2])).is_err());
/// ```
#[macro_export]
macro_rules! wire_layout {
    () => {};
    (
        struct $T:ident { $($f:ident $(: $ty:ty)? $(= $derived:expr)?),* $(,)? }
        $($rest:tt)*
    ) => {
        impl $crate::wire::Wire for $T {
            const MIN_LEN: usize = 0 $($(+ <$ty as $crate::wire::Wire>::MIN_LEN)?)*;

            fn put(&self, w: &mut impl $crate::wire::WireSink) {
                $($(<$ty as $crate::wire::Wire>::put(&self.$f, w);)?)*
            }

            fn get(r: &mut $crate::wire::WireReader<'_>) -> $crate::wire::WireResult<Self> {
                Ok($T { $($f: $crate::wire_layout!(@get r $(: $ty)? $(= $derived)?)),* })
            }
        }
        $crate::wire_layout!($($rest)*);
    };
    (#[non_exhaustive] enum $T:ident { $($body:tt)* } $($rest:tt)*) => {
        $crate::wire_layout!(@enum $T { $($body)* } [
            _ => unreachable!(concat!(stringify!($T), " variant without a wire tag")),
        ]);
        $crate::wire_layout!($($rest)*);
    };
    (enum $T:ident { $($body:tt)* } $($rest:tt)*) => {
        $crate::wire_layout!(@enum $T { $($body)* } []);
        $crate::wire_layout!($($rest)*);
    };
    (@enum $T:ident {
        $($tag:literal => $V:ident $(($ty:ty))? $({ $($f:ident : $fty:ty),* $(,)? })?),* $(,)?
    } [$($other:tt)*]) => {
        impl $crate::wire::Wire for $T {
            const MIN_LEN: usize = {
                let payloads = [$(0 $(+ <$ty as $crate::wire::Wire>::MIN_LEN)?
                    $($(+ <$fty as $crate::wire::Wire>::MIN_LEN)*)?),*];
                let (mut min, mut i) = (usize::MAX, 0);
                while i < payloads.len() {
                    min = if payloads[i] < min { payloads[i] } else { min };
                    i += 1;
                }
                1 + min
            };

            const TAGS: &'static [u8] = &[$($tag),*];

            fn put(&self, w: &mut impl $crate::wire::WireSink) {
                match self {
                    $($T::$V $(($crate::wire_layout!(@bind x: $ty)))? $({ $($f),* })? => {
                        <u8 as $crate::wire::Wire>::put(&$tag, w);
                        $(<$ty as $crate::wire::Wire>::put(x, w);)?
                        $($(<$fty as $crate::wire::Wire>::put($f, w);)*)?
                    })*
                    $($other)*
                }
            }

            fn get(r: &mut $crate::wire::WireReader<'_>) -> $crate::wire::WireResult<Self> {
                Ok(match <u8 as $crate::wire::Wire>::get(r)? {
                    $($tag => $T::$V $((<$ty as $crate::wire::Wire>::get(r)?))?
                        $({ $($f: <$fty as $crate::wire::Wire>::get(r)?),* })?,)*
                    _ => {
                        let what = concat!("unknown ", stringify!($T), " tag");
                        return Err($crate::wire::WireError::Corrupt(what));
                    }
                })
            }
        }
    };
    (@get $r:ident : $ty:ty) => { <$ty as $crate::wire::Wire>::get($r)? };
    (@get $r:ident = $derived:expr) => { $derived };
    (@bind $x:ident : $ty:ty) => { $x };
}

// ---------------------------------------------------------------------------
// The layouts
// ---------------------------------------------------------------------------

wire_layout! {
    enum EvalMode { 0 => Exact, 1 => Cpwl { granularity: f32, quantize: bool } }

    // `NonlinearFn` is #[non_exhaustive]: a new function needs a tag
    // here (and a version bump) before it can ship.
    #[non_exhaustive]
    enum NonlinearFn {
        0 => Gelu,
        1 => Erf,
        2 => Exp,
        3 => Sigmoid,
        4 => Tanh,
        5 => Silu,
        6 => Softplus,
        7 => Mish,
        8 => Elu(f32),
        9 => LeakyRelu(f32),
        10 => Relu,
        11 => Sqrt,
        12 => Rsqrt,
        13 => Reciprocal,
        14 => Ln,
        15 => Square,
    }

    // The transport's Configure message: the array every shard prices
    // cycles on.
    enum ParamStaging { 0 => Fused, 1 => Dram }

    struct BufferSizes { l3_bytes: usize, l2_bytes: usize, pe_out_bytes: usize, l1_bytes: usize }

    struct ArrayConfig {
        dim: usize,
        macs_per_pe: usize,
        clock_mhz: f64,
        w_out_fifo: usize,
        w_dram: usize,
        ipf_pipeline_latency: usize,
        staging: ParamStaging,
        buffers: BufferSizes,
    }

    // Per-request outcomes travel back from the worker with their full
    // cycle breakdown.
    struct CycleBreakdown { skew: u64, compute: u64, drain: u64, ipf: u64, dram_stall: u64 }

    struct ExecStats { breakdown: CycleBreakdown, macs: u64, nonlinear_evals: u64, clock_mhz: f64 }

    struct StageGroups {
        stage: usize,
        ops: usize,
        groups: usize,
        gemm_groups: usize,
        nonlinear_groups: usize,
    }

    enum Operand { 0 => Slot(usize), 1 => Const(usize) }

    enum PoolKind { 0 => GlobalAvg, 1 => MeanRows }

    struct Conv2dGeometry {
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    }

    struct GemmSparsity { block_cols: usize, nnz_blocks: usize, total_blocks: usize, nnz_cols: usize }

    enum Precision { 0 => Int16, 1 => Int8 }

    enum Op {
        0 => Gemm { bias: Option<Vec<f32>>, sparsity: Option<GemmSparsity> },
        1 => Nonlinear(NonlinearFn),
        2 => Softmax,
        3 => LayerNorm { gamma: Vec<f32>, beta: Vec<f32>, eps: f32 },
        4 => Im2col(Conv2dGeometry),
        5 => Col2im { channels: usize, oh: usize, ow: usize },
        6 => Add,
        7 => Affine { k: Vec<f32>, b: Vec<f32> },
        9 => AffineNonlinear { k: Vec<f32>, b: Vec<f32>, func: NonlinearFn },
        13 => Pool(PoolKind),
        14 => Quantize { precision: Precision },
        16 => ConcatRows,
        17 => CausalSoftmax { offset: usize },
        18 => EmbedAt { offset: usize },
        19 => QuantizeRows,
        22 => Attention { heads: usize, scale: f32, causal: bool },
        23 => SliceRows { start: usize, len: usize },
    }

    struct OpNode { op: Op, inputs: Vec<Operand> }

    enum OptLevel { 0 => None, 1 => Standard }

    struct OptTotals { shared: usize, pruned: usize, dead: usize }

    struct OptReport { level: OptLevel, ops_before: usize, totals: OptTotals }
}

/// A program's one layout: name, mode, input shapes, the recorded
/// fingerprint and the optimizer report; the op list; the session inputs,
/// then the session outputs (both empty for a stateless program); each
/// constant's key, its [`crate::tensor_fingerprint`]; and last, as
/// `(key, tensor)` pairs, each constant the sink's reader lacks
/// ([`WireSink::lacks`]) — every one of them in a frame of its own
/// ([`encode_program`]), which decodes against the constants it carries
/// and nothing else.
impl Wire for Program {
    // Name, mode, fingerprint, report, and the counts of the input
    // shapes, ops, session inputs, session outputs, constant keys and
    // carried constants.
    const MIN_LEN: usize = String::MIN_LEN
        + EvalMode::MIN_LEN
        + u64::MIN_LEN
        + Option::<OptReport>::MIN_LEN
        + 6 * usize::MIN_LEN;

    fn put(&self, w: &mut impl WireSink) {
        put_str(self.name(), w);
        self.mode().put(w);
        self.input_shapes().len().put(w);
        for shape in self.input_shapes() {
            put_dims(shape, w);
        }
        self.fingerprint().put(w);
        self.opt_report().cloned().put(w);
        OpNode::put_seq(self.nodes(), w);
        usize::put_seq(self.session_inputs(), w);
        usize::put_seq(self.session_outputs(), w);
        let keys = self.const_fingerprints();
        u64::put_seq(keys, w);
        // A key the program names twice is carried once.
        let mut carried: Vec<(u64, &Tensor)> = Vec::new();
        for (&key, t) in keys.iter().zip(self.consts()) {
            if w.lacks(key, t) && carried.iter().all(|&(k, _)| k != key) {
                carried.push((key, t));
            }
        }
        carried.len().put(w);
        for (key, t) in carried {
            key.put(w);
            t.put(w);
        }
    }

    fn get(r: &mut WireReader<'_>) -> WireResult<Self> {
        get_program(r, &mut HashMap::new())
    }
}

/// Reads a [`Program`]'s layout. Each carried constant is filed in
/// `store` under its key — a key already held keeps the held buffer, so
/// every program read against one store shares one buffer per weight and
/// what that buffer remembers — and the layout's keys resolve against the
/// store. Decoding rebuilds through [`Program::builder`], so a decoded
/// program re-runs the validation, shape inference, fingerprinting and MAC
/// costing of a locally-built one: the wire carries no trusted derived
/// state.
///
/// # Errors
///
/// A typed [`WireError`], never a panic: [`WireError::FingerprintMismatch`]
/// for a constant whose bytes do not hash to the key it came under, or a
/// program whose recomputed fingerprint is not the recorded one (an
/// end-to-end content check over ops, operands and every constant bit);
/// [`WireError::Corrupt`] for a key neither carried nor held;
/// [`WireError::Rejected`] for a program that does not validate.
pub fn get_program(
    r: &mut WireReader<'_>,
    store: &mut HashMap<u64, Tensor>,
) -> WireResult<Program> {
    let name = String::get(r)?;
    let mut builder = Program::builder(&name, EvalMode::get(r)?);
    for _ in 0..r.get_len(4)? {
        builder.input(&get_dims(r)?);
    }
    let fingerprint = u64::get(r)?;
    let opt = Option::<OptReport>::get(r)?.map(Arc::new);
    for node in Vec::<OpNode>::get(r)? {
        builder.push(node.op, &node.inputs);
    }
    for i in Vec::<usize>::get(r)? {
        builder.mark_session_input(Operand::Slot(i));
    }
    for slot in Vec::<usize>::get(r)? {
        builder.mark_session_output(Operand::Slot(slot));
    }
    let keys = Vec::<u64>::get(r)?;
    for _ in 0..r.get_len(u64::MIN_LEN + Tensor::MIN_LEN)? {
        let key = u64::get(r)?;
        let t = Tensor::get(r)?;
        let computed = crate::tensor_fingerprint(&t);
        if computed != key {
            return Err(WireError::FingerprintMismatch {
                recorded: key,
                computed,
            });
        }
        store.entry(key).or_insert(t);
    }
    for key in keys {
        let t = store.get(&key).ok_or(WireError::Corrupt(
            "program names a constant its reader lacks",
        ))?;
        builder.constant(t.clone());
    }
    let mut program = builder.finish()?;
    program.opt = opt;
    if program.fingerprint() != fingerprint {
        return Err(WireError::FingerprintMismatch {
            recorded: fingerprint,
            computed: program.fingerprint(),
        });
    }
    Ok(program)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// A frame of `kind` holding only its header — the magic, [`VERSION`],
/// `kind` — for the caller to append the body to.
pub fn frame(kind: u16) -> Vec<u8> {
    let mut w = MAGIC.to_vec();
    VERSION.put(&mut w);
    kind.put(&mut w);
    w
}

/// Checks a frame's header and returns its kind and a reader over its
/// body.
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`] for any
/// version but [`VERSION`], or [`WireError::Truncated`] for a frame
/// shorter than its header.
pub fn open(bytes: &[u8]) -> WireResult<(u16, WireReader<'_>)> {
    let mut r = WireReader::new(bytes);
    let magic: [u8; 4] = r.array()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = u16::get(&mut r)?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = u16::get(&mut r)?;
    Ok((kind, r))
}

/// A frame of `kind` whose body is `value`.
fn encode<T: Wire>(kind: u16, value: &T) -> Vec<u8> {
    let mut w = frame(kind);
    value.put(&mut w);
    w
}

/// Reads a frame of `kind` whose body is exactly one `T`; a frame of
/// another kind is corrupt with `wrong_kind`.
fn decode<T: Wire>(bytes: &[u8], kind: u16, wrong_kind: &'static str) -> WireResult<T> {
    let (found, mut r) = open(bytes)?;
    if found != kind {
        return Err(WireError::Corrupt(wrong_kind));
    }
    let value = T::get(&mut r)?;
    r.expect_end()?;
    Ok(value)
}

/// Encodes one standalone tensor frame (kind `0x0001`).
pub fn encode_tensor(t: &Tensor) -> Vec<u8> {
    encode(KIND_TENSOR, t)
}

/// Decodes a frame produced by [`encode_tensor`].
///
/// # Errors
///
/// Any [`WireError`]; dims that disagree with the element count surface
/// as [`WireError::Rejected`].
pub fn decode_tensor(bytes: &[u8]) -> WireResult<Tensor> {
    decode(bytes, KIND_TENSOR, "frame kind is not tensor")
}

/// Encodes a whole program as one frame (kind `0x0002`) carrying all of
/// its constants; the program's fingerprint rides along and is re-checked
/// on decode.
pub fn encode_program(p: &Program) -> Vec<u8> {
    encode(KIND_PROGRAM, p)
}

/// Decodes a frame produced by [`encode_program`], re-validating and
/// re-fingerprinting the program (see [`get_program`]).
///
/// # Errors
///
/// Any [`WireError`]; semantic validation failures surface as
/// [`WireError::Rejected`].
pub fn decode_program(bytes: &[u8]) -> WireResult<Program> {
    decode(bytes, KIND_PROGRAM, "frame kind is not program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptLevel;
    use onesa_tensor::rng::Pcg32;
    use std::fmt::Debug;

    fn sample_tensor() -> Tensor {
        Tensor::from_vec(vec![1.5, -0.0, f32::NAN, 3.25e-12, -7.0, 42.0], &[2, 3]).unwrap()
    }

    fn sample_program() -> Program {
        let mut rng = Pcg32::seed_from_u64(11);
        let w = rng.randn(&[4, 3], 1.0);
        let mut b = Program::builder(
            "wire-sample",
            EvalMode::Cpwl {
                granularity: 0.25,
                quantize: true,
            },
        );
        let x = b.input(&[2, 4]);
        let q = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        let c = b.constant(w);
        let g = b.push(
            Op::Gemm {
                bias: Some(vec![0.5, -1.0, 0.0]),
                sparsity: None,
            },
            &[q, c],
        );
        b.push(Op::Nonlinear(NonlinearFn::Gelu), &[g]);
        b.finish().unwrap()
    }

    fn encoded<T: Wire>(v: &T) -> Vec<u8> {
        let mut w = Vec::new();
        v.put(&mut w);
        w
    }

    /// Decodes exactly `bytes` as one `T`.
    fn decoded<T: Wire>(bytes: &[u8]) -> T {
        let mut r = WireReader::new(bytes);
        let v = T::get(&mut r).unwrap();
        r.expect_end().unwrap();
        v
    }

    #[test]
    fn tensor_round_trip_is_bit_identical() {
        let t = sample_tensor();
        let back = decode_tensor(&encode_tensor(&t)).unwrap();
        assert_eq!(back.dims(), t.dims());
        let (a, b): (Vec<u32>, Vec<u32>) = (
            t.as_slice().iter().map(|v| v.to_bits()).collect(),
            back.as_slice().iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(a, b, "NaN payloads and -0.0 survive the wire");
    }

    #[test]
    fn inline_tensor_round_trip() {
        let t = sample_tensor();
        let back: Tensor = decoded(&encoded(&t));
        assert_eq!(
            back.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn program_round_trip_preserves_everything() {
        let p = sample_program();
        let back = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.fingerprint(), p.fingerprint());
        assert_eq!(back.modeled_macs(), p.modeled_macs());
    }

    #[test]
    fn optimized_program_round_trip_keeps_report() {
        let p = sample_program().optimize(OptLevel::Standard).unwrap();
        assert!(p.opt_report().is_some());
        let back = decode_program(&encode_program(&p)).unwrap();
        assert_eq!(back.opt_report(), p.opt_report());
        assert_eq!(back, p);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_tensor(&sample_tensor());
        bytes[0] = b'X';
        match decode_tensor(&bytes) {
            Err(WireError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn newer_version_is_rejected_not_panicked() {
        let mut bytes = encode_tensor(&sample_tensor());
        bytes[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
        match decode_tensor(&bytes) {
            Err(WireError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, VERSION + 1);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = encode_program(&sample_program());
        for len in 0..bytes.len() {
            let err = decode_program(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated { .. }
                        | WireError::Corrupt(_)
                        | WireError::BadMagic { .. }
                ),
                "prefix of {len} bytes gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn flipped_weight_bit_trips_fingerprint() {
        let p = sample_program();
        let bytes = encode_program(&p);
        // The const pool comes last; flip a bit in its final f32 word
        // (a weight element).
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 1] ^= 0x01;
        match decode_program(&corrupt) {
            Err(WireError::FingerprintMismatch { recorded, computed }) => {
                assert_ne!(recorded, computed)
            }
            Err(WireError::Rejected(_)) => {} // flipped into an invalid value
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn hostile_conv_geometry_is_rejected_not_a_panic() {
        let geo = Conv2dGeometry {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut b = Program::builder("conv", EvalMode::Exact);
        let x = b.input(&[1, 4, 4]);
        b.push(Op::Im2col(geo), &[x]);
        let bytes = encode_program(&b.finish().unwrap());
        let field = |v: usize| (v as u64).to_le_bytes();
        let encoded: Vec<u8> = [1, 2, 3, 1, 1].into_iter().flat_map(field).collect();
        let at = bytes
            .windows(encoded.len())
            .position(|w| w == encoded)
            .expect("the geometry is on the wire");
        for (kernel, padding) in [(3, 1 << 63), (1 << 33, 1 << 33), (0, 1)] {
            let mut hostile = bytes.clone();
            hostile[at + 16..at + 24].copy_from_slice(&field(kernel));
            hostile[at + 32..at + 40].copy_from_slice(&field(padding));
            let err = decode_program(&hostile).unwrap_err();
            assert!(
                matches!(err, WireError::Rejected(TensorError::InvalidArgument(_))),
                "kernel {kernel}, padding {padding}: {err:?}"
            );
        }
    }

    /// A program frame holding exactly `inputs` and `nodes` over no
    /// constants, written without the builder's validation the way
    /// hostile bytes would be.
    fn raw_program_frame(inputs: &[Vec<usize>], nodes: &[OpNode]) -> Vec<u8> {
        let mut w = frame(KIND_PROGRAM);
        put_str("raw", &mut w);
        EvalMode::Exact.put(&mut w);
        inputs.len().put(&mut w);
        for shape in inputs {
            put_dims(shape, &mut w);
        }
        0u64.put(&mut w);
        None::<OptReport>.put(&mut w);
        OpNode::put_seq(nodes, &mut w);
        // No session inputs, no session outputs, no constants.
        for _ in 0..4 {
            0usize.put(&mut w);
        }
        w
    }

    #[test]
    fn overflowing_op_attributes_fail_typed_through_finish_and_decode() {
        let max = usize::MAX;
        let cases = [
            (vec![vec![4, 2]], Op::SliceRows { start: max, len: 2 }),
            (vec![vec![3, 1]], Op::CausalSoftmax { offset: max - 1 }),
            (
                vec![vec![1, 2], vec![4, 3], vec![4, 3]],
                Op::EmbedAt { offset: max },
            ),
            // Every dimension fits, but the heads' scores together do not.
            (
                vec![vec![1 << 16, 2], vec![1 << 17, 2], vec![1 << 17, 2]],
                Op::Attention {
                    heads: 2,
                    scale: 1.0,
                    causal: false,
                },
            ),
            (
                vec![vec![1, 2], vec![1, 2], vec![1, 2]],
                Op::Attention {
                    heads: 0,
                    scale: 1.0,
                    causal: true,
                },
            ),
            (vec![vec![max, 1], vec![2, 1]], Op::ConcatRows),
            // 2⁶² elements: a shape no op overflows, but the cost model would.
            (vec![vec![1 << 31, 1 << 31]], Op::Softmax),
        ];
        for (inputs, op) in cases {
            let what = format!("{op:?}");
            let mut b = Program::builder("overflow", EvalMode::Exact);
            let slots: Vec<Operand> = inputs.iter().map(|s| b.input(s)).collect();
            b.push(op.clone(), &slots);
            let err = b.finish().unwrap_err();
            assert!(
                matches!(err, TensorError::InvalidArgument(_)),
                "{what}: {err}"
            );
            let node = OpNode { op, inputs: slots };
            let err = decode_program(&raw_program_frame(&inputs, &[node])).unwrap_err();
            assert!(
                matches!(err, WireError::Rejected(TensorError::InvalidArgument(_))),
                "{what}: {err}"
            );
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let t = sample_tensor();
        assert!(matches!(
            decode_program(&encode_tensor(&t)),
            Err(WireError::Corrupt("frame kind is not program"))
        ));
    }

    #[test]
    fn strict_bool_and_unknown_tags_are_corrupt() {
        assert!(matches!(
            bool::get(&mut WireReader::new(&[2])),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            NonlinearFn::get(&mut WireReader::new(&[99])),
            Err(WireError::Corrupt("unknown NonlinearFn tag"))
        ));
        assert!(matches!(
            Op::get(&mut WireReader::new(&[200])),
            Err(WireError::Corrupt("unknown Op tag"))
        ));
    }

    #[test]
    fn exec_stats_and_config_round_trip() {
        let stats = ExecStats {
            breakdown: CycleBreakdown {
                skew: 3,
                compute: 1000,
                drain: 12,
                ipf: 7,
                dram_stall: 99,
            },
            macs: 123_456,
            nonlinear_evals: 789,
            clock_mhz: 200.0,
        };
        assert_eq!(decoded::<ExecStats>(&encoded(&stats)), stats);
        let cfg = ArrayConfig::default();
        assert_eq!(decoded::<ArrayConfig>(&encoded(&cfg)), cfg);
        // The derived minimum is the fixed width of these layouts.
        assert_eq!(ExecStats::MIN_LEN, encoded(&stats).len());
        assert_eq!(ArrayConfig::MIN_LEN, encoded(&cfg).len());
    }

    #[test]
    fn impossible_sequence_counts_fail_before_allocating() {
        // A count of 2⁶⁰ operands in a 9-byte buffer: refused up front.
        let mut bytes = encoded(&(1usize << 60));
        bytes.push(0);
        assert!(matches!(
            Vec::<Operand>::get(&mut WireReader::new(&bytes)),
            Err(WireError::Corrupt("sequence count exceeds cap"))
        ));
        // Under the cap, but more than the remaining bytes can hold.
        let mut bytes = encoded(&1000usize);
        bytes.extend([0; 9 * 999]);
        assert_eq!(
            Vec::<Operand>::get(&mut WireReader::new(&bytes)),
            Err(WireError::Truncated {
                needed: 9000,
                have: 8991
            })
        );
    }

    /// Decodes one `T` whose first byte is `tag`, answering every short
    /// read the decoder makes with a value of that width — a byte of `1`
    /// (a present `Option`, a `true`, an enum's second variant), a
    /// `u64` count or attribute of `1`, and a four-byte word alternately
    /// a NaN with a payload and `-0.0` — until it succeeds. Returns the
    /// value and the exact bytes it decoded from.
    fn example<T: Wire>(tag: u8) -> (T, Vec<u8>) {
        let mut bytes = vec![tag];
        let mut nan = true;
        loop {
            match T::get(&mut WireReader::new(&bytes)) {
                Ok(v) => return (v, bytes),
                Err(WireError::Truncated { needed, have }) => match needed - have {
                    1 => bytes.push(1),
                    4 => {
                        let word = if nan {
                            0x7fc0_0001
                        } else {
                            (-0.0f32).to_bits()
                        };
                        bytes.extend(word.to_le_bytes());
                        nan = !nan;
                    }
                    8 => bytes.extend(1u64.to_le_bytes()),
                    width => panic!("tag {tag}: no example for a {width}-byte read"),
                },
                Err(e) => panic!("tag {tag}: {e}"),
            }
        }
    }

    /// Walks an enum layout's own tag list: every tag's example
    /// round-trips and re-encodes byte-equal, and every other byte is a
    /// corrupt tag.
    fn check_schema<T: Wire + Debug>() {
        let tags = T::TAGS;
        assert!(!tags.is_empty());
        for (i, tag) in tags.iter().enumerate() {
            assert!(!tags[..i].contains(tag), "tag {tag} assigned twice");
            let (value, bytes) = example::<T>(*tag);
            assert_eq!(encoded(&value), bytes, "tag {tag}: {value:?}");
            assert_eq!(encoded(&decoded::<T>(&bytes)), bytes, "tag {tag}");
            assert!(bytes.len() >= T::MIN_LEN, "tag {tag}");
        }
        for byte in (0..=u8::MAX).filter(|b| !tags.contains(b)) {
            let err = T::get(&mut WireReader::new(&[byte; 64])).unwrap_err();
            assert!(matches!(err, WireError::Corrupt(_)), "byte {byte}: {err:?}");
        }
    }

    #[test]
    fn every_schema_tag_round_trips_and_every_other_byte_is_corrupt() {
        check_schema::<Op>();
        check_schema::<NonlinearFn>();
        check_schema::<EvalMode>();
        check_schema::<Operand>();
        check_schema::<PoolKind>();
        check_schema::<ParamStaging>();
        check_schema::<OptLevel>();
        check_schema::<Precision>();
        // The payload bits the examples carry survive.
        let (attention, bytes) = example::<Op>(22);
        assert!(matches!(attention, Op::Attention { scale, .. } if scale.to_bits() == 0x7fc0_0001));
        assert_eq!(encoded(&decoded::<Op>(&bytes)), bytes);
    }
}
