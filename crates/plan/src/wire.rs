//! Hand-rolled binary **wire format** for shipping programs between
//! processes: the serialization layer under `onesa-core`'s cross-host
//! serving transport.
//!
//! The repository builds with no network access, so there is no serde,
//! no bincode — every byte here is written and read by hand. The format
//! is designed around three constraints:
//!
//! * **Bit-identicality.** `f32` payloads travel as little-endian
//!   [`f32::to_bits`] words, so a decoded tensor is bit-identical to the
//!   encoded one — the same `to_bits()` contract the rest of the
//!   repository tests against (NaN payloads and signed zeros included).
//! * **Versioned framing.** Every frame starts with a 4-byte magic, a
//!   format version and a *section table* (id, offset, length per
//!   section), so a reader can locate the sections it knows and a future
//!   format revision can add sections without breaking old payloads.
//!   Unknown versions and malformed frames surface as a typed
//!   [`WireError`], never a panic.
//! * **Zero-copy-friendly tensor payloads.** A tensor's elements are one
//!   contiguous little-endian `f32` run in a dedicated section, aligned
//!   to nothing fancier than byte offsets: a consumer that wants to
//!   avoid the copy can point at the section slice directly, and the
//!   section table makes finding it O(#sections).
//!
//! # Frame layout
//!
//! ```text
//! magic "OSAW" (4) | version u16 | kind u16 | n_sections u32
//! n × { id u32 | offset u64 | len u64 }      # offsets into the body
//! body bytes (sections laid out back to back)
//! ```
//!
//! All integers are little-endian. `kind` identifies the payload
//! ([`KIND_TENSOR`], [`KIND_PROGRAM`]; `onesa-core`'s transport claims
//! kinds ≥ `0x0100` for its protocol messages).
//!
//! # Programs on the wire
//!
//! [`encode_program`] writes a program as three sections — metadata
//! (name, mode, input shapes, fingerprint, optimizer report), the op
//! list, and the constant pool. [`decode_program`] reconstructs through
//! [`ProgramBuilder`][crate::ProgramBuilder], so every decoded program
//! re-runs the same validation and fingerprinting as a locally-built
//! one; the recomputed fingerprint must equal the recorded one or
//! decoding fails with [`WireError::FingerprintMismatch`]. A flipped
//! weight bit, a reordered op, a truncated const — anything that
//! survives the structural checks still trips the fingerprint.
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

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use onesa_cpwl::NonlinearFn;
use onesa_sim::{ArrayConfig, BufferSizes, CycleBreakdown, ExecStats, ParamStaging};
use onesa_tensor::im2col::Conv2dGeometry;
use onesa_tensor::parallel::Parallelism;
use onesa_tensor::{Tensor, TensorError};

use crate::opt::{OptLevel, OptReport, OptTotals, PassStats};
use crate::program::{EvalMode, GemmSparsity, Op, Operand, PoolKind, Precision, Program};

/// Leading 4 bytes of every frame.
pub const MAGIC: [u8; 4] = *b"OSAW";

/// Current format version. Bump only with a decode-compat plan: old
/// readers reject newer frames with [`WireError::UnsupportedVersion`].
///
/// * v1 — initial format.
/// * v2 — sparse-GEMM attribute (op tag 20), INT8 quantize boundary
///   (op tag 21), `prune-pack` pass stats and the `pruned` counter in
///   the optimizer-report tail. v1 frames still decode: their ops are
///   the dense/INT16 tags and their report tail is read without the
///   `pruned` field.
pub const VERSION: u16 = 2;

/// Frame kind: a standalone tensor ([`encode_tensor`]).
pub const KIND_TENSOR: u16 = 0x0001;
/// Frame kind: a whole program ([`encode_program`]).
pub const KIND_PROGRAM: u16 = 0x0002;

/// Hard cap on sections per frame — far above any real frame, low
/// enough that a corrupt count cannot drive a large allocation.
const MAX_SECTIONS: u32 = 4096;

/// Everything that can go wrong while decoding wire bytes. Decoding
/// never panics on malformed input; it returns one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The frame's format version is newer than this reader supports.
    UnsupportedVersion {
        /// Version recorded in the frame.
        found: u16,
        /// Highest version this build understands ([`VERSION`]).
        supported: u16,
    },
    /// The buffer ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Structurally invalid bytes (bad tag, bad length, bad UTF-8, …).
    Corrupt(&'static str),
    /// The frame's section table lacks a section the decoder requires.
    MissingSection {
        /// The absent section id.
        id: u32,
    },
    /// A decoded program's recomputed fingerprint differs from the one
    /// recorded on the wire — content corruption that survived the
    /// structural checks.
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
                "unsupported wire format version {found} (this build reads <= {supported})"
            ),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::MissingSection { id } => write!(f, "frame lacks required section {id}"),
            WireError::FingerprintMismatch { recorded, computed } => write!(
                f,
                "program fingerprint mismatch: wire records {recorded:#018x}, \
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
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Appends little-endian primitives to a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (the wire has one integer width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one strict byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `f32` as its little-endian bit pattern —
    /// bit-identical round trips, NaNs and signed zeros included.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Writes an `f64` as its little-endian bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed `f32` run as contiguous LE bit patterns.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        self.buf.reserve(vs.len() * 4);
        for v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Writes raw bytes with no length prefix (section bodies).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Reads little-endian primitives off a byte slice, tracking position.
/// Every read checks bounds and returns [`WireError::Truncated`] rather
/// than panicking.
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
    pub fn remaining(&self) -> usize {
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

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
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

    /// Reads one byte.
    pub fn get_u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> WireResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a wire `u64` into a `usize`, rejecting values that do not
    /// fit the host.
    pub fn get_usize(&mut self) -> WireResult<usize> {
        usize::try_from(self.get_u64()?).map_err(|_| WireError::Corrupt("length exceeds usize"))
    }

    /// Reads a strict bool (0 or 1; anything else is corruption).
    pub fn get_bool(&mut self) -> WireResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Corrupt("bool byte is neither 0 nor 1")),
        }
    }

    /// Reads an `f32` from its bit pattern.
    pub fn get_f32(&mut self) -> WireResult<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> WireResult<String> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("string is not UTF-8"))
    }

    /// Reads a length-prefixed `f32` run. The byte length is validated
    /// against the remaining buffer *before* any allocation, so a
    /// corrupt length cannot drive an oversized `Vec`.
    pub fn get_f32_vec(&mut self) -> WireResult<Vec<f32>> {
        let len = self.get_usize()?;
        let bytes = len
            .checked_mul(4)
            .ok_or(WireError::Corrupt("f32 run length overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect())
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        self.take(n)
    }
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// Builds one frame: kind + ordered sections, encoded with the
/// [module-level layout](self).
#[derive(Debug)]
pub struct FrameBuilder {
    kind: u16,
    sections: Vec<(u32, Vec<u8>)>,
}

impl FrameBuilder {
    /// A frame of the given kind with no sections yet.
    pub fn new(kind: u16) -> Self {
        Self {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section. Ids must be unique within the frame.
    pub fn section(&mut self, id: u32, body: Vec<u8>) -> &mut Self {
        debug_assert!(
            self.sections.iter().all(|(sid, _)| *sid != id),
            "duplicate section id {id}"
        );
        self.sections.push((id, body));
        self
    }

    /// Serializes header, section table and body into one buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(VERSION);
        w.put_u16(self.kind);
        w.put_u32(self.sections.len() as u32);
        let mut offset = 0u64;
        for (id, body) in &self.sections {
            w.put_u32(*id);
            w.put_u64(offset);
            w.put_u64(body.len() as u64);
            offset += body.len() as u64;
        }
        for (_, body) in &self.sections {
            w.put_bytes(body);
        }
        w.into_bytes()
    }
}

/// A parsed view over one frame's bytes: kind plus resolved section
/// slices. Borrowed, not copied — tensor-payload sections can be read
/// in place.
#[derive(Debug)]
pub struct FrameView<'a> {
    version: u16,
    kind: u16,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> FrameView<'a> {
    /// Parses and bounds-checks a frame. Rejects bad magic, newer
    /// format versions, truncated tables and out-of-range section
    /// extents with a typed [`WireError`].
    pub fn parse(bytes: &'a [u8]) -> WireResult<Self> {
        let mut r = WireReader::new(bytes);
        let magic = r.get_bytes(4)?;
        if magic != MAGIC {
            return Err(WireError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = r.get_u16()?;
        if version > VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let kind = r.get_u16()?;
        let n = r.get_u32()?;
        if n > MAX_SECTIONS {
            return Err(WireError::Corrupt("section count exceeds cap"));
        }
        let mut table = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let id = r.get_u32()?;
            let offset = r.get_usize()?;
            let len = r.get_usize()?;
            table.push((id, offset, len));
        }
        let body_start = bytes.len() - r.remaining();
        let body = &bytes[body_start..];
        let mut sections = Vec::with_capacity(table.len());
        for (id, offset, len) in table {
            let end = offset
                .checked_add(len)
                .ok_or(WireError::Corrupt("section extent overflows"))?;
            if end > body.len() {
                return Err(WireError::Truncated {
                    needed: end,
                    have: body.len(),
                });
            }
            sections.push((id, &body[offset..end]));
        }
        Ok(Self {
            version,
            kind,
            sections,
        })
    }

    /// The format version the frame was written at (≤ [`VERSION`] —
    /// newer frames are rejected at parse). Decoders branch on this for
    /// fields added in later versions.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The frame's kind tag.
    pub fn kind(&self) -> u16 {
        self.kind
    }

    /// The section with the given id, or [`WireError::MissingSection`].
    pub fn section(&self, id: u32) -> WireResult<&'a [u8]> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, body)| *body)
            .ok_or(WireError::MissingSection { id })
    }
}

// ---------------------------------------------------------------------------
// Tensors
// ---------------------------------------------------------------------------

/// Section id: tensor rank + dims.
const SEC_TENSOR_META: u32 = 1;
/// Section id: contiguous little-endian `f32` element run.
const SEC_TENSOR_DATA: u32 = 2;

/// Writes a tensor inline (dims, then elements as LE bit patterns).
pub fn put_tensor(w: &mut WireWriter, t: &Tensor) {
    w.put_u32(t.dims().len() as u32);
    for d in t.dims() {
        w.put_usize(*d);
    }
    w.put_f32_slice(t.as_slice());
}

/// Reads a tensor written by [`put_tensor`]. The element count is
/// validated against both the dims product and the remaining bytes.
pub fn get_tensor(r: &mut WireReader<'_>) -> WireResult<Tensor> {
    let rank = r.get_u32()?;
    if rank > 8 {
        return Err(WireError::Corrupt("tensor rank exceeds 8"));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    for _ in 0..rank {
        dims.push(r.get_usize()?);
    }
    let data = r.get_f32_vec()?;
    Tensor::from_vec(data, &dims).map_err(WireError::from)
}

/// Encodes one standalone tensor frame ([`KIND_TENSOR`]): metadata and
/// the raw element run in separate sections so a reader can view the
/// payload zero-copy.
pub fn encode_tensor(t: &Tensor) -> Vec<u8> {
    let mut meta = WireWriter::new();
    meta.put_u32(t.dims().len() as u32);
    for d in t.dims() {
        meta.put_usize(*d);
    }
    let mut data = WireWriter::new();
    data.buf.reserve(t.as_slice().len() * 4);
    for v in t.as_slice() {
        data.put_u32(v.to_bits());
    }
    let mut f = FrameBuilder::new(KIND_TENSOR);
    f.section(SEC_TENSOR_META, meta.into_bytes());
    f.section(SEC_TENSOR_DATA, data.into_bytes());
    f.encode()
}

/// Decodes a frame produced by [`encode_tensor`].
pub fn decode_tensor(bytes: &[u8]) -> WireResult<Tensor> {
    let frame = FrameView::parse(bytes)?;
    if frame.kind() != KIND_TENSOR {
        return Err(WireError::Corrupt("frame kind is not tensor"));
    }
    let mut meta = WireReader::new(frame.section(SEC_TENSOR_META)?);
    let rank = meta.get_u32()?;
    if rank > 8 {
        return Err(WireError::Corrupt("tensor rank exceeds 8"));
    }
    let mut dims = Vec::with_capacity(rank as usize);
    let mut volume = 1usize;
    for _ in 0..rank {
        let d = meta.get_usize()?;
        volume = volume
            .checked_mul(d)
            .ok_or(WireError::Corrupt("tensor volume overflows"))?;
        dims.push(d);
    }
    meta.expect_end()?;
    let payload = frame.section(SEC_TENSOR_DATA)?;
    if payload.len() != volume * 4 {
        return Err(WireError::Corrupt("tensor payload length != dims product"));
    }
    let data = payload
        .chunks_exact(4)
        .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
        .collect();
    Tensor::from_vec(data, &dims).map_err(WireError::from)
}

// ---------------------------------------------------------------------------
// Scalar enums shared with the transport
// ---------------------------------------------------------------------------

/// Writes an [`EvalMode`].
pub fn put_eval_mode(w: &mut WireWriter, mode: EvalMode) {
    match mode {
        EvalMode::Exact => w.put_u8(0),
        EvalMode::Cpwl {
            granularity,
            quantize,
        } => {
            w.put_u8(1);
            w.put_f32(granularity);
            w.put_bool(quantize);
        }
    }
}

/// Reads an [`EvalMode`].
pub fn get_eval_mode(r: &mut WireReader<'_>) -> WireResult<EvalMode> {
    match r.get_u8()? {
        0 => Ok(EvalMode::Exact),
        1 => Ok(EvalMode::Cpwl {
            granularity: r.get_f32()?,
            quantize: r.get_bool()?,
        }),
        _ => Err(WireError::Corrupt("unknown EvalMode tag")),
    }
}

/// The wire tag of a [`NonlinearFn`] and, for the two parameterised
/// variants, its parameter. The staged scheduler hashes the same pair
/// into its nonlinear group keys.
pub(crate) fn nonlinear_tag(f: NonlinearFn) -> (u8, Option<f32>) {
    let tag = match f {
        NonlinearFn::Gelu => 0,
        NonlinearFn::Erf => 1,
        NonlinearFn::Exp => 2,
        NonlinearFn::Sigmoid => 3,
        NonlinearFn::Tanh => 4,
        NonlinearFn::Silu => 5,
        NonlinearFn::Softplus => 6,
        NonlinearFn::Mish => 7,
        NonlinearFn::Elu(_) => 8,
        NonlinearFn::LeakyRelu(_) => 9,
        NonlinearFn::Relu => 10,
        NonlinearFn::Sqrt => 11,
        NonlinearFn::Rsqrt => 12,
        NonlinearFn::Reciprocal => 13,
        NonlinearFn::Ln => 14,
        NonlinearFn::Square => 15,
        // `NonlinearFn` is #[non_exhaustive]; a new variant must be
        // assigned a wire tag (and a format-version plan) here before
        // it can ship.
        _ => unreachable!("NonlinearFn variant without a wire tag"),
    };
    let param = match f {
        NonlinearFn::Elu(a) | NonlinearFn::LeakyRelu(a) => Some(a),
        _ => None,
    };
    (tag, param)
}

/// Writes a [`NonlinearFn`].
pub fn put_nonlinear(w: &mut WireWriter, f: NonlinearFn) {
    let (tag, param) = nonlinear_tag(f);
    w.put_u8(tag);
    if let Some(a) = param {
        w.put_f32(a);
    }
}

/// Reads a [`NonlinearFn`].
pub fn get_nonlinear(r: &mut WireReader<'_>) -> WireResult<NonlinearFn> {
    Ok(match r.get_u8()? {
        0 => NonlinearFn::Gelu,
        1 => NonlinearFn::Erf,
        2 => NonlinearFn::Exp,
        3 => NonlinearFn::Sigmoid,
        4 => NonlinearFn::Tanh,
        5 => NonlinearFn::Silu,
        6 => NonlinearFn::Softplus,
        7 => NonlinearFn::Mish,
        8 => NonlinearFn::Elu(r.get_f32()?),
        9 => NonlinearFn::LeakyRelu(r.get_f32()?),
        10 => NonlinearFn::Relu,
        11 => NonlinearFn::Sqrt,
        12 => NonlinearFn::Rsqrt,
        13 => NonlinearFn::Reciprocal,
        14 => NonlinearFn::Ln,
        15 => NonlinearFn::Square,
        _ => return Err(WireError::Corrupt("unknown NonlinearFn tag")),
    })
}

/// Writes a [`Parallelism`] policy (the transport's Configure message
/// carries the worker's host-execution policy).
pub fn put_parallelism(w: &mut WireWriter, p: Parallelism) {
    match p {
        Parallelism::Sequential => w.put_u8(0),
        Parallelism::Threads(n) => {
            w.put_u8(1);
            w.put_usize(n);
        }
        Parallelism::Auto => w.put_u8(2),
    }
}

/// Reads a [`Parallelism`] policy.
pub fn get_parallelism(r: &mut WireReader<'_>) -> WireResult<Parallelism> {
    Ok(match r.get_u8()? {
        0 => Parallelism::Sequential,
        1 => Parallelism::Threads(r.get_usize()?),
        2 => Parallelism::Auto,
        _ => return Err(WireError::Corrupt("unknown Parallelism tag")),
    })
}

/// Writes an [`ArrayConfig`] (shipped once per worker at configure
/// time, so every shard prices cycles identically).
pub fn put_array_config(w: &mut WireWriter, c: &ArrayConfig) {
    w.put_usize(c.dim);
    w.put_usize(c.macs_per_pe);
    w.put_f64(c.clock_mhz);
    w.put_usize(c.w_out_fifo);
    w.put_usize(c.w_dram);
    w.put_usize(c.ipf_pipeline_latency);
    w.put_u8(match c.staging {
        ParamStaging::Fused => 0,
        ParamStaging::Dram => 1,
    });
    w.put_usize(c.buffers.l3_bytes);
    w.put_usize(c.buffers.l2_bytes);
    w.put_usize(c.buffers.pe_out_bytes);
    w.put_usize(c.buffers.l1_bytes);
}

/// Reads an [`ArrayConfig`].
pub fn get_array_config(r: &mut WireReader<'_>) -> WireResult<ArrayConfig> {
    Ok(ArrayConfig {
        dim: r.get_usize()?,
        macs_per_pe: r.get_usize()?,
        clock_mhz: r.get_f64()?,
        w_out_fifo: r.get_usize()?,
        w_dram: r.get_usize()?,
        ipf_pipeline_latency: r.get_usize()?,
        staging: match r.get_u8()? {
            0 => ParamStaging::Fused,
            1 => ParamStaging::Dram,
            _ => return Err(WireError::Corrupt("unknown ParamStaging tag")),
        },
        buffers: BufferSizes {
            l3_bytes: r.get_usize()?,
            l2_bytes: r.get_usize()?,
            pe_out_bytes: r.get_usize()?,
            l1_bytes: r.get_usize()?,
        },
    })
}

/// Writes an [`ExecStats`] (per-request outcomes travel back from the
/// worker with their full cycle breakdown).
pub fn put_exec_stats(w: &mut WireWriter, s: &ExecStats) {
    w.put_u64(s.breakdown.skew);
    w.put_u64(s.breakdown.compute);
    w.put_u64(s.breakdown.drain);
    w.put_u64(s.breakdown.ipf);
    w.put_u64(s.breakdown.dram_stall);
    w.put_u64(s.macs);
    w.put_u64(s.nonlinear_evals);
    w.put_f64(s.clock_mhz);
}

/// Reads an [`ExecStats`].
pub fn get_exec_stats(r: &mut WireReader<'_>) -> WireResult<ExecStats> {
    Ok(ExecStats {
        breakdown: CycleBreakdown {
            skew: r.get_u64()?,
            compute: r.get_u64()?,
            drain: r.get_u64()?,
            ipf: r.get_u64()?,
            dram_stall: r.get_u64()?,
        },
        macs: r.get_u64()?,
        nonlinear_evals: r.get_u64()?,
        clock_mhz: r.get_f64()?,
    })
}

// ---------------------------------------------------------------------------
// Ops and programs
// ---------------------------------------------------------------------------

fn put_operand(w: &mut WireWriter, o: Operand) {
    match o {
        Operand::Slot(i) => {
            w.put_u8(0);
            w.put_usize(i);
        }
        Operand::Const(i) => {
            w.put_u8(1);
            w.put_usize(i);
        }
    }
}

fn get_operand(r: &mut WireReader<'_>) -> WireResult<Operand> {
    Ok(match r.get_u8()? {
        0 => Operand::Slot(r.get_usize()?),
        1 => Operand::Const(r.get_usize()?),
        _ => return Err(WireError::Corrupt("unknown Operand tag")),
    })
}

fn put_opt_bias(w: &mut WireWriter, bias: &Option<Vec<f32>>) {
    match bias {
        None => w.put_u8(0),
        Some(b) => {
            w.put_u8(1);
            w.put_f32_slice(b);
        }
    }
}

fn get_opt_bias(r: &mut WireReader<'_>) -> WireResult<Option<Vec<f32>>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.get_f32_vec()?)),
        _ => Err(WireError::Corrupt("unknown Option tag")),
    }
}

fn put_op(w: &mut WireWriter, op: &Op) {
    match op {
        // Dense GEMMs keep the v1 tag so pre-sparsity fixtures decode
        // unchanged; a sparse attribute moves the op to tag 20 (v2).
        Op::Gemm {
            bias,
            sparsity: None,
        } => {
            w.put_u8(0);
            put_opt_bias(w, bias);
        }
        Op::Gemm {
            bias,
            sparsity: Some(s),
        } => {
            w.put_u8(20);
            put_opt_bias(w, bias);
            w.put_usize(s.block_cols);
            w.put_usize(s.nnz_blocks);
            w.put_usize(s.total_blocks);
            w.put_usize(s.nnz_cols);
        }
        Op::Nonlinear(f) => {
            w.put_u8(1);
            put_nonlinear(w, *f);
        }
        Op::Softmax => w.put_u8(2),
        Op::LayerNorm { gamma, beta, eps } => {
            w.put_u8(3);
            w.put_f32_slice(gamma);
            w.put_f32_slice(beta);
            w.put_f32(*eps);
        }
        Op::Im2col(g) => {
            w.put_u8(4);
            w.put_usize(g.in_channels);
            w.put_usize(g.out_channels);
            w.put_usize(g.kernel);
            w.put_usize(g.stride);
            w.put_usize(g.padding);
        }
        Op::Col2im { channels, oh, ow } => {
            w.put_u8(5);
            w.put_usize(*channels);
            w.put_usize(*oh);
            w.put_usize(*ow);
        }
        Op::Add => w.put_u8(6),
        Op::Affine { k, b } => {
            w.put_u8(7);
            w.put_f32_slice(k);
            w.put_f32_slice(b);
        }
        Op::Scale(c) => {
            w.put_u8(8);
            w.put_f32(*c);
        }
        Op::AffineNonlinear { k, b, func } => {
            w.put_u8(9);
            w.put_f32_slice(k);
            w.put_f32_slice(b);
            put_nonlinear(w, *func);
        }
        Op::Transpose => w.put_u8(10),
        Op::SliceCols { start, len } => {
            w.put_u8(11);
            w.put_usize(*start);
            w.put_usize(*len);
        }
        Op::ConcatCols => w.put_u8(12),
        Op::Pool(kind) => {
            w.put_u8(13);
            w.put_u8(match kind {
                PoolKind::GlobalAvg => 0,
                PoolKind::MeanRows => 1,
            });
        }
        // The INT16 boundary keeps the v1 tag; INT8 is tag 21 (v2).
        Op::Quantize {
            precision: Precision::Int16,
        } => w.put_u8(14),
        Op::Quantize {
            precision: Precision::Int8,
        } => w.put_u8(21),
        Op::Embed => w.put_u8(15),
        Op::ConcatRows => w.put_u8(16),
        Op::CausalSoftmax { offset } => {
            w.put_u8(17);
            w.put_usize(*offset);
        }
        Op::EmbedAt { offset } => {
            w.put_u8(18);
            w.put_usize(*offset);
        }
        Op::QuantizeRows => w.put_u8(19),
    }
}

fn get_op(r: &mut WireReader<'_>) -> WireResult<Op> {
    Ok(match r.get_u8()? {
        0 => Op::Gemm {
            bias: get_opt_bias(r)?,
            sparsity: None,
        },
        1 => Op::Nonlinear(get_nonlinear(r)?),
        2 => Op::Softmax,
        3 => Op::LayerNorm {
            gamma: r.get_f32_vec()?,
            beta: r.get_f32_vec()?,
            eps: r.get_f32()?,
        },
        4 => Op::Im2col(Conv2dGeometry {
            in_channels: r.get_usize()?,
            out_channels: r.get_usize()?,
            kernel: r.get_usize()?,
            stride: r.get_usize()?,
            padding: r.get_usize()?,
        }),
        5 => Op::Col2im {
            channels: r.get_usize()?,
            oh: r.get_usize()?,
            ow: r.get_usize()?,
        },
        6 => Op::Add,
        7 => Op::Affine {
            k: r.get_f32_vec()?,
            b: r.get_f32_vec()?,
        },
        8 => Op::Scale(r.get_f32()?),
        9 => Op::AffineNonlinear {
            k: r.get_f32_vec()?,
            b: r.get_f32_vec()?,
            func: get_nonlinear(r)?,
        },
        10 => Op::Transpose,
        11 => Op::SliceCols {
            start: r.get_usize()?,
            len: r.get_usize()?,
        },
        12 => Op::ConcatCols,
        13 => Op::Pool(match r.get_u8()? {
            0 => PoolKind::GlobalAvg,
            1 => PoolKind::MeanRows,
            _ => return Err(WireError::Corrupt("unknown PoolKind tag")),
        }),
        14 => Op::Quantize {
            precision: Precision::Int16,
        },
        15 => Op::Embed,
        16 => Op::ConcatRows,
        17 => Op::CausalSoftmax {
            offset: r.get_usize()?,
        },
        18 => Op::EmbedAt {
            offset: r.get_usize()?,
        },
        19 => Op::QuantizeRows,
        20 => Op::Gemm {
            bias: get_opt_bias(r)?,
            sparsity: Some(GemmSparsity {
                block_cols: r.get_usize()?,
                nnz_blocks: r.get_usize()?,
                total_blocks: r.get_usize()?,
                nnz_cols: r.get_usize()?,
            }),
        },
        21 => Op::Quantize {
            precision: Precision::Int8,
        },
        _ => return Err(WireError::Corrupt("unknown Op tag")),
    })
}

fn put_opt_report(w: &mut WireWriter, report: &OptReport) {
    w.put_u8(match report.level {
        OptLevel::None => 0,
        OptLevel::Standard => 1,
        OptLevel::Fusion => 2,
    });
    w.put_usize(report.ops_before);
    w.put_usize(report.ops_after);
    w.put_u64(report.macs_before);
    w.put_u64(report.macs_after);
    w.put_usize(report.passes.len());
    for p in &report.passes {
        w.put_str(p.pass);
        w.put_usize(p.removed);
    }
    w.put_usize(report.totals.elided);
    w.put_usize(report.totals.shared);
    w.put_usize(report.totals.fused);
    w.put_usize(report.totals.dead);
    w.put_usize(report.totals.pruned); // v2 tail field
}

/// The optimizer's pass names are `&'static str`; decoding maps wire
/// strings back onto the known statics so the round trip preserves the
/// exact type. An unknown name is corruption (the set only grows with
/// the format version).
fn intern_pass_name(name: &str) -> WireResult<&'static str> {
    match name {
        "quantize-elision" => Ok("quantize-elision"),
        "cse" => Ok("cse"),
        "prune-pack" => Ok("prune-pack"),
        "fusion" => Ok("fusion"),
        "dead-slot" => Ok("dead-slot"),
        _ => Err(WireError::Corrupt("unknown optimizer pass name")),
    }
}

fn get_opt_report(r: &mut WireReader<'_>, version: u16) -> WireResult<OptReport> {
    let level = match r.get_u8()? {
        0 => OptLevel::None,
        1 => OptLevel::Standard,
        2 => OptLevel::Fusion,
        _ => return Err(WireError::Corrupt("unknown OptLevel tag")),
    };
    let ops_before = r.get_usize()?;
    let ops_after = r.get_usize()?;
    let macs_before = r.get_u64()?;
    let macs_after = r.get_u64()?;
    let n_passes = r.get_usize()?;
    if n_passes > 64 {
        return Err(WireError::Corrupt("pass count exceeds cap"));
    }
    let mut passes = Vec::with_capacity(n_passes);
    for _ in 0..n_passes {
        let name = r.get_str()?;
        passes.push(PassStats {
            pass: intern_pass_name(&name)?,
            removed: r.get_usize()?,
        });
    }
    Ok(OptReport {
        level,
        ops_before,
        ops_after,
        macs_before,
        macs_after,
        passes,
        totals: OptTotals {
            elided: r.get_usize()?,
            shared: r.get_usize()?,
            fused: r.get_usize()?,
            dead: r.get_usize()?,
            // v1 frames predate the prune-pack pass: no field, no work.
            pruned: if version >= 2 { r.get_usize()? } else { 0 },
        },
    })
}

/// Section id: program name, mode, input shapes, fingerprint, report.
const SEC_PROG_META: u32 = 1;
/// Section id: the topologically-ordered op list.
const SEC_PROG_NODES: u32 = 2;
/// Section id: the constant pool (weights), tensors back to back.
const SEC_PROG_CONSTS: u32 = 3;
/// Section id: session wiring (session input indices + output slots).
/// Optional — stateless programs omit it, so pre-session frames (and
/// their golden fixtures) decode unchanged.
const SEC_PROG_SESSION: u32 = 4;

/// Encodes a whole program as one [`KIND_PROGRAM`] frame: metadata, op
/// list and constant pool in separate sections. The program's
/// fingerprint rides in the metadata section and is re-checked on
/// decode.
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut meta = WireWriter::new();
    meta.put_str(p.name());
    put_eval_mode(&mut meta, p.mode());
    meta.put_usize(p.input_shapes().len());
    for shape in p.input_shapes() {
        meta.put_u32(shape.len() as u32);
        for d in shape {
            meta.put_usize(*d);
        }
    }
    meta.put_u64(p.fingerprint());
    match p.opt_report() {
        None => meta.put_u8(0),
        Some(report) => {
            meta.put_u8(1);
            put_opt_report(&mut meta, report);
        }
    }

    let mut nodes = WireWriter::new();
    nodes.put_usize(p.nodes().len());
    for node in p.nodes() {
        put_op(&mut nodes, &node.op);
        nodes.put_usize(node.inputs.len());
        for operand in &node.inputs {
            put_operand(&mut nodes, *operand);
        }
    }

    let mut consts = WireWriter::new();
    consts.put_usize(p.consts().len());
    for c in p.consts() {
        put_tensor(&mut consts, c);
    }

    let mut f = FrameBuilder::new(KIND_PROGRAM);
    f.section(SEC_PROG_META, meta.into_bytes());
    f.section(SEC_PROG_NODES, nodes.into_bytes());
    f.section(SEC_PROG_CONSTS, consts.into_bytes());
    if p.is_session() {
        let mut session = WireWriter::new();
        session.put_usize(p.session_inputs().len());
        for &i in p.session_inputs() {
            session.put_usize(i);
        }
        session.put_usize(p.session_outputs().len());
        for &s in p.session_outputs() {
            session.put_usize(s);
        }
        f.section(SEC_PROG_SESSION, session.into_bytes());
    }
    f.encode()
}

/// Decodes a frame produced by [`encode_program`].
///
/// Reconstruction goes through [`Program::builder`], so the decoded
/// program re-runs the same validation, shape inference, fingerprinting
/// and MAC costing as a locally-built one. The recomputed fingerprint
/// must equal the one recorded on the wire ([`WireError::FingerprintMismatch`]
/// otherwise), which makes the fingerprint an end-to-end content check
/// over ops, operands and every constant bit.
///
/// # Errors
///
/// Any [`WireError`]; semantic validation failures surface as
/// [`WireError::Rejected`].
pub fn decode_program(bytes: &[u8]) -> WireResult<Program> {
    let frame = FrameView::parse(bytes)?;
    if frame.kind() != KIND_PROGRAM {
        return Err(WireError::Corrupt("frame kind is not program"));
    }

    let mut meta = WireReader::new(frame.section(SEC_PROG_META)?);
    let name = meta.get_str()?;
    let mode = get_eval_mode(&mut meta)?;
    let n_inputs = meta.get_usize()?;
    if n_inputs > 4096 {
        return Err(WireError::Corrupt("input count exceeds cap"));
    }
    let mut builder = Program::builder(&name, mode);
    for _ in 0..n_inputs {
        let rank = meta.get_u32()?;
        if rank > 8 {
            return Err(WireError::Corrupt("input rank exceeds 8"));
        }
        let mut shape = Vec::with_capacity(rank as usize);
        for _ in 0..rank {
            shape.push(meta.get_usize()?);
        }
        builder.input(&shape);
    }
    let fingerprint = meta.get_u64()?;
    let opt = match meta.get_u8()? {
        0 => None,
        1 => Some(get_opt_report(&mut meta, frame.version())?),
        _ => return Err(WireError::Corrupt("unknown Option tag")),
    };
    meta.expect_end()?;

    let mut consts = WireReader::new(frame.section(SEC_PROG_CONSTS)?);
    let n_consts = consts.get_usize()?;
    if n_consts > 65_536 {
        return Err(WireError::Corrupt("const count exceeds cap"));
    }
    for _ in 0..n_consts {
        let t = get_tensor(&mut consts)?;
        builder.constant_shared(Arc::new(t));
    }
    consts.expect_end()?;

    let mut nodes = WireReader::new(frame.section(SEC_PROG_NODES)?);
    let n_nodes = nodes.get_usize()?;
    if n_nodes > 1_048_576 {
        return Err(WireError::Corrupt("node count exceeds cap"));
    }
    for _ in 0..n_nodes {
        let op = get_op(&mut nodes)?;
        let n_operands = nodes.get_usize()?;
        if n_operands > 4096 {
            return Err(WireError::Corrupt("operand count exceeds cap"));
        }
        let mut operands = Vec::with_capacity(n_operands);
        for _ in 0..n_operands {
            operands.push(get_operand(&mut nodes)?);
        }
        builder.push(op, &operands);
    }
    nodes.expect_end()?;

    // Optional session wiring (absent from stateless frames).
    match frame.section(SEC_PROG_SESSION) {
        Ok(body) => {
            let mut session = WireReader::new(body);
            let n_in_session = session.get_usize()?;
            if n_in_session > 4096 {
                return Err(WireError::Corrupt("session input count exceeds cap"));
            }
            for _ in 0..n_in_session {
                builder.mark_session_input(Operand::Slot(session.get_usize()?));
            }
            let n_out_session = session.get_usize()?;
            if n_out_session > 4096 {
                return Err(WireError::Corrupt("session output count exceeds cap"));
            }
            for _ in 0..n_out_session {
                let slot = session.get_usize()?;
                if slot < n_inputs {
                    return Err(WireError::Corrupt("session output names an input slot"));
                }
                builder.mark_session_output(Operand::Slot(slot));
            }
            session.expect_end()?;
        }
        Err(WireError::MissingSection { .. }) => {}
        Err(e) => return Err(e),
    }

    // `finish` re-validates and recomputes fingerprint + modeled MACs
    // from the decoded content — the wire carries no trusted derived
    // state beyond the fingerprint it is checked against.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptLevel;
    use onesa_tensor::rng::Pcg32;

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
        let mut w = WireWriter::new();
        put_tensor(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = get_tensor(&mut r).unwrap();
        r.expect_end().unwrap();
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
                        | WireError::MissingSection { .. }
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
        // The const pool is the last section; flip a bit in its final
        // f32 word (a weight element, after the count prefix).
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

    #[test]
    fn missing_section_is_typed() {
        let mut f = FrameBuilder::new(KIND_PROGRAM);
        f.section(SEC_PROG_META, Vec::new());
        let bytes = f.encode();
        match decode_program(&bytes) {
            // META parses first and is empty → truncated read inside it.
            Err(WireError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
        let mut f = FrameBuilder::new(KIND_PROGRAM);
        let p = sample_program();
        let encoded = encode_program(&p);
        let full = FrameView::parse(&encoded).unwrap();
        f.section(SEC_PROG_META, full.section(SEC_PROG_META).unwrap().to_vec());
        f.section(
            SEC_PROG_NODES,
            full.section(SEC_PROG_NODES).unwrap().to_vec(),
        );
        match decode_program(&f.encode()) {
            Err(WireError::MissingSection { id }) => assert_eq!(id, SEC_PROG_CONSTS),
            other => panic!("expected MissingSection, got {other:?}"),
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
        let mut w = WireWriter::new();
        w.put_u8(2);
        let bytes = w.into_bytes();
        assert!(matches!(
            WireReader::new(&bytes).get_bool(),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            get_nonlinear(&mut WireReader::new(&[99])),
            Err(WireError::Corrupt(_))
        ));
        assert!(matches!(
            get_op(&mut WireReader::new(&[200])),
            Err(WireError::Corrupt(_))
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
        let mut w = WireWriter::new();
        put_exec_stats(&mut w, &stats);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(get_exec_stats(&mut r).unwrap(), stats);
        r.expect_end().unwrap();

        let cfg = ArrayConfig::default();
        let mut w = WireWriter::new();
        put_array_config(&mut w, &cfg);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(get_array_config(&mut r).unwrap(), cfg);
        r.expect_end().unwrap();
    }
}
