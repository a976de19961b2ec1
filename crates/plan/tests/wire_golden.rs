//! Golden-frame tests for the wire format: committed byte fixtures
//! (`tests/fixtures/*_v{N}.bin`, `N` = [`wire::VERSION`]) pin the
//! **exact** encoding of the current format version.
//!
//! Two directions are locked in:
//!
//! * **encode** — today's encoder reproduces the committed bytes
//!   exactly. Any codec change that alters the stream, however
//!   innocent, fails here and forces a deliberate format-version bump
//!   (plus fresh fixtures) instead of a silent break.
//! * **decode** — today's decoder accepts the committed bytes and
//!   reconstructs semantically identical values.
//!
//! Host and worker are always one build, so a frame of any other
//! version is refused, typed. Negative cases prove malformed frames
//! surface as typed [`WireError`]s, never panics: truncation at every
//! prefix length, a wrong magic, a bumped or an older format version,
//! a corrupted payload bit or constant key (fingerprint mismatch), a
//! constant list cut short, and a program naming a constant its reader
//! lacks.
//!
//! Regenerating (only with a conscious version bump): delete the previous
//! version's fixtures and run
//! `ONESA_BLESS_FIXTURES=1 cargo test -p onesa-plan --test wire_golden`
//! once. Under the variable every test reads the freshly encoded frames
//! ([`fixture`]) instead of the files the run is rewriting, so one run
//! blesses and checks.

use onesa_cpwl::NonlinearFn;
use onesa_plan::wire::{self, Wire, WireError, WireReader, WireSink};
use onesa_plan::{tensor_fingerprint, EvalMode, Op, OptLevel, Precision, Program};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;
use std::collections::HashMap;
use std::path::PathBuf;

/// The fixtures, by the name each file carries before its version.
const FIXTURES: [&str; 5] = [
    "tensor",
    "program",
    "program_opt",
    "program_decode",
    "program_sparse",
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The current version's fixture `name`: `program` is `program_v7.bin`
/// at version 7.
fn fixture_path(name: &str) -> PathBuf {
    fixture_dir().join(format!("{name}_v{}.bin", wire::VERSION))
}

fn blessing() -> bool {
    std::env::var_os("ONESA_BLESS_FIXTURES").is_some()
}

/// Today's encoder's frame for fixture `name`.
fn golden(name: &str) -> Vec<u8> {
    match name {
        "tensor" => wire::encode_tensor(&golden_tensor()),
        "program" => wire::encode_program(&golden_program()),
        "program_opt" => wire::encode_program(&golden_optimized()),
        "program_decode" => wire::encode_program(&golden_decode_program()),
        "program_sparse" => wire::encode_program(&golden_sparse()),
        _ => panic!("no fixture named {name}"),
    }
}

/// The committed frame of fixture `name` — or, while blessing, today's
/// encoding of it, so no test reads a file the run is rewriting.
fn fixture(name: &str) -> Vec<u8> {
    if blessing() {
        return golden(name);
    }
    std::fs::read(fixture_path(name))
        .unwrap_or_else(|e| panic!("fixture {name} unreadable ({e}); bless it first"))
}

/// Compares today's encoding of fixture `name` against the committed
/// one and returns the committed bytes; rewrites the file first when
/// `ONESA_BLESS_FIXTURES` is set (version-bump workflow).
fn check_golden(name: &str) -> Vec<u8> {
    let encoded = golden(name);
    if blessing() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        std::fs::write(fixture_path(name), &encoded).unwrap();
    }
    let committed = fixture(name);
    assert_eq!(
        committed,
        encoded,
        "{name}: encoder output drifted from the committed v{} frame — \
         a wire change needs a format-version bump and fresh fixtures",
        wire::VERSION
    );
    committed
}

/// The tensor fixture: hostile values on purpose (NaN with payload,
/// signed zero, infinities, a subnormal) so byte-exactness covers the
/// full `f32` bit space, not just round numbers.
fn golden_tensor() -> Tensor {
    Tensor::from_vec(
        vec![
            1.5,
            -2.25,
            f32::from_bits(0x7FC0_DEAD),
            -0.0,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
        ],
        &[2, 3],
    )
    .unwrap()
}

/// The program fixture: a two-layer CPWL-mode MLP with a biased GEMM —
/// constants, bias vectors, mode flags and fingerprint all on the wire.
fn golden_program() -> Program {
    let mut rng = Pcg32::seed_from_u64(42);
    let mut b = Program::builder(
        "golden-mlp",
        EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        },
    );
    let x = b.input(&[2, 4]);
    let w1 = b.constant(rng.randn(&[4, 3], 1.0));
    let g1 = b.push(
        Op::Gemm {
            bias: Some(vec![0.1, -0.2, 0.3]),
            sparsity: None,
        },
        &[x, w1],
    );
    let nl = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[g1]);
    let w2 = b.constant(rng.randn(&[3, 2], 1.0));
    b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[nl, w2],
    );
    b.finish().unwrap()
}

/// The decode-step fixture: a session/cache-bearing frame — K/V session
/// inputs, `EmbedAt` at a context offset, per-row quantization,
/// `ConcatRows` cache appends marked as session outputs, attention over
/// the grown context, and a causal softmax over the grown keys whose
/// newest row `SliceRows` picks out — so the session lists and every
/// KV-cache, attention and row-pick op tag are pinned byte-exactly.
fn golden_decode_program() -> Program {
    let mut rng = Pcg32::seed_from_u64(9);
    let (ctx, d, vocab, max_len) = (3, 4, 6, 12);
    let mut b = Program::builder(
        "golden-decode",
        EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        },
    );
    let ids = b.input(&[1, 1]);
    let k_cache = b.session_input(&[ctx, d]);
    let v_cache = b.session_input(&[ctx, d]);
    let table = b.constant(rng.randn(&[vocab, d], 1.0));
    let pos = b.constant(rng.randn(&[max_len, d], 1.0));
    let e = b.push(Op::EmbedAt { offset: ctx }, &[ids, table, pos]);
    let q = b.push(Op::QuantizeRows, &[e]);
    let wk = b.constant(rng.randn(&[d, d], 1.0));
    let wv = b.constant(rng.randn(&[d, d], 1.0));
    let k_new = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q, wk],
    );
    let v_new = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q, wv],
    );
    let k_full = b.push(Op::ConcatRows, &[k_cache, k_new]);
    let v_full = b.push(Op::ConcatRows, &[v_cache, v_new]);
    b.mark_session_output(k_full);
    b.mark_session_output(v_full);
    let attention = Op::Attention {
        heads: 2,
        scale: 0.5,
        causal: true,
    };
    let context = b.push(attention, &[q, k_full, v_full]);
    let probs = b.push(Op::CausalSoftmax { offset: 0 }, &[k_full]);
    let newest = b.push(Op::SliceRows { start: ctx, len: 1 }, &[probs]);
    b.push(Op::Add, &[context, newest]);
    b.finish().unwrap()
}

/// The optimized-program fixture: carries an `OptReport`.
fn golden_optimized() -> Program {
    let mut rng = Pcg32::seed_from_u64(7);
    let w = rng.randn(&[4, 3], 1.0);
    let mut b = Program::builder(
        "golden-opt",
        EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        },
    );
    let x = b.input(&[2, 4]);
    let q1 = b.push(
        Op::Quantize {
            precision: Precision::Int16,
        },
        &[x],
    );
    let q2 = b.push(
        Op::Quantize {
            precision: Precision::Int16,
        },
        &[x],
    );
    let c1 = b.constant(w.clone());
    let c2 = b.constant(w);
    let g1 = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q1, c1],
    );
    let g2 = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q2, c2],
    );
    b.push(Op::Add, &[g1, g2]);
    b.finish().unwrap().optimize(OptLevel::Standard).unwrap()
}

/// The sparsity/precision fixture: a pruned weight whose zero
/// column-blocks the `prune-pack` pass rewrites to a sparse GEMM
/// attribute, plus an INT8 boundary — every byte of both attributes
/// pinned exactly.
fn golden_sparse() -> Program {
    let mut rng = Pcg32::seed_from_u64(11);
    let mut w = rng.randn(&[8, 48], 1.0);
    // Zero the last two of the three 16-column blocks.
    for r in 0..8 {
        for c in 16..48 {
            w.as_mut_slice()[r * 48 + c] = 0.0;
        }
    }
    let mut b = Program::builder(
        "golden-sparse",
        EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        },
    );
    let x = b.input(&[2, 8]);
    let q = b.push(
        Op::Quantize {
            precision: Precision::Int8,
        },
        &[x],
    );
    let wc = b.constant(w);
    b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q, wc],
    );
    b.finish().unwrap().optimize(OptLevel::Standard).unwrap()
}

#[test]
fn tensor_fixture_is_byte_exact_and_decodes() {
    let t = golden_tensor();
    let committed = check_golden("tensor");
    let back = wire::decode_tensor(&committed).expect("committed tensor frame decodes");
    assert_eq!(back.dims(), t.dims());
    for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }
}

#[test]
fn program_fixture_is_byte_exact_and_decodes() {
    let p = golden_program();
    let committed = check_golden("program");
    let back = wire::decode_program(&committed).expect("committed program frame decodes");
    assert_eq!(back.fingerprint(), p.fingerprint());
    assert_eq!(back.name(), "golden-mlp");
    assert_eq!(back.stages(), 3);
    assert_eq!(back.modeled_macs(), p.modeled_macs());
}

#[test]
fn optimized_program_fixture_keeps_its_report() {
    let p = golden_optimized();
    let committed = check_golden("program_opt");
    let back = wire::decode_program(&committed).expect("committed frame decodes");
    assert_eq!(back.fingerprint(), p.fingerprint());
    let report = back.opt_report().expect("opt report survives the wire");
    assert_eq!(report, p.opt_report().unwrap());
}

#[test]
fn decode_program_fixture_is_byte_exact_and_decodes() {
    let p = golden_decode_program();
    let committed = check_golden("program_decode");
    let back = wire::decode_program(&committed).expect("committed decode frame decodes");
    assert_eq!(back.fingerprint(), p.fingerprint());
    assert_eq!(back.name(), "golden-decode");
    assert!(back.is_session(), "session wiring survives the wire");
    assert_eq!(back.session_inputs(), p.session_inputs());
    assert_eq!(back.session_outputs(), p.session_outputs());
    assert_eq!(back.modeled_macs(), p.modeled_macs());
}

#[test]
fn sparse_program_fixture_is_byte_exact_and_decodes() {
    let p = golden_sparse();
    assert_eq!(
        p.opt_report().unwrap().totals.pruned,
        1,
        "prune-pack rewrote the zero-blocked GEMM"
    );
    let committed = check_golden("program_sparse");
    let back = wire::decode_program(&committed).expect("sparse frame decodes");
    assert_eq!(back.fingerprint(), p.fingerprint());
    assert_eq!(back, p, "sparsity + precision attributes survive exactly");
    assert_eq!(back.sparse_blocks(), (2, 3));
    assert_eq!(back.modeled_macs(), p.modeled_macs());
}

#[test]
fn corrupted_sparse_fixture_errors_and_never_panics() {
    // Flip every single byte of the sparse frame in turn: a corrupted
    // sparsity attribute must fail typed (the validator re-scans the
    // weight; the fingerprint covers the rest) — never a panic, never a
    // silently different program.
    let bytes = fixture("program_sparse");
    let original = wire::decode_program(&bytes).unwrap();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        if let Ok(p) = wire::decode_program(&corrupt) {
            assert_eq!(
                p.fingerprint(),
                original.fingerprint(),
                "byte {i}: a tolerated flip must decode to the identical program"
            );
        }
    }
}

#[test]
fn the_fixtures_are_the_current_versions_and_nothing_else() {
    let mut found: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    found.sort();
    let mut want: Vec<PathBuf> = FIXTURES.into_iter().map(fixture_path).collect();
    want.sort();
    assert_eq!(found, want);
}

#[test]
fn truncated_fixture_frames_error_and_never_panic() {
    for name in FIXTURES {
        let bytes = fixture(name);
        // Every proper prefix, and the whole frame plus one byte.
        let padded = [&bytes[..], &[0]].concat();
        let prefixes = (0..bytes.len()).map(|cut| &bytes[..cut]);
        for frame in prefixes.chain([&padded[..]]) {
            let r = if name == "tensor" {
                wire::decode_tensor(frame).map(drop)
            } else {
                wire::decode_program(frame).map(drop)
            };
            assert!(
                r.is_err(),
                "{name} as {} of its {} bytes must not decode",
                frame.len(),
                bytes.len()
            );
        }
    }
}

#[test]
fn corrupted_decode_fixture_errors_and_never_panics() {
    // Flip every single byte of the session-bearing frame in turn:
    // structural damage, const damage and session-wiring damage must
    // all surface as typed errors or decode to the identical program —
    // never a panic, never a silently different session contract.
    let bytes = fixture("program_decode");
    let original = wire::decode_program(&bytes).unwrap();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        if let Ok(p) = wire::decode_program(&corrupt) {
            assert_eq!(
                (p.session_inputs(), p.session_outputs()),
                (original.session_inputs(), original.session_outputs()),
                "byte {i}: a tolerated flip must not change the session contract"
            );
        }
    }
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut bytes = fixture("program");
    bytes[0] = b'X';
    match wire::decode_program(&bytes) {
        Err(WireError::BadMagic { found }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn bumped_format_version_is_rejected_not_panicked() {
    // A newer frame and one from the previous version alike.
    for version in [wire::VERSION + 1, wire::VERSION - 1] {
        let mut bytes = fixture("program");
        // Version field sits right after the 4-byte magic, little-endian.
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        match wire::decode_program(&bytes) {
            Err(WireError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, wire::VERSION);
            }
            other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_const_payload_trips_the_fingerprint_check() {
    let bytes = fixture("program");
    // Flip one bit in the last const f32 (the constant pool ends the
    // frame): structure still parses, semantics changed — the
    // recomputed fingerprint must disagree with the recorded one.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    match wire::decode_program(&corrupt) {
        Err(WireError::FingerprintMismatch { recorded, computed }) => {
            assert_ne!(recorded, computed);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

/// The program fixture's last constant — `w2`, a `[3, 2]` tensor — closes
/// the frame as its `(key, tensor)` pair: the offset of its key.
fn last_key_offset(bytes: &[u8]) -> usize {
    let tensor = 4 + 2 * 8 + 8 + 6 * 4;
    bytes.len() - tensor - 8
}

#[test]
fn a_constant_whose_bytes_are_not_its_key_is_a_fingerprint_mismatch() {
    let bytes = fixture("program");
    let at = last_key_offset(&bytes);
    let mut corrupt = bytes.clone();
    corrupt[at] ^= 0x01;
    let key = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    match wire::decode_program(&corrupt) {
        Err(WireError::FingerprintMismatch { recorded, computed }) => {
            assert_eq!((recorded ^ 0x01, computed), (key, key));
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

#[test]
fn a_constant_list_cut_short_is_truncated() {
    // The count still promises two pairs; the frame holds one.
    let bytes = fixture("program");
    let short = &bytes[..last_key_offset(&bytes)];
    assert!(matches!(
        wire::decode_program(short),
        Err(WireError::Truncated { .. })
    ));
}

/// A program body written for a reader that lacks only the constants
/// `lacks` picks.
struct Reader<F> {
    bytes: Vec<u8>,
    lacks: F,
}

impl<F: FnMut(&Tensor) -> bool> WireSink for Reader<F> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    fn lacks(&mut self, _key: u64, t: &Tensor) -> bool {
        (self.lacks)(t)
    }
}

fn body_for(p: &Program, lacks: impl FnMut(&Tensor) -> bool) -> Vec<u8> {
    let mut w = Reader {
        bytes: Vec::new(),
        lacks,
    };
    p.put(&mut w);
    w.bytes
}

#[test]
fn a_program_naming_a_constant_its_reader_lacks_is_corrupt() {
    let p = golden_program();
    let first = p.consts()[0].clone();
    let bodies = [
        body_for(&p, |_| false),
        body_for(&p, |t| t.shares_storage(&first)),
    ];
    for body in &bodies {
        let err = wire::get_program(&mut WireReader::new(body), &mut HashMap::new());
        assert!(matches!(err, Err(WireError::Corrupt(_))), "{err:?}");
    }
    // Against a store that holds both, the same key-only bytes decode to
    // the program, reading the store's buffers.
    let mut store = HashMap::new();
    let full = wire::encode_program(&p);
    let (_, mut r) = wire::open(&full).unwrap();
    wire::get_program(&mut r, &mut store).unwrap();
    assert_eq!(store.len(), 2);
    let back = wire::get_program(&mut WireReader::new(&bodies[0]), &mut store).unwrap();
    assert_eq!(back, p);
    for c in back.consts() {
        assert!(c.shares_storage(&store[&tensor_fingerprint(c)]));
    }
}
