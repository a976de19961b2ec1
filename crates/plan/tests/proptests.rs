//! Property-based tests for the program optimizer and the wire format:
//! randomized geometries and evaluation modes, conservatively-emitted
//! programs with duplicate boundaries / shared subexpressions, and the
//! contracts the pass pipeline and serialization promise —
//!
//! * [`OptLevel::Standard`] output is **bit-identical** to the
//!   unoptimized program on every input;
//! * `wire::encode → wire::decode` is the identity for tensors and
//!   programs — every `f32` bit (NaN payloads, signed zeros,
//!   subnormals) and the program fingerprint survive the round trip,
//!   and re-encoding the decoded value reproduces the original bytes
//!   (the encoding is canonical);
//! * `tensor_fingerprint` tells apart two tensors that differ in one bit
//!   of one value or of one dim, at every tail length of its 64 lanes.

use onesa_cpwl::NonlinearFn;
use onesa_plan::{
    tensor_fingerprint, wire, CompileCache, EvalMode, Op, OptLevel, PoolKind, Precision, Program,
    TableCache, PRUNE_BLOCK_COLS,
};
use onesa_tensor::im2col::Conv2dGeometry;
use onesa_tensor::parallel::Parallelism;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;
use proptest::prelude::*;

fn mode_strategy() -> impl Strategy<Value = EvalMode> {
    prop_oneof![
        Just(EvalMode::Exact),
        Just(EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        }),
        Just(EvalMode::Cpwl {
            granularity: 0.5,
            quantize: false,
        }),
        Just(EvalMode::Cpwl {
            granularity: 0.125,
            quantize: true,
        }),
    ]
}

/// A conservatively-emitted two-layer network over a random geometry:
/// the input is quantized once per consumer (two GEMM branches against
/// the same weights plus their sum), exactly the redundancy the
/// frontend emits and the optimizer is expected to clean up.
fn conservative_mlp(mode: EvalMode, m: usize, k: usize, n: usize, seed: u64) -> Program {
    let mut rng = Pcg32::seed_from_u64(seed);
    let w = rng.randn(&[k, n], 1.0);
    let w2 = rng.randn(&[n, 3], 1.0);
    let mut b = Program::builder("prop-mlp", mode);
    let x = b.input(&[m, k]);
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
    let c = b.constant(w.clone());
    let c_dup = b.constant(w); // duplicate registration: CSE sees through it
    let g1 = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q1, c],
    );
    let g2 = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q2, c_dup],
    );
    let sum = b.push(Op::Add, &[g1, g2]);
    let nl = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[sum]);
    let c2 = b.constant(w2);
    b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[nl, c2],
    );
    b.finish().expect("program builds")
}

fn run(p: &Program, x: &Tensor) -> Tensor {
    p.run(
        std::slice::from_ref(x),
        Parallelism::Sequential,
        &mut TableCache::new(),
    )
    .expect("program executes")
    .output
}

/// A kitchen-sink program touching **every** [`Op`] variant (both
/// `Gemm` forms, both pool kinds): the wire round-trip below must
/// reproduce all of them byte-exactly. Runs with two program inputs (an
/// image branch and a token-id branch) merged by a final classifier.
fn kitchen_sink(mode: EvalMode, c: usize, h: usize, func: NonlinearFn, seed: u64) -> Program {
    let mut rng = Pcg32::seed_from_u64(seed);
    let ch = 4;
    let (l, d, vocab, max_len) = (3, 5, 6, 8);
    let geo = Conv2dGeometry {
        in_channels: c,
        out_channels: ch,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let chan = |scale: f32, rng: &mut Pcg32| -> Vec<f32> {
        (0..c)
            .map(|_| rng.randn(&[1], scale).as_slice()[0])
            .collect()
    };
    let mut b = Program::builder("prop-kitchen-sink", mode);
    let x = b.input(&[c, h, h]);
    let ids = b.input(&[1, l]);
    // Image branch: quantize → affine → affine+relu in one op → conv
    // (im2col/gemm+bias/col2im) → global pool.
    let q = b.push(
        Op::Quantize {
            precision: Precision::Int16,
        },
        &[x],
    );
    let af = b.push(
        Op::Affine {
            k: chan(0.5, &mut rng),
            b: chan(0.2, &mut rng),
        },
        &[q],
    );
    let anl = b.push(
        Op::AffineNonlinear {
            k: chan(0.5, &mut rng),
            b: chan(0.2, &mut rng),
            func: NonlinearFn::Relu,
        },
        &[af],
    );
    let cols = b.push(Op::Im2col(geo), &[anl]);
    let wc = b.constant(rng.randn(&[c * 9, ch], 1.0));
    let bias: Vec<f32> = (0..ch)
        .map(|_| rng.randn(&[1], 0.1).as_slice()[0])
        .collect();
    let g = b.push(
        Op::Gemm {
            bias: Some(bias),
            sparsity: None,
        },
        &[cols, wc],
    );
    let ci = b.push(
        Op::Col2im {
            channels: ch,
            oh: h,
            ow: h,
        },
        &[g],
    );
    let pooled = b.push(Op::Pool(PoolKind::GlobalAvg), &[ci]);
    // Token branch: embed → layer norm → softmax → nonlinear → add, a
    // causal softmax over square scores, self-attention, a row slice,
    // mean-rows pool.
    let table = b.constant(rng.randn(&[vocab, d], 1.0));
    let pos = b.constant(rng.randn(&[max_len, d], 1.0));
    let e = b.push(Op::EmbedAt { offset: 0 }, &[ids, table, pos]);
    let ln = b.push(
        Op::LayerNorm {
            gamma: vec![1.0; d],
            beta: vec![0.0; d],
            eps: 1e-5,
        },
        &[e],
    );
    let sm = b.push(Op::Softmax, &[ln]);
    let nl = b.push(Op::Nonlinear(func), &[sm]);
    let add = b.push(Op::Add, &[nl, sm]);
    let gemm = Op::Gemm {
        bias: None,
        sparsity: None,
    };
    let wk = b.constant(rng.randn(&[d, l], 1.0));
    let scores = b.push(gemm.clone(), &[nl, wk]);
    let cs = b.push(Op::CausalSoftmax { offset: 0 }, &[scores]);
    let mixed = b.push(gemm.clone(), &[cs, add]);
    let att = b.push(
        Op::Attention {
            heads: d,
            scale: 0.5,
            causal: true,
        },
        &[mixed, nl, add],
    );
    let s1 = b.push(
        Op::SliceRows {
            start: 1,
            len: l - 1,
        },
        &[att],
    );
    let mr = b.push(Op::Pool(PoolKind::MeanRows), &[s1]);
    // Classify each branch and add the logits.
    let (wi, wt) = (rng.randn(&[ch, 2], 1.0), rng.randn(&[d, 2], 1.0));
    let (wi, wt) = (b.constant(wi), b.constant(wt));
    let li = b.push(gemm.clone(), &[pooled, wi]);
    let lt = b.push(gemm, &[mr, wt]);
    b.push(Op::Add, &[li, lt]);
    b.finish().expect("kitchen-sink builds")
}

/// Valid inputs for [`kitchen_sink`]: a random image plus in-range
/// token ids.
fn kitchen_sink_inputs(c: usize, h: usize, seed: u64) -> Vec<Tensor> {
    let x = Pcg32::seed_from_u64(seed ^ 0x51_4B).randn(&[c, h, h], 1.0);
    let ids = Tensor::from_vec(vec![0.0, 2.0, 4.0], &[1, 3]).unwrap();
    vec![x, ids]
}

/// A hand-rolled KV-cache decode step at context `ctx` — the
/// session-bearing frame shape the serving layer ships: session inputs
/// (K/V caches), `EmbedAt` at the context offset, per-row quantization,
/// `ConcatRows` cache appends marked as session outputs, attention over
/// the grown context twice — causal and unmasked — and the grown key
/// cache's newest row picked out.
fn session_decode_program(mode: EvalMode, ctx: usize, d: usize, seed: u64) -> Program {
    let mut rng = Pcg32::seed_from_u64(seed);
    let (vocab, max_len) = (6, 16);
    let mut b = Program::builder("prop-decode-step", mode);
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
    let attention = |heads, causal| Op::Attention {
        heads,
        scale: 0.5,
        causal,
    };
    let causal = b.push(attention(1, true), &[q, k_full, v_full]);
    let heads = if d % 2 == 0 { 2 } else { 1 };
    let plain = b.push(attention(heads, false), &[q, k_full, v_full]);
    let both = b.push(Op::Add, &[causal, plain]);
    let newest = b.push(Op::SliceRows { start: ctx, len: 1 }, &[k_full]);
    b.push(Op::Add, &[both, newest]);
    b.finish().expect("decode step builds")
}

/// Valid inputs for [`session_decode_program`]: one token id plus the
/// session's current K/V cache tensors, in declaration order.
fn session_decode_inputs(ctx: usize, d: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xCAFE);
    let ids = Tensor::from_vec(vec![(seed % 6) as f32], &[1, 1]).unwrap();
    vec![ids, rng.randn(&[ctx, d], 1.0), rng.randn(&[ctx, d], 1.0)]
}

/// A pruned network: the GEMM weight has `zeroed` of its
/// `PRUNE_BLOCK_COLS`-wide column blocks zeroed out, so
/// `OptLevel::Standard`'s prune-pack pass attaches a sparsity attribute
/// and an `Int8` boundary precedes the GEMM. Exercises both new wire
/// tags (20 and 21) plus the version-2 opt-report `pruned` counter.
fn pruned_int8_program(
    mode: EvalMode,
    m: usize,
    k: usize,
    blocks: usize,
    zeroed: usize,
    seed: u64,
) -> Program {
    let n = blocks * PRUNE_BLOCK_COLS;
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut w = rng.randn(&[k, n], 1.0);
    for r in 0..k {
        for c in (n - zeroed * PRUNE_BLOCK_COLS)..n {
            w.as_mut_slice()[r * n + c] = 0.0;
        }
    }
    let mut b = Program::builder("prop-pruned-int8", mode);
    let x = b.input(&[m, k]);
    let q = b.push(
        Op::Quantize {
            precision: Precision::Int8,
        },
        &[x],
    );
    let c = b.constant(w);
    b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[q, c],
    );
    b.finish().expect("program builds")
}

fn assert_programs_bit_identical(a: &Program, b: &Program, inputs: &[Tensor]) {
    let ya = a
        .run(inputs, Parallelism::Sequential, &mut TableCache::new())
        .expect("original runs")
        .output;
    let yb = b
        .run(inputs, Parallelism::Sequential, &mut TableCache::new())
        .expect("decoded runs")
        .output;
    assert_eq!(ya.dims(), yb.dims());
    for (va, vb) in ya.as_slice().iter().zip(yb.as_slice()) {
        assert_eq!(va.to_bits(), vb.to_bits(), "{va} vs {vb}");
    }
}

/// One [`Op::Attention`] case: `heads` heads of `dk` columns, `m` query
/// rows against `m + extra` key rows, values drawn so that every branch
/// of the kernels' zero handling shows — exact zeros of both signs at
/// `zero_pct` % density, magnitudes under 2⁻⁵⁰, and (by `special`) an
/// infinity or a NaN planted down one column of K or V — which a zero
/// query element or a masked probability must skip, not multiply — or
/// every value of V the negative
/// smallest subnormal — whose products with probabilities under ½
/// underflow, leaving `-0.0` contexts for the merge to make `+0.0`.
#[derive(Debug, Clone)]
struct AttentionCase {
    heads: usize,
    scale: f32,
    q: Tensor,
    k: Tensor,
    v: Tensor,
}

fn attention_case(
    heads: usize,
    dk: usize,
    m: usize,
    extra: usize,
    zero_pct: u32,
    special: u32,
    seed: u64,
) -> AttentionCase {
    let mut rng = Pcg32::seed_from_u64(seed);
    let (d, n) = (heads * dk, m + extra);
    let mut draw = |rows: usize| {
        let mut t = rng.randn(&[rows, d], 1.5);
        for v in t.as_mut_slice() {
            match rng.next_u32() % 100 {
                r if r < zero_pct => *v = if r % 2 == 0 { 0.0 } else { -0.0 },
                _ if rng.next_u32() % 16 == 0 => *v *= 2f32.powi(-60),
                _ => {}
            }
        }
        t
    };
    let (q, mut k, mut v) = (draw(m), draw(n), draw(n));
    let col = (seed as usize) % d;
    let plant = |t: &mut Tensor, value: f32| {
        for row in t.as_mut_slice().chunks_mut(d) {
            row[col] = value;
        }
    };
    match special {
        1 => plant(&mut k, f32::INFINITY),
        2 => plant(&mut v, f32::NEG_INFINITY),
        3 => plant(&mut v, f32::NAN),
        4 => v.as_mut_slice().fill(-f32::from_bits(1)),
        _ => {}
    }
    AttentionCase {
        heads,
        scale: 1.0 / (dk as f32).sqrt(),
        q,
        k,
        v,
    }
}

/// The per-head composition an [`Op::Attention`] stands for, op by op as
/// `MultiHeadAttention::forward_with` runs it: slice each head's
/// columns, `gemm::matmul` the query by the transposed keys, scale,
/// softmax the rows — the table routine over whole rows, or each causal
/// row's visible prefix through the row routine, exact `0.0` beyond —
/// `gemm::matmul` by the values, and `+=` into a zeroed output.
fn attention_reference(case: &AttentionCase, mode: EvalMode, causal: bool) -> Tensor {
    use onesa_cpwl::ops::{self, TableSet};
    use onesa_tensor::gemm;
    let (m, d) = (case.q.dims()[0], case.q.dims()[1]);
    let n = case.k.dims()[0];
    let dk = d / case.heads;
    let set = mode
        .granularity()
        .map(|g| TableSet::for_granularity(g).expect("table set"));
    let head = |x: &Tensor, h: usize| {
        let rows = x
            .as_slice()
            .chunks(d)
            .flat_map(|r| &r[h * dk..(h + 1) * dk]);
        Tensor::from_vec(rows.copied().collect(), &[x.dims()[0], dk]).unwrap()
    };
    let mut out = Tensor::zeros(&[m, d]);
    for h in 0..case.heads {
        let kt = head(&case.k, h).transpose().unwrap();
        let scores = gemm::matmul(&head(&case.q, h), &kt)
            .unwrap()
            .scale(case.scale);
        let p = match (&set, causal) {
            (Some(set), false) => set.softmax_rows(&scores).unwrap(),
            (None, false) => ops::softmax_rows_exact(&scores).unwrap(),
            (_, true) => {
                let mut p = Tensor::zeros(&[m, n]);
                let rows = p.as_mut_slice().chunks_mut(n);
                for (i, (row, src)) in rows.zip(scores.as_slice().chunks(n)).enumerate() {
                    let row = &mut row[..n - m + i + 1];
                    row.copy_from_slice(&src[..row.len()]);
                    match &set {
                        Some(set) => set.softmax_row(row),
                        None => ops::softmax_row_exact(row),
                    }
                }
                p
            }
        };
        let ctx = gemm::matmul(&p, &head(&case.v, h)).unwrap();
        for i in 0..m {
            for j in 0..dk {
                out.as_mut_slice()[i * d + h * dk + j] += ctx.as_slice()[i * dk + j];
            }
        }
    }
    out
}

/// A program of one [`Op::Attention`] over `case`'s shapes.
fn attention_program(case: &AttentionCase, mode: EvalMode, causal: bool) -> Program {
    let mut b = Program::builder("prop-attention", mode);
    let ins = [&case.q, &case.k, &case.v].map(|t| b.input(t.dims()));
    let op = Op::Attention {
        heads: case.heads,
        scale: case.scale,
        causal,
    };
    b.push(op, &ins);
    b.finish().expect("attention program builds")
}

/// Width of the activations in [`chain_program`]: two attention heads of
/// four columns.
const CHAIN_D: usize = 8;

/// One member of a row-stacked window: its activation rows, its session
/// cache rows, after which link of the chain each reader reads it
/// (`ConcatRows`, `Attention`, `Quantize`; 5 is none), its nonlinear and
/// the seed of its own GEMM biases.
#[derive(Debug, Clone)]
struct ChainRecipe {
    rows: usize,
    ctx: usize,
    readers: [usize; 3],
    func: NonlinearFn,
    bias_seed: u64,
}

impl ChainRecipe {
    /// A recipe drawn from `seed`.
    fn drawn(seed: u64) -> ChainRecipe {
        let mut rng = Pcg32::seed_from_u64(seed);
        let funcs = [NonlinearFn::Gelu, NonlinearFn::Relu, NonlinearFn::Sigmoid];
        ChainRecipe {
            rows: 1 + rng.below(9) as usize,
            ctx: 1 + rng.below(4) as usize,
            readers: [0; 3].map(|_| rng.below(6) as usize),
            func: funcs[rng.below(3) as usize],
            bias_seed: u64::from(rng.next_u32()),
        }
    }
}

/// A GEMM → `Add` → `QuantizeRows` → `LayerNorm` → `Nonlinear` chain over
/// `[rows, CHAIN_D]` activations and a closing GEMM. Every member shares
/// the two weights and the layer norm's parameters, and has its own
/// biases. After its drawn link each reader reads the chain: a
/// `ConcatRows` onto the session cache (a session output), an unmasked
/// `Attention` over it (or over the chain itself) added back in, and a
/// tensor-wide INT16 `Quantize` added back in.
fn chain_program(r: &ChainRecipe, mode: EvalMode) -> Program {
    let d = CHAIN_D;
    let mut b = Program::builder("prop-rows", mode);
    let x = b.input(&[r.rows, d]);
    let cache = b.session_input(&[r.ctx, d]);
    let mut rng = Pcg32::seed_from_u64(7);
    let (w1, w2) = (rng.randn(&[d, d], 0.5), rng.randn(&[d, d], 0.5));
    let (w1, w2) = (b.constant(w1), b.constant(w2));
    let gamma: Vec<f32> = (0..d).map(|c| 1.0 + c as f32 * 0.125).collect();
    let beta: Vec<f32> = (0..d).map(|c| [0.25, -0.0, 0.0][c % 3]).collect();
    let mut biases = Pcg32::seed_from_u64(r.bias_seed);
    let mut gemm = || Op::Gemm {
        bias: Some(biases.randn(&[d], 1.0).as_slice().to_vec()),
        sparsity: None,
    };
    let (mut cur, mut kv) = (x, None);
    for link in 0..5 {
        cur = match link {
            0 => b.push(gemm(), &[cur, w1]),
            1 => b.push(Op::Add, &[cur, x]),
            2 => b.push(Op::QuantizeRows, &[cur]),
            3 => {
                let (gamma, beta) = (gamma.clone(), beta.clone());
                b.push(
                    Op::LayerNorm {
                        gamma,
                        beta,
                        eps: 1e-5,
                    },
                    &[cur],
                )
            }
            _ => b.push(Op::Nonlinear(r.func), &[cur]),
        };
        if r.readers[0] == link {
            let grown = b.push(Op::ConcatRows, &[cache, cur]);
            b.mark_session_output(grown);
            kv = Some(grown);
        }
        if r.readers[1] == link {
            let kv = kv.unwrap_or(cur);
            let attention = Op::Attention {
                heads: 2,
                scale: 0.5,
                causal: false,
            };
            let a = b.push(attention, &[cur, kv, kv]);
            cur = b.push(Op::Add, &[cur, a]);
        }
        if r.readers[2] == link {
            let int16 = Op::Quantize {
                precision: Precision::Int16,
            };
            let q = b.push(int16, &[cur]);
            cur = b.push(Op::Add, &[q, cur]);
        }
    }
    b.push(gemm(), &[cur, w2]);
    b.finish().expect("chain program builds")
}

/// `[rows, CHAIN_D]` values with zeros of both signs and magnitudes under
/// 2⁻⁵⁰ sprinkled in, and — for `nan` — one NaN with a payload.
fn hostile_rows(rows: usize, nan: bool, seed: u64) -> Tensor {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut t = rng.randn(&[rows, CHAIN_D], 1.5);
    for v in t.as_mut_slice() {
        match rng.below(8) {
            0 => *v = 0.0,
            1 => *v = -0.0,
            2 => *v *= 2f32.powi(-60),
            _ => {}
        }
    }
    if nan {
        let at = rng.below(t.len() as u32) as usize;
        t.as_mut_slice()[at] = f32::from_bits(0x7fc0_0000 | (rng.next_u32() & 0x3f_ffff));
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `len` arbitrary bit patterns (NaN payloads, infinities, subnormals
/// and signed zeros included) shaped `[len]`, `[1, len]` or `[len, 1]`
/// by `shape`.
fn raw_tensor(len: usize, shape: u32, rng: &mut Pcg32) -> Tensor {
    let values = (0..len).map(|_| f32::from_bits(rng.next_u32())).collect();
    let dims = match shape {
        0 => vec![len],
        1 => vec![1, len],
        _ => vec![len, 1],
    };
    Tensor::from_vec(values, &dims).expect("volume matches")
}

proptest! {
    // Pinned case count: CI runs are deterministic and reproducible.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`Op::Attention`] is bit-identical to its per-head composition
    /// under both modes and both masks, across the in-place (under four
    /// query rows) and swept kernels, zeros of both signs at every
    /// density, tiny magnitudes and non-finite keys or values; and an
    /// unmasked group of batch-mates — same heads and key rows, their own
    /// query rows and values — runs as one group, each member's output
    /// the one it has alone.
    #[test]
    fn attention_is_bit_identical_to_its_per_head_composition(
        mode in mode_strategy(),
        heads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        dk in 1usize..=12,
        m in prop_oneof![1usize..4, 4usize..=20],
        extra in 0usize..=20,
        zero_pct in prop_oneof![Just(0u32), Just(100u32), 0u32..=100],
        special in 0u32..5,
        causal in prop_oneof![Just(false), Just(true)],
        mates in 1usize..4,
        seed in 0u64..1 << 32,
    ) {
        let case = attention_case(heads, dk, m, extra, zero_pct, special, seed);
        let program = attention_program(&case, mode, causal);
        let inputs = [case.q.clone(), case.k.clone(), case.v.clone()];
        let solo = program
            .run(&inputs, Parallelism::Threads(2), &mut TableCache::new())
            .expect("attention runs")
            .output;
        prop_assert_eq!(bits(&solo), bits(&attention_reference(&case, mode, causal)));

        // Batch-mates: the same op over the same key rows, fresh values.
        let cases: Vec<AttentionCase> = (0..mates)
            .map(|i| {
                let rows = 1 + (seed as usize >> (8 * i)) % (m + extra);
                attention_case(heads, dk, rows, m + extra - rows, zero_pct, special, seed ^ (i as u64 + 1))
            })
            .chain([case])
            .collect();
        let programs: Vec<Program> = cases.iter().map(|c| attention_program(c, mode, causal)).collect();
        let inputs: Vec<[Tensor; 3]> = cases
            .iter()
            .map(|c| [c.q.clone(), c.k.clone(), c.v.clone()])
            .collect();
        let jobs: Vec<(&Program, &[Tensor])> =
            programs.iter().zip(&inputs).map(|(p, x)| (p, &x[..])).collect();
        let mut tables = TableCache::new();
        let cfg = onesa_sim::ArrayConfig::new(8, 16);
        let staged = onesa_plan::run_staged(&jobs, &cfg, Parallelism::Sequential, &mut tables)
            .expect("group runs");
        let groups = if causal { cases.len() } else { 1 };
        prop_assert_eq!(staged.stages[0].groups, groups);
        for ((run, p), x) in staged.runs.iter().zip(&programs).zip(&inputs) {
            let alone = p.run(x, Parallelism::Sequential, &mut tables).expect("member runs");
            prop_assert_eq!(bits(&run.output), bits(&alone.output));
        }
    }

    /// A window of row-stacked members — clones of one program beside
    /// programs of their own, each a GEMM → `Add` → `QuantizeRows` →
    /// `LayerNorm` → `Nonlinear` chain with `ConcatRows`, `Attention` and
    /// `Quantize` readers drawn in between — runs every member exactly as
    /// it runs alone: output, session outputs and op stats, bit for bit,
    /// over random row counts, zeros of both signs, tiny magnitudes and
    /// NaN payloads, with one to nine rows per member, under one, two and
    /// four threads. Stacked groups hand their product on as one block,
    /// read in place by the next group when its members are the block's
    /// rows in order, and gathered when they are not — but for a GEMM,
    /// whose sweep reads the members' rows where they lie, in parts.
    #[test]
    fn row_stacked_windows_are_bit_identical_to_solo_runs(
        mode in mode_strategy(),
        base in 0u64..1 << 32,
        kinds in proptest::collection::vec(0u32..3, 2..=6),
        nan in prop_oneof![Just(false), Just(false), Just(true)],
        seed in 0u64..1 << 32,
    ) {
        // Two in three members run a clone of the base program.
        let base = chain_program(&ChainRecipe::drawn(base), mode);
        let programs: Vec<Program> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| match kind {
                0 | 1 => base.clone(),
                _ => chain_program(&ChainRecipe::drawn(seed ^ (i as u64 + 1) << 40), mode),
            })
            .collect();
        let inputs: Vec<[Tensor; 2]> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let [x, cache] = [0, 1].map(|k| p.input_shapes()[k][0]);
                let member = seed.wrapping_mul(31) + 2 * i as u64;
                let nan_at = nan && i == 0;
                [hostile_rows(x, nan_at, member), hostile_rows(cache, false, member + 1)]
            })
            .collect();
        let jobs: Vec<(&Program, &[Tensor])> =
            programs.iter().zip(&inputs).map(|(p, x)| (p, &x[..])).collect();
        let cfg = onesa_sim::ArrayConfig::new(8, 16);
        let mut tables = TableCache::new();
        for par in [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Threads(4)] {
            let staged = onesa_plan::run_staged(&jobs, &cfg, par, &mut tables)
                .expect("window runs");
            // Every member opens with a GEMM against the one shared weight.
            prop_assert_eq!(staged.stages[0].groups, 1);
            for (i, (run, job)) in staged.runs.iter().zip(&jobs).enumerate() {
                let alone = onesa_plan::run_staged(&[*job], &cfg, Parallelism::Sequential, &mut tables)
                    .expect("member runs");
                let alone = &alone.runs[0];
                let what = par.label();
                prop_assert_eq!(bits(&run.output), bits(&alone.output), "member {} {}", i, what);
                prop_assert_eq!(run.session_outputs.len(), alone.session_outputs.len());
                for (got, want) in run.session_outputs.iter().zip(&alone.session_outputs) {
                    prop_assert_eq!(bits(got), bits(want), "member {} session output {}", i, what);
                }
            }
        }
    }

    /// Standard-level optimization is bit-identical over randomized
    /// geometries and modes, and actually removes the emitted
    /// redundancy (the duplicate boundary, then the GEMM it exposes).
    #[test]
    fn standard_level_is_bit_identical(
        mode in mode_strategy(),
        m in 1usize..5,
        k in 1usize..7,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let p = conservative_mlp(mode, m, k, n, seed);
        let o = p.optimize(OptLevel::Standard).expect("optimizes");
        let report = o.opt_report().expect("report recorded");
        prop_assert_eq!(report.totals.shared, 2);
        prop_assert!(o.stages() < p.stages());
        let x = Pcg32::seed_from_u64(seed ^ 0xABCD).randn(&[m, k], 1.0);
        let (y0, y1) = (run(&p, &x), run(&o, &x));
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
        // Structural invariants survive the rewrite.
        prop_assert_eq!(o.output_shape(), p.output_shape());
        prop_assert_eq!(o.modeled_macs() > 0, true);
    }

    /// The compile cache hits (same `Arc`, stable fingerprint) for a
    /// repeated geometry and misses for a fresh one.
    #[test]
    fn compile_cache_hits_and_invalidates(
        mode in mode_strategy(),
        m in 1usize..5,
        k in 1usize..7,
        seed in 0u64..1000,
    ) {
        let cache = CompileCache::new();
        let build = |m: usize| {
            conservative_mlp(mode, m, k, 4, seed).optimize(OptLevel::Standard)
        };
        let a = cache
            .get_or_compile(mode, &[m, k], 0, || build(m))
            .expect("compiles");
        let b = cache
            .get_or_compile(mode, &[m, k], 0, || build(m))
            .expect("compiles");
        prop_assert!(std::sync::Arc::ptr_eq(&a, &b));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let g = cache
            .get_or_compile(mode, &[m + 1, k], 0, || build(m + 1))
            .expect("compiles");
        prop_assert!(!std::sync::Arc::ptr_eq(&a, &g));
        prop_assert_eq!(cache.misses(), 2);
    }

    /// One flipped bit — of any value, or of a dim's low bits (the
    /// values then cut or zero-padded to the new volume) — changes
    /// [`tensor_fingerprint`], at every length from empty to three full
    /// 64-value chunks and one over, so every tail length is covered.
    #[test]
    fn tensor_fingerprint_sees_every_single_bit_flip(
        seed in 0u64..1_000_000,
        shape in 0u32..3,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for len in 0..=3 * 64 + 1 {
            let t = raw_tensor(len, shape, &mut rng);
            let h = tensor_fingerprint(&t);
            if len > 0 {
                let mut flipped = t.clone();
                let at = rng.below(len as u32) as usize;
                let v = &mut flipped.as_mut_slice()[at];
                *v = f32::from_bits(v.to_bits() ^ 1 << rng.below(32));
                prop_assert_ne!(tensor_fingerprint(&flipped), h, "len {} value {}", len, at);
            }
            let mut dims = t.dims().to_vec();
            let axis = rng.below(dims.len() as u32) as usize;
            dims[axis] ^= 1 << rng.below(3);
            let volume = dims.iter().product();
            let mut values = t.as_slice().to_vec();
            values.resize(volume, 0.0);
            let reshaped = Tensor::from_vec(values, &dims).expect("volume matches");
            prop_assert_ne!(tensor_fingerprint(&reshaped), h, "{:?} -> {:?}", t.dims(), dims);
        }
    }

    /// Tensor wire round trips are the identity on every bit — NaN
    /// payloads, signed zeros, infinities and subnormals included — and
    /// the encoding is canonical (re-encoding reproduces the bytes).
    #[test]
    fn wire_tensor_round_trip_is_bit_exact(
        rank in 1usize..5,
        dim in 1usize..6,
        seed in 0u64..10_000,
        special in 0u32..5,
    ) {
        let dims: Vec<usize> = (0..rank).map(|i| 1 + (dim + i) % 5).collect();
        let mut t = Pcg32::seed_from_u64(seed).randn(&dims, 2.0);
        // Plant a hostile bit pattern at a deterministic position: the
        // wire must not canonicalize NaNs or drop signs/subnormals.
        let volume = t.as_slice().len();
        let probe = seed as usize % volume;
        t.as_mut_slice()[probe] = match special {
            0 => f32::from_bits(0x7FC0_DEAD), // NaN with payload
            1 => -0.0,
            2 => f32::NEG_INFINITY,
            3 => f32::MIN_POSITIVE / 4.0, // subnormal
            _ => f32::MAX,
        };
        let bytes = wire::encode_tensor(&t);
        let back = wire::decode_tensor(&bytes).expect("decodes");
        prop_assert_eq!(back.dims(), t.dims());
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
        prop_assert_eq!(wire::encode_tensor(&back), bytes);
    }

    /// Program wire round trips preserve every [`Op`] variant, the
    /// fingerprint, the modeled cost, and runtime semantics (decoded
    /// programs execute bit-identically); the encoding is canonical.
    #[test]
    fn wire_program_round_trip_covers_every_op(
        mode in mode_strategy(),
        c in 1usize..4,
        h in 3usize..6,
        func in prop_oneof![
            Just(NonlinearFn::Gelu),
            Just(NonlinearFn::Tanh),
            Just(NonlinearFn::Sigmoid),
        ],
        seed in 0u64..1000,
    ) {
        let p = kitchen_sink(mode, c, h, func, seed);
        let bytes = wire::encode_program(&p);
        let back = wire::decode_program(&bytes).expect("decodes");
        prop_assert_eq!(back.fingerprint(), p.fingerprint());
        prop_assert_eq!(back.name(), p.name());
        prop_assert_eq!(back.stages(), p.stages());
        prop_assert_eq!(back.modeled_macs(), p.modeled_macs());
        prop_assert_eq!(back.output_shape(), p.output_shape());
        prop_assert_eq!(wire::encode_program(&back), bytes);
        assert_programs_bit_identical(&p, &back, &kitchen_sink_inputs(c, h, seed));
    }

    /// Optimized programs survive the wire with their optimization
    /// report (pass names and totals) intact, still bit-identical at
    /// runtime.
    #[test]
    fn wire_round_trip_preserves_opt_report(
        mode in mode_strategy(),
        m in 1usize..5,
        k in 1usize..7,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let o = conservative_mlp(mode, m, k, n, seed)
            .optimize(OptLevel::Standard)
            .expect("optimizes");
        let bytes = wire::encode_program(&o);
        let back = wire::decode_program(&bytes).expect("decodes");
        let (ra, rb) = (o.opt_report().expect("report"), back.opt_report().expect("report kept"));
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(wire::encode_program(&back), bytes);
        let x = Pcg32::seed_from_u64(seed ^ 0xD0_0D).randn(&[m, k], 1.0);
        let (ya, yb) = (run(&o, &x), run(&back, &x));
        for (a, b) in ya.as_slice().iter().zip(yb.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Session/cache-bearing program frames survive the wire: the
    /// session-input/-output slot lists, the session-conditional
    /// fingerprint, modeled context-dependent cost and the runtime
    /// semantics — program output **and** every appended cache tensor —
    /// are bit-identical after decode, and the encoding is canonical.
    #[test]
    fn wire_session_program_round_trip_keeps_cache_frames(
        mode in mode_strategy(),
        ctx in 1usize..8,
        d in 2usize..6,
        seed in 0u64..1000,
    ) {
        let p = session_decode_program(mode, ctx, d, seed);
        prop_assert!(p.is_session());
        let bytes = wire::encode_program(&p);
        let back = wire::decode_program(&bytes).expect("decodes");
        prop_assert_eq!(back.fingerprint(), p.fingerprint());
        prop_assert!(back.is_session());
        prop_assert_eq!(back.session_inputs(), p.session_inputs());
        prop_assert_eq!(back.session_outputs(), p.session_outputs());
        prop_assert_eq!(back.modeled_macs(), p.modeled_macs());
        prop_assert_eq!(wire::encode_program(&back), bytes);
        let inputs = session_decode_inputs(ctx, d, seed);
        let (ra, rb) = (
            p.run(&inputs, Parallelism::Sequential, &mut TableCache::new())
                .expect("original runs"),
            back.run(&inputs, Parallelism::Sequential, &mut TableCache::new())
                .expect("decoded runs"),
        );
        for (a, b) in ra.output.as_slice().iter().zip(rb.output.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(ra.session_outputs.len(), 2);
        for (ta, tb) in ra.session_outputs.iter().zip(&rb.session_outputs) {
            prop_assert_eq!(ta.dims(), &[ctx + 1, d][..]);
            for (a, b) in ta.as_slice().iter().zip(tb.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // A decode step's cost tracks its context: the same frame one
        // row deeper must model strictly more work.
        let deeper = session_decode_program(mode, ctx + 1, d, seed);
        prop_assert!(deeper.modeled_macs() > p.modeled_macs());
        prop_assert_ne!(deeper.fingerprint(), p.fingerprint());
    }

    /// Sparsity- and precision-attributed programs survive the wire:
    /// the prune-pack attribute (block geometry, skipped-block credit),
    /// the `Int8` rung, the sparse-credited modeled cost and the
    /// version-2 `pruned` report counter all round-trip, the encoding
    /// stays canonical, and the decoded program still executes
    /// bit-identically to the pre-wire one.
    #[test]
    fn wire_round_trip_keeps_sparsity_and_precision_attributes(
        mode in mode_strategy(),
        m in 1usize..5,
        k in 1usize..7,
        blocks in 2usize..5,
        zeroed_frac in 1usize..4,
        seed in 0u64..1000,
    ) {
        let zeroed = (blocks * zeroed_frac) / 4; // 0..blocks zeroed blocks
        let p = pruned_int8_program(mode, m, k, blocks, zeroed, seed);
        let o = p.optimize(OptLevel::Standard).expect("optimizes");
        let report = o.opt_report().expect("report recorded");
        let expect_pruned = usize::from(zeroed > 0);
        prop_assert_eq!(report.totals.pruned, expect_pruned);
        prop_assert_eq!(o.sparse_blocks(), (zeroed as u64, if zeroed > 0 { blocks as u64 } else { 0 }));
        let bytes = wire::encode_program(&o);
        let back = wire::decode_program(&bytes).expect("decodes");
        prop_assert_eq!(back.fingerprint(), o.fingerprint());
        prop_assert_eq!(back.sparse_blocks(), o.sparse_blocks());
        prop_assert_eq!(back.modeled_macs(), o.modeled_macs());
        prop_assert_eq!(back.opt_report().expect("report kept"), report);
        prop_assert_eq!(wire::encode_program(&back), bytes);
        if zeroed > 0 {
            // Sparse credit shows in the modeled cost: the attributed
            // program must model strictly less work than the dense one.
            prop_assert!(o.modeled_macs() < p.modeled_macs());
            let gemm = back
                .nodes()
                .iter()
                .find_map(|node| match &node.op {
                    Op::Gemm { sparsity: Some(s), .. } => Some(*s),
                    _ => None,
                })
                .expect("sparse attribute survived");
            prop_assert_eq!(gemm.block_cols, PRUNE_BLOCK_COLS);
            prop_assert_eq!(gemm.total_blocks - gemm.nnz_blocks, zeroed);
        }
        let x = Pcg32::seed_from_u64(seed ^ 0xF00D).randn(&[m, k], 1.0);
        let (ya, yb) = (run(&o, &x), run(&back, &x));
        for (a, b) in ya.as_slice().iter().zip(yb.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The parameter-carrying nonlinears (`Elu`, `LeakyRelu`) keep
    /// their `f32` parameters bit-exactly across the wire (Exact mode:
    /// the CPWL table set does not cache them).
    #[test]
    fn wire_round_trip_keeps_parametric_nonlinears(
        alpha in -2.0f32..2.0,
        slope in -1.0f32..1.0,
        m in 1usize..4,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut b = Program::builder("prop-parametric", EvalMode::Exact);
        let x = b.input(&[m, n]);
        let e = b.push(Op::Nonlinear(NonlinearFn::Elu(alpha)), &[x]);
        b.push(Op::Nonlinear(NonlinearFn::LeakyRelu(slope)), &[e]);
        let p = b.finish().expect("builds");
        let bytes = wire::encode_program(&p);
        let back = wire::decode_program(&bytes).expect("decodes");
        prop_assert_eq!(back.fingerprint(), p.fingerprint());
        match (&back.nodes()[0].op, &back.nodes()[1].op) {
            (Op::Nonlinear(NonlinearFn::Elu(a)), Op::Nonlinear(NonlinearFn::LeakyRelu(s))) => {
                prop_assert_eq!(a.to_bits(), alpha.to_bits());
                prop_assert_eq!(s.to_bits(), slope.to_bits());
            }
            other => prop_assert!(false, "ops changed shape on the wire: {:?}", other),
        }
        let xin = Pcg32::seed_from_u64(seed).randn(&[m, n], 1.5);
        let (ya, yb) = (run(&p, &xin), run(&back, &xin));
        for (a, b) in ya.as_slice().iter().zip(yb.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
