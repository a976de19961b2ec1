//! Compiling whole networks to `onesa_plan` operator-graph programs.
//!
//! Every model family implements [`Compile`]: it walks its own layers
//! and emits a [`Program`] that replays the inference math op for op —
//! im2col + GEMM + col2im for convolutions, folded batch-norm affines,
//! one attention op per layer with table-lowered softmax, CPWL nonlinears
//! and INT16 `Quantize` boundaries exactly where the chosen
//! [`InferenceMode`] applies them. Running the compiled program is
//! **bit-identical** to the model's `*_direct` layer-by-layer path for
//! every mode (locked in by `tests/integration_plan.rs`), which is what
//! lets `onesa_core`'s batch/serve engines schedule whole networks the
//! way they batch single GEMMs.
//!
//! The `Ctx` of each impl carries the per-request specialization:
//!
//! | model | `Ctx` | program input |
//! |---|---|---|
//! | [`SmallCnn`] | `(&InferenceMode, (h, w))` | one `[C, H, W]` image |
//! | [`TinyBert`] | `(&InferenceMode, seq_len)` | one `[1, L]` id row ([`TinyBert::ids_tensor`]) |
//! | [`Gcn`] | `(&InferenceMode, &GraphDataset)` | the `[N, F]` node features |
//!
//! # Example
//!
//! ```
//! use onesa_nn::models::SmallCnn;
//! use onesa_nn::InferenceMode;
//! use onesa_plan::{Compile, TableCache};
//! use onesa_tensor::parallel::Parallelism;
//! use onesa_tensor::rng::Pcg32;
//!
//! let cnn = SmallCnn::new(7, 1, 3);
//! let mode = InferenceMode::cpwl(0.25).expect("valid granularity");
//! let program = cnn.compile((&mode, (8, 8)))?;
//! let x = Pcg32::seed_from_u64(1).randn(&[1, 8, 8], 1.0);
//! let run = program.run(&[x.clone()], Parallelism::Sequential, &mut TableCache::new())?;
//! assert_eq!(run.output.into_vec(), cnn.logits(&x, &mode));
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::infer::InferenceMode;
use crate::layers::Linear;
use crate::models::{EncoderBlock, Gcn, SmallCnn, TinyBert, TinyCausalLm};
use onesa_cpwl::NonlinearFn;
use onesa_data::GraphDataset;
use onesa_plan::{
    Compile, Op, Operand, PoolKind, Precision, Program, ProgramBuilder, ProgramRun, TableCache,
};
use onesa_tensor::{Result, Tensor};

/// Runs a compiled program solo, seeding the executor's table cache
/// with the mode's own table set so nothing is rebuilt.
///
/// # Panics
///
/// Panics if the program fails to execute — compiled programs are
/// validated at build time, so this indicates a compiler bug.
pub(crate) fn run_compiled(program: &Program, inputs: &[Tensor], mode: &InferenceMode) -> Tensor {
    run_compiled_full(program, inputs, mode).output
}

/// As [`run_compiled`], but returns the whole [`ProgramRun`] — output
/// plus session-output tensors — for callers that thread a KV cache
/// between steps ([`TinyCausalLm::prefill`]/[`TinyCausalLm::decode_step`]).
///
/// # Panics
///
/// Panics if the program fails to execute — compiled programs are
/// validated at build time, so this indicates a compiler bug.
pub(crate) fn run_compiled_full(
    program: &Program,
    inputs: &[Tensor],
    mode: &InferenceMode,
) -> ProgramRun {
    let mut cache = TableCache::new();
    if let Some(tables) = mode.shared_table_set() {
        // Zero-copy: the mode's tables are Arc-shared into the cache.
        cache.seed_shared(tables);
    }
    program
        .run(
            inputs,
            onesa_tensor::parallel::Parallelism::Sequential,
            &mut cache,
        )
        .expect("compiled program executes")
}

/// Emits `Quantize` only when the mode round-trips layer boundaries
/// through INT16 (mirrors `InferenceMode::boundary`).
///
/// The compilers below emit this conservatively, **once per consumer**
/// of a boundary value where a value crosses into more than one array
/// pass (the residual skip of the CNN, a transformer block's Q/K/V
/// projections plus residual): each pass re-reads the INT16 scratchpad,
/// so the naive emission carries one load-side round trip per read.
/// Because the round trip is deterministic, the duplicates are
/// bit-identical to a single boundary — and the optimizer's `cse`
/// pass ([`onesa_plan::opt`]) shares them, which
/// is why the serving wrappers run programs at
/// [`OptLevel::Standard`](onesa_plan::OptLevel).
fn boundary(b: &mut ProgramBuilder, mode: &InferenceMode, x: Operand) -> Operand {
    match mode.eval_mode() {
        onesa_plan::EvalMode::Cpwl { quantize: true, .. } => b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        ),
        _ => x,
    }
}

/// `x · W + bias` (mirrors `Linear::infer`).
fn linear(b: &mut ProgramBuilder, l: &Linear, x: Operand) -> Operand {
    let w = b.constant(l.w.value.clone());
    b.push(
        Op::Gemm {
            bias: Some(l.b.value.as_slice().to_vec()),
            sparsity: None,
        },
        &[x, w],
    )
}

impl SmallCnn {
    /// Compiles the whole network, classifier included.
    pub(crate) fn network_program(
        &self,
        mode: &InferenceMode,
        h: usize,
        w: usize,
    ) -> Result<Program> {
        // im2col + GEMM against the transposed flattened kernel + bias +
        // col2im (mirrors `Conv2d::infer`).
        let conv = |b: &mut ProgramBuilder,
                    layer: &crate::layers::Conv2d,
                    x: Operand,
                    h: usize,
                    w: usize|
         -> Result<Operand> {
            let (oh, ow) = layer.geo.output_hw(h, w)?;
            let cols = b.push(Op::Im2col(layer.geo), &[x]);
            let wt = b.constant(layer.w.value.transpose()?);
            let prod = b.push(
                Op::Gemm {
                    bias: Some(layer.b.value.as_slice().to_vec()),
                    sparsity: None,
                },
                &[cols, wt],
            );
            Ok(b.push(
                Op::Col2im {
                    channels: layer.geo.out_channels,
                    oh,
                    ow,
                },
                &[prod],
            ))
        };
        // Folded batch norm: per-channel (k, b) computed at compile time
        // under the mode (the rsqrt goes through the mode's table).
        let bn = |b: &mut ProgramBuilder, norm: &crate::layers::BatchNorm2d, x: Operand| {
            let (k, bias) = mode.batchnorm_fold(
                &norm.running_mean,
                &norm.running_var,
                norm.gamma.value.as_slice(),
                norm.beta.value.as_slice(),
                norm.eps(),
            );
            b.push(Op::Affine { k, b: bias }, &[x])
        };

        let mut b = Program::builder("small_cnn", mode.eval_mode());
        let x0 = b.input(&[self.conv1.geo.in_channels, h, w]);
        let x = boundary(&mut b, mode, x0);
        let a = conv(&mut b, &self.conv1, x, h, w)?;
        let a = boundary(&mut b, mode, a);
        let r = bn(&mut b, &self.bn1, a);
        let r_pre = b.push(Op::Nonlinear(NonlinearFn::Relu), &[r]);
        // The stem's activation crosses an INT16 boundary into TWO
        // consumers — conv2 and the residual add — so the conservative
        // emission carries one load-side round trip per consumer (the
        // optimizer's `cse` shares the duplicate; see `boundary`).
        let r = boundary(&mut b, mode, r_pre);
        let r_skip = boundary(&mut b, mode, r_pre);
        let (h1, w1) = self.conv1.geo.output_hw(h, w)?;
        let c2 = conv(&mut b, &self.conv2, r, h1, w1)?;
        let c2 = boundary(&mut b, mode, c2);
        let r2 = bn(&mut b, &self.bn2, c2);
        let r2 = b.push(Op::Nonlinear(NonlinearFn::Relu), &[r2]);
        let (h2, w2) = self.conv2.geo.output_hw(h1, w1)?;
        let c3 = conv(&mut b, &self.conv3, r2, h2, w2)?;
        let c3 = boundary(&mut b, mode, c3);
        let cb = bn(&mut b, &self.bn3, c3);
        let res = b.push(Op::Add, &[cb, r_skip]);
        let res = b.push(Op::Nonlinear(NonlinearFn::Relu), &[res]);
        let res = boundary(&mut b, mode, res);
        let pooled = b.push(Op::Pool(PoolKind::GlobalAvg), &[res]);
        linear(&mut b, &self.fc, pooled);
        b.finish()
    }
}

impl Compile<(&InferenceMode, (usize, usize))> for SmallCnn {
    fn compile(&self, (mode, (h, w)): (&InferenceMode, (usize, usize))) -> Result<Program> {
        self.network_program(mode, h, w)
    }
}

impl TinyBert {
    /// Compiles the whole network, head included.
    pub(crate) fn network_program(&self, mode: &InferenceMode, seq_len: usize) -> Result<Program> {
        let mut b = Program::builder("tiny_bert", mode.eval_mode());
        let ids = b.input(&[1, seq_len]);
        let table = b.constant(self.emb.table.value.clone());
        let pos = b.constant(self.emb.pos.value.clone());
        let mut h = b.push(Op::EmbedAt { offset: 0 }, &[ids, table, pos]);
        // The embedding output crosses an INT16 boundary into the first
        // block's four consumers (Q/K/V projections + residual add);
        // `compile_block` emits one load-side round trip per consumer
        // and the optimizer's `cse` shares the duplicates (see
        // `boundary`).
        let mut h_at_boundary = true;
        for block in &self.blocks {
            h = compile_block(
                &mut b,
                block,
                h,
                h_at_boundary,
                mode,
                self.d,
                Attention::Full,
            );
            h_at_boundary = false;
        }
        let pooled = b.push(Op::Pool(PoolKind::MeanRows), &[h]);
        let pooled = boundary(&mut b, mode, pooled);
        linear(&mut b, &self.head, pooled);
        b.finish()
    }
}

/// Emits the causal decoder's INT16 boundary: a **row-wise**
/// `QuantizeRows` round trip (mirrors
/// [`crate::models::boundary_rows`]). The tensor-wide [`Op::Quantize`]
/// would couple every token's rounding to the whole activation's
/// maximum, breaking the bit-identicality of cached decoding against
/// the recompute-from-scratch oracle; the row-wise form is
/// row-decomposable, so prefill rows, decode rows and oracle rows all
/// agree exactly. Same per-consumer emission discipline as [`boundary`].
fn causal_boundary(b: &mut ProgramBuilder, mode: &InferenceMode, x: Operand) -> Operand {
    match mode.eval_mode() {
        onesa_plan::EvalMode::Cpwl { quantize: true, .. } => b.push(Op::QuantizeRows, &[x]),
        _ => x,
    }
}

/// What a transformer block's attention attends over.
enum Attention {
    /// The encoder: bidirectional self-attention under a plain softmax,
    /// with the tensor-wide [`boundary`] at every INT16 crossing.
    Full,
    /// Causal prefill: self-attention over the whole prompt under the
    /// causal prefix mask; the raw K/V projections become the session
    /// cache.
    CausalPrefill,
    /// One causal decode step: the cached `[ctx, d]` K/V enter as
    /// session inputs, the new token's projections append via
    /// `ConcatRows`, and the single query row sees the full grown
    /// context with a plain softmax (the last causal row IS the full
    /// row).
    CausalDecode {
        /// The layer's cached K rows.
        k_cache: Operand,
        /// The layer's cached V rows.
        v_cache: Operand,
    },
}

/// One post-norm transformer block (mirrors `EncoderBlock::infer` and
/// the causal arm of `EncoderBlock::infer_with`): one [`Op::Attention`]
/// over the Q/K/V projections (scaled, table-lowered softmax per head),
/// residual adds with INT16 boundaries, layer norms, GELU feed-forward.
/// The causal kinds mask the attention (prefill) or attend the grown
/// context unmasked (decode), mark
/// their K/V tensors as session outputs — K then V, in block order —
/// and make every INT16 boundary the row-wise [`causal_boundary`].
fn compile_block(
    b: &mut ProgramBuilder,
    blk: &EncoderBlock,
    x_pre: Operand,
    x_at_boundary: bool,
    mode: &InferenceMode,
    d: usize,
    attn: Attention,
) -> Operand {
    let bound = match attn {
        Attention::Full => boundary,
        _ => causal_boundary,
    };
    // When the block input sits on an INT16 boundary, each of its four
    // consumers loads it through its own round trip (deterministic, so
    // bit-identical to one shared boundary; the optimizer dedups).
    let use_x = |b: &mut ProgramBuilder| -> Operand {
        if x_at_boundary {
            bound(b, mode, x_pre)
        } else {
            x_pre
        }
    };
    let heads = blk.attn.heads();
    let dk = d / heads;
    let xq = use_x(b);
    let q = linear(b, &blk.attn.wq, xq);
    let xk = use_x(b);
    let k = linear(b, &blk.attn.wk, xk);
    let xv = use_x(b);
    let v = linear(b, &blk.attn.wv, xv);
    let (k_full, v_full, causal) = match attn {
        Attention::Full => (k, v, false),
        Attention::CausalPrefill => {
            b.mark_session_output(k);
            b.mark_session_output(v);
            (k, v, true)
        }
        Attention::CausalDecode { k_cache, v_cache } => {
            let kf = b.push(Op::ConcatRows, &[k_cache, k]);
            let vf = b.push(Op::ConcatRows, &[v_cache, v]);
            b.mark_session_output(kf);
            b.mark_session_output(vf);
            (kf, vf, false)
        }
    };
    let attention = Op::Attention {
        heads,
        scale: 1.0 / (dk as f32).sqrt(),
        causal,
    };
    let ctx = b.push(attention, &[q, k_full, v_full]);
    let a = linear(b, &blk.attn.wo, ctx);
    let x_res = use_x(b);
    let sum1 = b.push(Op::Add, &[x_res, a]);
    let sum1 = bound(b, mode, sum1);
    let h = b.push(
        Op::LayerNorm {
            gamma: blk.ln1.gamma.value.as_slice().to_vec(),
            beta: blk.ln1.beta.value.as_slice().to_vec(),
            eps: blk.ln1.eps(),
        },
        &[sum1],
    );
    let f1 = linear(b, &blk.ff1, h);
    let g = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[f1]);
    let f = linear(b, &blk.ff2, g);
    let sum2 = b.push(Op::Add, &[h, f]);
    let sum2 = bound(b, mode, sum2);
    b.push(
        Op::LayerNorm {
            gamma: blk.ln2.gamma.value.as_slice().to_vec(),
            beta: blk.ln2.beta.value.as_slice().to_vec(),
            eps: blk.ln2.eps(),
        },
        &[sum2],
    )
}

impl Compile<(&InferenceMode, usize)> for TinyBert {
    fn compile(&self, (mode, seq_len): (&InferenceMode, usize)) -> Result<Program> {
        self.network_program(mode, seq_len)
    }
}

impl TinyCausalLm {
    /// The LM head: a biased linear for the untied case, a bias-free
    /// GEMM against the transposed embedding table when tied.
    fn compile_head(&self, b: &mut ProgramBuilder, x: Operand) -> Result<Operand> {
        Ok(match &self.head {
            Some(l) => linear(b, l, x),
            None => {
                let wt = b.constant(self.emb.table.value.transpose()?);
                b.push(
                    Op::Gemm {
                        bias: None,
                        sparsity: None,
                    },
                    &[x, wt],
                )
            }
        })
    }

    /// Compiles the prefill pass over a `len`-token prompt: causal
    /// attention over the whole prompt, per-layer K/V projections marked
    /// as session outputs (K then V, block order), and the last row's
    /// next-token logits as the program output.
    pub(crate) fn prefill_program(&self, mode: &InferenceMode, len: usize) -> Result<Program> {
        assert!(len >= 1, "prefill needs at least one token");
        let mut b = Program::builder("tiny_causal_lm.prefill", mode.eval_mode());
        let ids = b.input(&[1, len]);
        let table = b.constant(self.emb.table.value.clone());
        let pos = b.constant(self.emb.pos.value.clone());
        let mut h = b.push(Op::EmbedAt { offset: 0 }, &[ids, table, pos]);
        let mut h_at_boundary = true;
        for block in &self.blocks {
            h = compile_block(
                &mut b,
                block,
                h,
                h_at_boundary,
                mode,
                self.d,
                Attention::CausalPrefill,
            );
            h_at_boundary = false;
        }
        // Only the final position's hidden state feeds the LM head.
        let last = b.push(
            Op::SliceRows {
                start: len - 1,
                len: 1,
            },
            &[h],
        );
        let last = causal_boundary(&mut b, mode, last);
        self.compile_head(&mut b, last)?;
        b.finish()
    }

    /// Compiles one decode step at context length `ctx`: inputs are the
    /// `[1, 1]` token id plus per-layer session K/V tensors (`[ctx, d]`,
    /// K then V per block, in block order — the order the serving layer
    /// binds and writes back). The step embeds the token at absolute
    /// position `ctx`, appends its K/V projections to each cache via
    /// `ConcatRows` (the grown tensors are the session outputs), and
    /// attends over the full context with a plain softmax.
    pub(crate) fn decode_program(&self, mode: &InferenceMode, ctx: usize) -> Result<Program> {
        assert!(ctx >= 1, "decode needs a non-empty context");
        let mut b = Program::builder("tiny_causal_lm.decode", mode.eval_mode());
        let ids = b.input(&[1, 1]);
        let kv: Vec<(Operand, Operand)> = self
            .blocks
            .iter()
            .map(|_| {
                (
                    b.session_input(&[ctx, self.d]),
                    b.session_input(&[ctx, self.d]),
                )
            })
            .collect();
        let table = b.constant(self.emb.table.value.clone());
        let pos = b.constant(self.emb.pos.value.clone());
        let mut h = b.push(Op::EmbedAt { offset: ctx }, &[ids, table, pos]);
        let mut h_at_boundary = true;
        for (block, (k_cache, v_cache)) in self.blocks.iter().zip(kv) {
            h = compile_block(
                &mut b,
                block,
                h,
                h_at_boundary,
                mode,
                self.d,
                Attention::CausalDecode { k_cache, v_cache },
            );
            h_at_boundary = false;
        }
        let last = causal_boundary(&mut b, mode, h);
        self.compile_head(&mut b, last)?;
        b.finish()
    }
}

impl Compile<(&InferenceMode, usize)> for TinyCausalLm {
    /// Compiles the prefill program for a `seq_len`-token prompt (decode
    /// steps are per-context; see [`TinyCausalLm::compiled_decode`]).
    fn compile(&self, (mode, seq_len): (&InferenceMode, usize)) -> Result<Program> {
        self.prefill_program(mode, seq_len)
    }
}

impl Gcn {
    pub(crate) fn network_program(
        &self,
        mode: &InferenceMode,
        g: &GraphDataset,
    ) -> Result<Program> {
        let (n_nodes, feats) = g.x.shape().as_matrix()?;
        let mut b = Program::builder("gcn", mode.eval_mode());
        let x0 = b.input(&[n_nodes, feats]);
        let x = boundary(&mut b, mode, x0);
        let w1 = b.constant(self.w1.value.clone());
        let w2 = b.constant(self.w2.value.clone());
        // The dataset's own Â, not a copy: the cached program is then
        // recognised by identity on every call that passes the graph.
        let a_hat = b.constant_shared(std::sync::Arc::clone(&g.a_hat));
        let xw = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w1],
        );
        let z1 = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[a_hat, xw],
        );
        let z1 = boundary(&mut b, mode, z1);
        let h1 = b.push(Op::Nonlinear(NonlinearFn::Relu), &[z1]);
        let hw = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[h1, w2],
        );
        let z2 = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[a_hat, hw],
        );
        boundary(&mut b, mode, z2);
        b.finish()
    }
}

impl Compile<(&InferenceMode, &GraphDataset)> for Gcn {
    fn compile(&self, (mode, g): (&InferenceMode, &GraphDataset)) -> Result<Program> {
        self.network_program(mode, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_data::{Difficulty, ImageDataset, TextDataset};
    use onesa_tensor::rng::Pcg32;

    fn modes() -> Vec<InferenceMode> {
        vec![
            InferenceMode::Exact,
            InferenceMode::cpwl(0.25).unwrap(),
            InferenceMode::cpwl_unquantized(0.5).unwrap(),
        ]
    }

    #[test]
    fn cnn_program_bit_identical_to_direct() {
        let cnn = SmallCnn::new(11, 1, 3);
        let x = Pcg32::seed_from_u64(1).randn(&[1, 8, 8], 1.0);
        for mode in modes() {
            assert_eq!(
                cnn.logits(&x, &mode),
                cnn.logits_direct(&x, &mode),
                "{}",
                mode.label()
            );
        }
    }

    #[test]
    fn bert_program_bit_identical_to_direct() {
        let bert = TinyBert::new(5, 32, 12, 2, 2);
        let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        for mode in modes() {
            assert_eq!(
                bert.predict(&seq, &mode),
                bert.predict_direct(&seq, &mode),
                "{}",
                mode.label()
            );
        }
    }

    #[test]
    fn gcn_program_bit_identical_to_direct() {
        let g = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 20, 6, 0.3);
        let gcn = Gcn::new(6, 6, 8, 3);
        for mode in modes() {
            assert_eq!(
                gcn.logits(&g, &mode),
                gcn.logits_direct(&g, &mode),
                "{}",
                mode.label()
            );
        }
    }

    #[test]
    fn trained_models_stay_bit_identical() {
        // Training perturbs every parameter (incl. batch-norm running
        // stats); the compiled path must track the direct one exactly.
        let data = ImageDataset::generate(
            "t",
            1,
            Difficulty {
                noise: 0.3,
                classes: 3,
            },
            (1, 8, 8),
            6,
        );
        let mut cnn = SmallCnn::new(7, 1, 3);
        cnn.fit(
            &data,
            &crate::train::TrainConfig {
                epochs: 2,
                lr: 5e-3,
                batch_size: 6,
                seed: 7,
            },
        );
        let mode = InferenceMode::cpwl(0.25).unwrap();
        for x in &data.test_x[..3.min(data.test_x.len())] {
            assert_eq!(cnn.logits(x, &mode), cnn.logits_direct(x, &mode));
        }

        let tdata = TextDataset::classification("t", 3, Difficulty::easy(2), 32, 8, 8);
        let mut bert = TinyBert::new(5, 32, 8, 2, 1);
        bert.fit(
            &tdata,
            &crate::train::TrainConfig {
                epochs: 1,
                lr: 2e-3,
                batch_size: 1,
                seed: 5,
            },
        );
        for seq in &tdata.test_x[..2.min(tdata.test_x.len())] {
            assert_eq!(bert.predict(seq, &mode), bert.predict_direct(seq, &mode));
        }
    }

    /// Greedy generation of `n` tokens through the compiled KV-cache
    /// path: one prefill over the prompt, then one single-token decode
    /// step per output token.
    fn generate(lm: &TinyCausalLm, prompt: &[usize], n: usize, mode: &InferenceMode) -> Vec<usize> {
        let argmax = |l: &[f32]| onesa_tensor::stats::argmax(l).expect("non-empty vocabulary");
        let (logits, mut kv) = lm.prefill(prompt, mode);
        let mut out = vec![argmax(&logits)];
        while out.len() < n {
            let (logits, grown) = lm.decode_step(out[out.len() - 1], &kv, mode);
            kv = grown;
            out.push(argmax(&logits));
        }
        out
    }

    #[test]
    fn causal_lm_cached_generation_bit_identical_to_direct() {
        // The decode oracle recomputes the whole sequence from scratch
        // every step; the cached path reuses per-layer K/V session
        // tensors. Bit-identicality across every mode (incl. INT16
        // quantized CPWL) is the whole point of the row-wise boundary.
        for tied in [true, false] {
            let lm = TinyCausalLm::new(9, 24, 16, 2, tied);
            let prompt = [3usize, 1, 4, 1, 5];
            for mode in modes() {
                assert_eq!(
                    generate(&lm, &prompt, 6, &mode),
                    lm.generate_direct(&prompt, 6, &mode),
                    "tied={tied} {}",
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn causal_lm_stepwise_logits_match_oracle() {
        let lm = TinyCausalLm::new(4, 20, 12, 3, true);
        let prompt = [7usize, 0, 11, 2];
        for mode in modes() {
            let (logits, mut kv) = lm.prefill(&prompt, &mode);
            assert_eq!(
                logits,
                lm.next_logits_direct(&prompt, &mode),
                "{}",
                mode.label()
            );
            assert_eq!(kv.len(), 2 * lm.blocks.len());
            let mut seq = prompt.to_vec();
            for _ in 0..4 {
                let next = onesa_tensor::stats::argmax(&logits).expect("non-empty vocabulary");
                seq.push(next);
                let (l, nkv) = lm.decode_step(next, &kv, &mode);
                assert_eq!(l, lm.next_logits_direct(&seq, &mode), "{}", mode.label());
                kv = nkv;
                // Cache length tracks the number of attended tokens.
                for t in &kv {
                    assert_eq!(t.dims(), &[seq.len(), lm.d]);
                }
                let logits = l;
                let _ = &logits;
            }
        }
    }

    #[test]
    fn causal_prefill_program_marks_session_outputs() {
        let lm = TinyCausalLm::new(2, 16, 8, 2, false);
        let mode = InferenceMode::cpwl(0.25).unwrap();
        let prog = lm.compiled_prefill(&mode, 5);
        assert!(prog.is_session());
        assert!(prog.session_inputs().is_empty());
        assert_eq!(prog.session_outputs().len(), 2 * lm.blocks.len());

        let dec = lm.compiled_decode(&mode, 5);
        assert!(dec.is_session());
        assert_eq!(dec.session_inputs().len(), 2 * lm.blocks.len());
        assert_eq!(dec.session_outputs().len(), 2 * lm.blocks.len());
    }

    #[test]
    fn causal_decode_programs_share_structure_across_contexts() {
        // Continuous batching relies on decode programs at different
        // context lengths having identical node sequences (so their
        // shared-weight GEMMs stage-align) while fingerprinting apart.
        let lm = TinyCausalLm::new(6, 16, 10, 1, true);
        let mode = InferenceMode::Exact;
        let a = lm.compiled_decode(&mode, 3);
        let b = lm.compiled_decode(&mode, 7);
        assert_eq!(a.nodes().len(), b.nodes().len());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_op_kind_but_the_unemitted_three_is_emitted() {
        // The converse of the plan crate's kitchen-sink round trip: every
        // kind the wire schema assigns a tag must come out of some
        // compiler, so a kind nothing emits fails here instead of waiting
        // for a sweep. Three kinds have no emitter yet: `Softmax` (2),
        // `AffineNonlinear` (9) and `CausalSoftmax` (17). ROADMAP item 12
        // (profile in situ, delete the benchmark's replay that still
        // names them) empties this list.
        use onesa_plan::wire::Wire;
        use onesa_plan::PRUNE_BLOCK_COLS;
        use std::collections::BTreeSet;
        const UNEMITTED: [u8; 3] = [2, 9, 17];
        let cnn = SmallCnn::new(11, 1, 3);
        let bert = TinyBert::new(5, 32, 12, 2, 2);
        let g = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 20, 6, 0.3);
        let gcn = Gcn::new(6, 6, 8, 3);
        let pg = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 45, 8, 0.3);
        let mut pruned = Gcn::new(6, 8, 2 * PRUNE_BLOCK_COLS, 3);
        pruned.prune_hidden(0.5).unwrap();
        let tied = TinyCausalLm::new(9, 24, 16, 2, true);
        let untied = TinyCausalLm::new(9, 24, 16, 2, false);
        let modes = [
            InferenceMode::Exact,
            InferenceMode::cpwl(0.25).unwrap(),
            InferenceMode::cpwl_unquantized(0.25).unwrap(),
        ];
        let mut emitted = BTreeSet::new();
        for mode in &modes {
            let programs = [
                cnn.compile((mode, (8, 8))).unwrap(),
                bert.compile((mode, 8)).unwrap(),
                gcn.compile((mode, &g)).unwrap(),
                pruned.compile((mode, &pg)).unwrap(),
                pruned
                    .compile_optimized((mode, &pg), onesa_plan::OptLevel::Standard)
                    .unwrap(),
                tied.prefill_program(mode, 5).unwrap(),
                tied.decode_program(mode, 5).unwrap(),
                untied.prefill_program(mode, 5).unwrap(),
                untied.decode_program(mode, 5).unwrap(),
            ];
            for node in programs.iter().flat_map(|p| p.nodes().iter()) {
                let mut bytes = Vec::new();
                node.op.put(&mut bytes);
                emitted.insert(bytes[0]);
            }
        }
        let want: BTreeSet<u8> = <Op as Wire>::TAGS
            .iter()
            .copied()
            .filter(|tag| !UNEMITTED.contains(tag))
            .collect();
        assert_eq!(emitted, want);
    }

    #[test]
    fn compiled_program_fingerprints_are_pinned() {
        // `Program::fingerprint` hashes the mode, every node's op and
        // operands in order, and every constant: equal literals mean the
        // compilers and the optimizer produce node-for-node the programs
        // they always did.
        use onesa_plan::{OptLevel, PRUNE_BLOCK_COLS};
        let cnn = SmallCnn::new(11, 1, 3);
        let bert = TinyBert::new(5, 32, 12, 2, 2);
        let g = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 20, 6, 0.3);
        let gcn = Gcn::new(6, 6, 8, 3);
        let pg = onesa_data::GraphDataset::generate("t", 4, Difficulty::easy(3), 45, 8, 0.3);
        let mut pruned = Gcn::new(6, 8, 2 * PRUNE_BLOCK_COLS, 3);
        pruned.prune_hidden(0.5).unwrap();
        let tied = TinyCausalLm::new(9, 24, 16, 2, true);
        let untied = TinyCausalLm::new(9, 24, 16, 2, false);
        // Per mode, the emissions — BERT network (seq 8), then causal
        // prefill (5 tokens) and decode (ctx 5) for the tied and the
        // untied LM head — and the served programs, each emission after
        // `optimize(OptLevel::default())` as the compile caches store
        // it: CNN (8×8), BERT, GCN, pruned GCN, then the same four
        // causal programs.
        let pinned: [(InferenceMode, [u64; 5], [u64; 8]); 2] = [
            (
                InferenceMode::Exact,
                [
                    0xbaa18afd8ebd3257,
                    0xa4a59f6db44ff2cf,
                    0x032553807d64eec6,
                    0x04bc1a27b63c6109,
                    0xb5520250e71d1dc0,
                ],
                [
                    0xe9e8b339008a6bd9,
                    0xbaa18afd8ebd3257,
                    0x69b273a2caa2441e,
                    0x3ff63460aa8d93ad,
                    0xa4a59f6db44ff2cf,
                    0x032553807d64eec6,
                    0x04bc1a27b63c6109,
                    0xb5520250e71d1dc0,
                ],
            ),
            (
                InferenceMode::cpwl(0.25).unwrap(),
                [
                    0xdce3930b22390ef6,
                    0x59fba9147e9e54aa,
                    0xa7daa356172ac89f,
                    0xa130aa738850382c,
                    0x1a494d1cac431219,
                ],
                [
                    0xe91ce28e5045fb01,
                    0x228a09bf966d8ff8,
                    0xad12524ba96391a6,
                    0x8e344c71eb1087d5,
                    0x3fd07e749772aa18,
                    0x078bb8737bfa59cb,
                    0x265944763557f35e,
                    0x8aba3427ee940c8d,
                ],
            ),
        ];
        for (mode, emitted, served) in pinned {
            let got = [
                bert.network_program(&mode, 8).unwrap().fingerprint(),
                tied.prefill_program(&mode, 5).unwrap().fingerprint(),
                tied.decode_program(&mode, 5).unwrap().fingerprint(),
                untied.prefill_program(&mode, 5).unwrap().fingerprint(),
                untied.decode_program(&mode, 5).unwrap().fingerprint(),
            ];
            assert_eq!(got, emitted, "{}", mode.label());
            let opt = |p: Result<Program>| p.unwrap().optimize(OptLevel::default()).unwrap();
            let got = [
                opt(cnn.compile((&mode, (8, 8)))).fingerprint(),
                opt(bert.compile((&mode, 8))).fingerprint(),
                opt(gcn.compile((&mode, &g))).fingerprint(),
                opt(pruned.compile((&mode, &pg))).fingerprint(),
                tied.compiled_prefill(&mode, 5).fingerprint(),
                tied.compiled_decode(&mode, 5).fingerprint(),
                untied.compiled_prefill(&mode, 5).fingerprint(),
                untied.compiled_decode(&mode, 5).fingerprint(),
            ];
            assert_eq!(got, served, "served {}", mode.label());
        }
    }
}
