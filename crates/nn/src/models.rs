//! The three model families of the paper's accuracy study.
//!
//! Each model trains in f32 with exact nonlinearities (using the manual
//! backprop layers) and then runs inference under any
//! [`InferenceMode`] — exact, or CPWL at a chosen granularity with INT16
//! quantization, matching how the array would execute it.

use crate::infer::InferenceMode;
use crate::layers::{
    mse, softmax_cross_entropy, BatchNorm2d, Conv2d, Embedding, Gelu, LayerNorm, Linear,
    MultiHeadAttention, Param,
};
use crate::train::TrainConfig;
use onesa_data::text::TextTask;
use onesa_data::{GraphDataset, ImageDataset, TextDataset};
use onesa_plan::{same_tensor, CompileCache, Op, Operand, OptLevel, Program};
use onesa_tensor::im2col::Conv2dGeometry;
use onesa_tensor::quant::QuantTensor;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, stats, Tensor};
use std::sync::Arc;

/// Compile-cache salt of a model's whole-network program.
const SALT_NETWORK: u64 = 0;
/// Salts separating a causal LM's prefill and per-context decode
/// programs (keyed on the same mode + length geometry).
const SALT_PREFILL: u64 = 1;
const SALT_DECODE: u64 = 2;

fn global_avg_pool(x: &Tensor) -> Vec<f32> {
    let dims = x.dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    (0..c)
        .map(|ch| {
            x.as_slice()[ch * h * w..(ch + 1) * h * w]
                .iter()
                .sum::<f32>()
                / (h * w) as f32
        })
        .collect()
}

/// A small residual CNN (the paper's "CNN-based ResNet" family scaled to
/// the synthetic tasks): conv–BN–ReLU stem, one residual block, global
/// average pooling and a linear classifier.
#[derive(Debug, Clone)]
pub struct SmallCnn {
    pub(crate) conv1: Conv2d,
    pub(crate) bn1: BatchNorm2d,
    pub(crate) conv2: Conv2d,
    pub(crate) bn2: BatchNorm2d,
    pub(crate) conv3: Conv2d,
    pub(crate) bn3: BatchNorm2d,
    pub(crate) fc: Linear,
    pub(crate) channels: usize,
    /// Memoized compiled programs, keyed on (mode, input geometry);
    /// cleared by [`SmallCnn::fit`] (training rewrites the weights the
    /// cached programs bake in).
    cache: CompileCache,
}

impl SmallCnn {
    /// Builds the model for `in_channels` input channels and `classes`
    /// outputs.
    pub fn new(seed: u64, in_channels: usize, classes: usize) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let ch = 8;
        let geo = |cin: usize| Conv2dGeometry {
            in_channels: cin,
            out_channels: ch,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        SmallCnn {
            conv1: Conv2d::new(&mut rng, geo(in_channels)),
            bn1: BatchNorm2d::new(ch),
            conv2: Conv2d::new(&mut rng, geo(ch)),
            bn2: BatchNorm2d::new(ch),
            conv3: Conv2d::new(&mut rng, geo(ch)),
            bn3: BatchNorm2d::new(ch),
            fc: Linear::new(&mut rng, ch, classes),
            channels: ch,
            cache: CompileCache::new(),
        }
    }

    /// The model's compile cache (hit/miss counters for tests and
    /// benches).
    pub fn compile_cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Trains with Adam on the dataset's train split; returns the final
    /// epoch's mean loss.
    pub fn fit(&mut self, data: &ImageDataset, cfg: &TrainConfig) -> f32 {
        // Training rewrites every parameter: cached compiled programs
        // would keep serving the old weights.
        self.cache.clear();
        let mut step = 0usize;
        let mut last_loss = f32::NAN;
        for _epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            let mut i = 0usize;
            while i < data.train_x.len() {
                let end = (i + cfg.batch_size).min(data.train_x.len());
                let xs = &data.train_x[i..end];
                let ys = &data.train_y[i..end];
                epoch_loss += self.train_batch(xs, ys, cfg.lr, {
                    step += 1;
                    step
                });
                batches += 1;
                i = end;
            }
            last_loss = epoch_loss / batches.max(1) as f32;
        }
        last_loss
    }

    fn train_batch(&mut self, xs: &[Tensor], ys: &[usize], lr: f32, t: usize) -> f32 {
        let n = xs.len();
        // Forward.
        let a: Vec<Tensor> = xs.iter().map(|x| self.conv1.forward(x)).collect();
        let a_bn = self.bn1.forward_train(&a);
        let mut relu1_mask = Vec::with_capacity(n);
        let r: Vec<Tensor> = a_bn
            .iter()
            .map(|t| {
                relu1_mask.push(t.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
                t.map(|v| v.max(0.0))
            })
            .collect();
        let b: Vec<Tensor> = r.iter().map(|x| self.conv2.forward(x)).collect();
        let b_bn = self.bn2.forward_train(&b);
        let mut relu2_mask = Vec::with_capacity(n);
        let r2: Vec<Tensor> = b_bn
            .iter()
            .map(|t| {
                relu2_mask.push(t.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
                t.map(|v| v.max(0.0))
            })
            .collect();
        let c: Vec<Tensor> = r2.iter().map(|x| self.conv3.forward(x)).collect();
        let c_bn = self.bn3.forward_train(&c);
        // Residual add + final ReLU.
        let mut relu3_mask = Vec::with_capacity(n);
        let res: Vec<Tensor> = c_bn
            .iter()
            .zip(&r)
            .map(|(cb, skip)| {
                let s = cb.add(skip).expect("same shape");
                relu3_mask.push(s.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
                s.map(|v| v.max(0.0))
            })
            .collect();
        // Pool → logits.
        let mut pooled = Tensor::zeros(&[n, self.channels]);
        for (i, t) in res.iter().enumerate() {
            pooled
                .row_mut(i)
                .expect("in bounds")
                .copy_from_slice(&global_avg_pool(t));
        }
        let logits = self.fc.forward(&pooled);
        let (loss, dlogits) = softmax_cross_entropy(&logits, ys);

        // Backward.
        let dpooled = self.fc.backward(&dlogits);
        let dims = res[0].dims();
        let (ch, h, w) = (dims[0], dims[1], dims[2]);
        let dres: Vec<Tensor> = (0..n)
            .map(|i| {
                let mut d = Tensor::zeros(&[ch, h, w]);
                for cc in 0..ch {
                    let g = dpooled.as_slice()[i * ch + cc] / (h * w) as f32;
                    for v in &mut d.as_mut_slice()[cc * h * w..(cc + 1) * h * w] {
                        *v = g;
                    }
                }
                d.mul(&relu3_mask[i]).expect("same shape")
            })
            .collect();
        // Residual split: d(c_bn) = dres ; d(skip r) += dres.
        let dc_bn = self.bn3.backward(&dres);
        let mut dr_extra: Vec<Tensor> = dres;
        // conv3 backward (reverse order to pop the LIFO caches).
        let mut dr2: Vec<Tensor> = vec![Tensor::zeros(&[ch, h, w]); n];
        for i in (0..n).rev() {
            dr2[i] = self.conv3.backward(&dc_bn[i]);
        }
        let dr2m: Vec<Tensor> = dr2
            .iter()
            .zip(&relu2_mask)
            .map(|(d, m)| d.mul(m).expect("same shape"))
            .collect();
        let db_bn = self.bn2.backward(&dr2m);
        for i in (0..n).rev() {
            let d = self.conv2.backward(&db_bn[i]);
            dr_extra[i] = dr_extra[i].add(&d).expect("same shape");
        }
        let dr_masked: Vec<Tensor> = dr_extra
            .iter()
            .zip(&relu1_mask)
            .map(|(d, m)| d.mul(m).expect("same shape"))
            .collect();
        let da_bn = self.bn1.backward(&dr_masked);
        for i in (0..n).rev() {
            let _ = self.conv1.backward(&da_bn[i]);
        }

        // Steps.
        self.conv1.step(lr, t);
        self.bn1.step(lr, t);
        self.conv2.step(lr, t);
        self.bn2.step(lr, t);
        self.conv3.step(lr, t);
        self.bn3.step(lr, t);
        self.fc.step(lr, t);
        loss
    }

    /// Logits for one sample under an inference mode: compiles the whole
    /// network (convolutions, folded batch norms, residual, pooling and
    /// classifier) to an `onesa_plan::Program` and runs it —
    /// bit-identical to [`SmallCnn::logits_direct`] (locked by test).
    /// Compilation is memoized per (mode, geometry) — see
    /// [`SmallCnn::compile_cache`].
    pub fn logits(&self, x: &Tensor, mode: &InferenceMode) -> Vec<f32> {
        let dims = x.dims();
        let program = self
            .cache
            .get_or_compile(mode.eval_mode(), dims, SALT_NETWORK, || {
                self.network_program(mode, dims[1], dims[2])?
                    .optimize(OptLevel::default())
            })
            .expect("CNN graph compiles");
        crate::compile::run_compiled(&program, std::slice::from_ref(x), mode).into_vec()
    }

    /// Layer-by-layer reference implementation of [`SmallCnn::logits`].
    pub fn logits_direct(&self, x: &Tensor, mode: &InferenceMode) -> Vec<f32> {
        let x = mode.boundary(x);
        let a = mode.boundary(&self.conv1.infer(&x));
        let (k1, b1) = mode.batchnorm_fold(
            &self.bn1.running_mean,
            &self.bn1.running_var,
            self.bn1.gamma.value.as_slice(),
            self.bn1.beta.value.as_slice(),
            self.bn1.eps(),
        );
        let r = mode.relu(&mode.batchnorm_apply(&a, &k1, &b1));
        let r = mode.boundary(&r);
        let b = mode.boundary(&self.conv2.infer(&r));
        let (k2, b2) = mode.batchnorm_fold(
            &self.bn2.running_mean,
            &self.bn2.running_var,
            self.bn2.gamma.value.as_slice(),
            self.bn2.beta.value.as_slice(),
            self.bn2.eps(),
        );
        let r2 = mode.relu(&mode.batchnorm_apply(&b, &k2, &b2));
        let c = mode.boundary(&self.conv3.infer(&r2));
        let (k3, b3) = mode.batchnorm_fold(
            &self.bn3.running_mean,
            &self.bn3.running_var,
            self.bn3.gamma.value.as_slice(),
            self.bn3.beta.value.as_slice(),
            self.bn3.eps(),
        );
        let cb = mode.batchnorm_apply(&c, &k3, &b3);
        let res = mode.relu(&cb.add(&r).expect("same shape"));
        let pooled = global_avg_pool(&mode.boundary(&res));
        let pooled = Tensor::from_vec(pooled, &[1, self.channels]).expect("length matches");
        self.fc.infer(&pooled).into_vec()
    }

    /// Test-set accuracy under an inference mode.
    pub fn evaluate(&self, data: &ImageDataset, mode: &InferenceMode) -> f32 {
        let mut correct = 0usize;
        for (x, &y) in data.test_x.iter().zip(&data.test_y) {
            let logits = self.logits(x, mode);
            if stats::argmax(&logits) == Some(y) {
                correct += 1;
            }
        }
        correct as f32 / data.test_y.len().max(1) as f32
    }
}

/// One transformer encoder block (post-norm, GELU feed-forward).
#[derive(Debug, Clone)]
pub(crate) struct EncoderBlock {
    pub(crate) attn: MultiHeadAttention,
    pub(crate) ln1: LayerNorm,
    pub(crate) ff1: Linear,
    pub(crate) gelu: Gelu,
    pub(crate) ff2: Linear,
    pub(crate) ln2: LayerNorm,
}

impl EncoderBlock {
    fn new(rng: &mut Pcg32, d: usize, heads: usize, ff: usize) -> Self {
        EncoderBlock {
            attn: MultiHeadAttention::new(rng, d, heads),
            ln1: LayerNorm::new(d),
            ff1: Linear::new(rng, d, ff),
            gelu: Gelu::new(),
            ff2: Linear::new(rng, ff, d),
            ln2: LayerNorm::new(d),
        }
    }

    fn forward_train(&mut self, x: &Tensor) -> Tensor {
        let sm = |s: &Tensor| onesa_cpwl::ops::softmax_rows_exact(s).expect("matrix");
        let a = self.attn.forward_with(x, &sm, true);
        let h = self.ln1.forward(&x.add(&a).expect("same shape"));
        let f = self.ff2.forward(&self.gelu.forward(&self.ff1.forward(&h)));
        self.ln2.forward(&h.add(&f).expect("same shape"))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d_sum2 = self.ln2.backward(dy);
        let d_f = self.ff2.backward(&d_sum2);
        let d_g = self.gelu.backward(&d_f);
        let d_h_ff = self.ff1.backward(&d_g);
        let d_h = d_sum2.add(&d_h_ff).expect("same shape");
        let d_sum1 = self.ln1.backward(&d_h);
        let d_attn_in = self.attn.backward(&d_sum1);
        d_sum1.add(&d_attn_in).expect("same shape")
    }

    fn infer(&self, x: &Tensor, mode: &InferenceMode) -> Tensor {
        self.infer_with(x, mode, &|s| mode.softmax_rows(s), &|t| mode.boundary(t))
    }

    /// Inference with pluggable softmax and INT16-boundary routines: the
    /// encoder passes the full-row softmax and the tensor-wide boundary;
    /// the causal decoder passes the prefix-masked softmax and the
    /// row-wise boundary (see [`TinyCausalLm`]).
    fn infer_with(
        &self,
        x: &Tensor,
        mode: &InferenceMode,
        sm: &dyn Fn(&Tensor) -> Tensor,
        boundary: &dyn Fn(&Tensor) -> Tensor,
    ) -> Tensor {
        // The pluggable-softmax forward needs &mut for caching; clone the
        // attention (cheap at these sizes) to keep `infer` immutable.
        let mut attn = self.attn.clone();
        let a = attn.forward_with(x, sm, false);
        let sum1 = boundary(&x.add(&a).expect("same shape"));
        let h = mode.layernorm_rows(
            &sum1,
            self.ln1.gamma.value.as_slice(),
            self.ln1.beta.value.as_slice(),
            self.ln1.eps(),
        );
        let f1 = self.ff1.infer(&h);
        let g = mode.gelu(&f1);
        let f = self.ff2.infer(&g);
        let sum2 = boundary(&h.add(&f).expect("same shape"));
        mode.layernorm_rows(
            &sum2,
            self.ln2.gamma.value.as_slice(),
            self.ln2.beta.value.as_slice(),
            self.ln2.eps(),
        )
    }

    fn step(&mut self, lr: f32, t: usize) {
        self.attn.step(lr, t);
        self.ln1.step(lr, t);
        self.ff1.step(lr, t);
        self.ff2.step(lr, t);
        self.ln2.step(lr, t);
    }
}

/// A BERT-style encoder classifier/regressor (the paper's
/// "transformer-based BERT" family scaled to the synthetic tasks).
#[derive(Debug, Clone)]
pub struct TinyBert {
    pub(crate) emb: Embedding,
    pub(crate) blocks: Vec<EncoderBlock>,
    pub(crate) head: Linear,
    pub(crate) d: usize,
    /// Memoized compiled programs keyed on (mode, sequence length);
    /// cleared by [`TinyBert::fit`].
    cache: CompileCache,
}

impl TinyBert {
    /// Builds the model: embedding → `layers` encoder blocks → mean-pool
    /// → linear head with `outputs` outputs (1 for regression).
    pub fn new(seed: u64, vocab: usize, max_len: usize, outputs: usize, layers: usize) -> Self {
        let d = 32;
        let heads = 2;
        let ff = 64;
        let mut rng = Pcg32::seed_from_u64(seed);
        TinyBert {
            emb: Embedding::new(&mut rng, vocab, max_len, d),
            blocks: (0..layers)
                .map(|_| EncoderBlock::new(&mut rng, d, heads, ff))
                .collect(),
            head: Linear::new(&mut rng, d, outputs),
            d,
            cache: CompileCache::new(),
        }
    }

    /// The model's compile cache (hit/miss counters for tests and
    /// benches).
    pub fn compile_cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Trains on the dataset's train split; returns the final mean loss.
    pub fn fit(&mut self, data: &TextDataset, cfg: &TrainConfig) -> f32 {
        self.cache.clear();
        let mut step = 0usize;
        let mut last = f32::NAN;
        for _epoch in 0..cfg.epochs {
            let mut total = 0.0f32;
            for (seq, &label) in data.train_x.iter().zip(&data.train_y) {
                step += 1;
                total += self.train_one(seq, label, data.task, cfg.lr, step);
            }
            last = total / data.train_x.len().max(1) as f32;
        }
        last
    }

    fn train_one(&mut self, seq: &[usize], label: f32, task: TextTask, lr: f32, t: usize) -> f32 {
        let mut h = self.emb.forward(seq);
        for b in &mut self.blocks {
            h = b.forward_train(&h);
        }
        let l = seq.len();
        // Mean pool.
        let mut pooled = Tensor::zeros(&[1, self.d]);
        let dst = pooled.as_mut_slice();
        for i in 0..l {
            for (p, v) in dst
                .iter_mut()
                .zip(&h.as_slice()[i * self.d..(i + 1) * self.d])
            {
                *p += v / l as f32;
            }
        }
        let out = self.head.forward(&pooled);
        let (loss, dout) = match task {
            TextTask::Classification => softmax_cross_entropy(&out, &[label as usize]),
            TextTask::Regression => mse(&out, &[label]),
        };
        let dpooled = self.head.backward(&dout);
        let mut dh = Tensor::zeros(&[l, self.d]);
        let dst = dh.as_mut_slice();
        for i in 0..l {
            for j in 0..self.d {
                dst[i * self.d + j] = dpooled.as_slice()[j] / l as f32;
            }
        }
        for b in self.blocks.iter_mut().rev() {
            dh = b.backward(&dh);
        }
        self.emb.backward(&dh);
        for b in &mut self.blocks {
            b.step(lr, t);
        }
        self.head.step(lr, t);
        self.emb.step(lr, t);
        loss
    }

    /// Head outputs for one sequence under an inference mode: compiles
    /// the whole network (embedding, encoder blocks, mean-pooling and
    /// head) to an `onesa_plan::Program` and runs it — bit-identical to
    /// [`TinyBert::predict_direct`] (locked by test).
    /// Compilation is memoized per (mode, sequence length) — see
    /// [`TinyBert::compile_cache`].
    pub fn predict(&self, seq: &[usize], mode: &InferenceMode) -> Vec<f32> {
        let program = self
            .cache
            .get_or_compile(mode.eval_mode(), &[seq.len()], SALT_NETWORK, || {
                self.network_program(mode, seq.len())?
                    .optimize(OptLevel::default())
            })
            .expect("encoder graph compiles");
        crate::compile::run_compiled(&program, &[Self::ids_tensor(seq)], mode).into_vec()
    }

    /// Layer-by-layer reference implementation of [`TinyBert::predict`].
    pub fn predict_direct(&self, seq: &[usize], mode: &InferenceMode) -> Vec<f32> {
        let mut h = mode.boundary(&self.emb.infer(seq));
        for b in &self.blocks {
            h = b.infer(&h, mode);
        }
        let l = seq.len();
        let mut pooled = Tensor::zeros(&[1, self.d]);
        let dst = pooled.as_mut_slice();
        for i in 0..l {
            for (p, v) in dst
                .iter_mut()
                .zip(&h.as_slice()[i * self.d..(i + 1) * self.d])
            {
                *p += v / l as f32;
            }
        }
        self.head.infer(&mode.boundary(&pooled)).into_vec()
    }

    /// Token indices as the `[1, len]` tensor a compiled program's
    /// `EmbedAt` op consumes (indices are exactly representable in f32).
    pub fn ids_tensor(seq: &[usize]) -> Tensor {
        Tensor::from_vec(seq.iter().map(|&i| i as f32).collect(), &[1, seq.len()])
            .expect("length matches")
    }

    /// Task metric on the test split: accuracy for classification,
    /// Pearson correlation for regression (as in GLUE's STS-B).
    pub fn evaluate(&self, data: &TextDataset, mode: &InferenceMode) -> f32 {
        match data.task {
            TextTask::Classification => {
                let mut correct = 0usize;
                for (seq, &y) in data.test_x.iter().zip(&data.test_y) {
                    let out = self.predict(seq, mode);
                    if stats::argmax(&out) == Some(y as usize) {
                        correct += 1;
                    }
                }
                correct as f32 / data.test_y.len().max(1) as f32
            }
            TextTask::Regression => {
                let preds: Vec<f32> = data
                    .test_x
                    .iter()
                    .map(|seq| self.predict(seq, mode)[0])
                    .collect();
                stats::pearson(&preds, &data.test_y)
            }
        }
    }
}

/// Row-wise causal softmax: row `i` of an `[M, N]` score matrix (with
/// `N - M` context columns ahead of the first query row) softmaxes only
/// its visible prefix `0 ..= (N - M) + i`, through the same row-softmax
/// routine the full-row path uses — evaluated on the prefix alone — and
/// is exact `0.0` beyond it. Bit-identical to
/// `onesa_plan::Op::CausalSoftmax` (same per-row prefix evaluation),
/// and, on the last row, to a plain softmax over the whole visible
/// context — the property KV-cached decoding's correctness rests on.
pub(crate) fn causal_softmax_rows(mode: &InferenceMode, scores: &Tensor) -> Tensor {
    let (m, n) = scores.shape().as_matrix().expect("matrix");
    assert!(
        n >= m,
        "causal scores need at least as many columns as rows"
    );
    let offset = n - m;
    let mut out = Tensor::zeros(&[m, n]);
    for (i, (row, src)) in out
        .as_mut_slice()
        .chunks_mut(n.max(1))
        .zip(scores.as_slice().chunks(n.max(1)))
        .enumerate()
    {
        let row = &mut row[..offset + i + 1];
        row.copy_from_slice(&src[..row.len()]);
        mode.softmax_row(row);
    }
    out
}

/// INT16 boundary for the causal decoder: per-**row** round trips (each
/// token's activations quantize with their own scale), mirroring
/// `onesa_plan::Op::QuantizeRows`. The tensor-wide scale of
/// [`InferenceMode::boundary`] couples every row to the whole tensor's
/// maximum, which would make a cached decode step differ from a
/// recompute-from-scratch run; the row-wise form is row-decomposable,
/// so both paths agree bit for bit. Identity when quantization is off.
pub(crate) fn boundary_rows(mode: &InferenceMode, x: &Tensor) -> Tensor {
    match mode {
        InferenceMode::Cpwl { quantize: true, .. } => {
            QuantTensor::round_trip_rows(x).expect("matrix")
        }
        _ => x.clone(),
    }
}

/// A small decoder-only causal language model — the autoregressive
/// counterpart of [`TinyBert`]: token + positional embedding, post-norm
/// transformer blocks with causally-masked attention, and a linear LM
/// head over the vocabulary that is either **tied** to the transposed
/// embedding table or a separately-initialized projection. Sampling is
/// greedy (argmax; ties resolve to the lowest token index).
///
/// Inference comes in two flavors, locked bit-identical by test:
///
/// * the retained no-cache oracle ([`TinyCausalLm::next_logits_direct`],
///   [`TinyCausalLm::generate_direct`]) recomputes the whole prefix from
///   scratch at every step — the decode-correctness reference;
/// * the compiled KV-cache path ([`TinyCausalLm::prefill`],
///   [`TinyCausalLm::decode_step`]) compiles
///   the prompt pass and each per-context decode step to
///   session-carrying `onesa_plan::Program`s whose per-layer K/V
///   tensors persist between steps (and, under
///   `onesa_core::serve::ServeEngine`, between admission windows).
///
/// Bit-identicality holds for every [`InferenceMode`] because every op
/// on the path is row-decomposable: GEMMs, layer norms and embeddings
/// are row-wise, the causal softmax evaluates each row's visible prefix
/// through the plain row-softmax routine, and INT16 boundaries
/// round-trip **per row** (`Op::QuantizeRows`), never per tensor.
#[derive(Debug, Clone)]
pub struct TinyCausalLm {
    pub(crate) emb: Embedding,
    pub(crate) blocks: Vec<EncoderBlock>,
    /// `None` ties the LM head to the transposed embedding table.
    pub(crate) head: Option<Linear>,
    pub(crate) d: usize,
    vocab: usize,
    max_len: usize,
    /// Memoized compiled programs keyed on (mode, prompt/context
    /// length), with [`SALT_PREFILL`]/[`SALT_DECODE`] separating the two
    /// program families.
    cache: CompileCache,
}

impl TinyCausalLm {
    /// Builds the decoder: embedding → `layers` causal blocks → LM head.
    /// `tied` reuses the transposed embedding table as the head weights
    /// (no bias); untied initializes a separate `[d, vocab]` projection.
    pub fn new(seed: u64, vocab: usize, max_len: usize, layers: usize, tied: bool) -> Self {
        let d = 32;
        let heads = 2;
        let ff = 64;
        let mut rng = Pcg32::seed_from_u64(seed);
        let emb = Embedding::new(&mut rng, vocab, max_len, d);
        let blocks = (0..layers)
            .map(|_| EncoderBlock::new(&mut rng, d, heads, ff))
            .collect();
        let head = if tied {
            None
        } else {
            Some(Linear::new(&mut rng, d, vocab))
        };
        TinyCausalLm {
            emb,
            blocks,
            head,
            d,
            vocab,
            max_len,
            cache: CompileCache::new(),
        }
    }

    /// The model's compile cache (hit/miss counters for tests and
    /// benches).
    pub fn compile_cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Vocabulary size (the LM head's output width).
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Token indices as the `[1, len]` tensor a compiled program's
    /// `EmbedAt` op consumes.
    pub fn ids_tensor(seq: &[usize]) -> Tensor {
        Tensor::from_vec(seq.iter().map(|&i| i as f32).collect(), &[1, seq.len()])
            .expect("length matches")
    }

    /// The LM head applied to a `[m, d]` hidden state (reference path).
    fn head_logits_direct(&self, h: &Tensor) -> Vec<f32> {
        match &self.head {
            Some(l) => l.infer(h).into_vec(),
            None => {
                let wt = self.emb.table.value.transpose().expect("matrix");
                gemm::matmul(h, &wt).expect("shapes agree").into_vec()
            }
        }
    }

    /// Hidden states `[len, d]` of the full sequence under causal
    /// attention — the recompute-from-scratch path.
    fn hidden_direct(&self, seq: &[usize], mode: &InferenceMode) -> Tensor {
        let mut h = boundary_rows(mode, &self.emb.infer(seq));
        for b in &self.blocks {
            h = b.infer_with(&h, mode, &|s| causal_softmax_rows(mode, s), &|t| {
                boundary_rows(mode, t)
            });
        }
        h
    }

    /// Next-token logits after `seq`, recomputing the whole prefix with
    /// no cache — the decode-correctness oracle the compiled KV path is
    /// tested bit-identical against.
    pub fn next_logits_direct(&self, seq: &[usize], mode: &InferenceMode) -> Vec<f32> {
        assert!(!seq.is_empty(), "causal LM needs at least one token");
        let h = self.hidden_direct(seq, mode);
        let (l, d) = h.shape().as_matrix().expect("matrix");
        let last = Tensor::from_vec(h.as_slice()[(l - 1) * d..].to_vec(), &[1, d])
            .expect("length matches");
        self.head_logits_direct(&boundary_rows(mode, &last))
    }

    /// Greedy generation of `n` tokens after `prompt`, recomputing from
    /// scratch at every step (no KV cache) — the reference a prefill
    /// followed by one decode step per token must match bit for bit.
    pub fn generate_direct(&self, prompt: &[usize], n: usize, mode: &InferenceMode) -> Vec<usize> {
        assert!(
            prompt.len() + n <= self.max_len,
            "prompt + generation exceeds max_len"
        );
        let mut seq = prompt.to_vec();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let logits = self.next_logits_direct(&seq, mode);
            let next = stats::argmax(&logits).expect("non-empty vocabulary");
            seq.push(next);
            out.push(next);
        }
        out
    }

    /// The compiled prefill program for a `len`-token prompt: causal
    /// attention over the whole prompt, per-layer K/V projections marked
    /// as session outputs, next-token logits as the program output.
    /// Memoized per (mode, len) — see [`TinyCausalLm::compile_cache`].
    pub fn compiled_prefill(&self, mode: &InferenceMode, len: usize) -> Arc<Program> {
        self.cache
            .get_or_compile(mode.eval_mode(), &[len], SALT_PREFILL, || {
                self.prefill_program(mode, len)?
                    .optimize(OptLevel::default())
            })
            .expect("prefill graph compiles")
    }

    /// The compiled one-token decode step at context length `ctx`: K/V
    /// caches enter as session inputs, grow by one row via `ConcatRows`,
    /// and leave as session outputs alongside the next-token logits.
    /// Memoized per (mode, ctx) — see [`TinyCausalLm::compile_cache`].
    pub fn compiled_decode(&self, mode: &InferenceMode, ctx: usize) -> Arc<Program> {
        self.cache
            .get_or_compile(mode.eval_mode(), &[ctx], SALT_DECODE, || {
                self.decode_program(mode, ctx)?
                    .optimize(OptLevel::default())
            })
            .expect("decode graph compiles")
    }

    /// Runs the compiled prefill over `prompt`: returns the next-token
    /// logits and the freshly-built per-layer KV cache (K then V per
    /// block, each `[prompt.len(), d]`).
    pub fn prefill(&self, prompt: &[usize], mode: &InferenceMode) -> (Vec<f32>, Vec<Tensor>) {
        assert!(!prompt.is_empty(), "causal LM needs at least one token");
        let program = self.compiled_prefill(mode, prompt.len());
        let run = crate::compile::run_compiled_full(&program, &[Self::ids_tensor(prompt)], mode);
        (run.output.into_vec(), run.session_outputs)
    }

    /// Runs one compiled decode step: feeds `token` plus the session's
    /// KV tensors, returns the next-token logits and the grown cache
    /// (each tensor one row longer).
    pub fn decode_step(
        &self,
        token: usize,
        kv: &[Tensor],
        mode: &InferenceMode,
    ) -> (Vec<f32>, Vec<Tensor>) {
        assert_eq!(kv.len(), 2 * self.blocks.len(), "K and V per block");
        let ctx = kv[0].dims()[0];
        assert!(ctx < self.max_len, "context exceeds max_len");
        let program = self.compiled_decode(mode, ctx);
        let mut inputs = Vec::with_capacity(1 + kv.len());
        inputs.push(Self::ids_tensor(&[token]));
        inputs.extend(kv.iter().cloned());
        let run = crate::compile::run_compiled_full(&program, &inputs, mode);
        (run.output.into_vec(), run.session_outputs)
    }
}

/// The propagation matrix a compiled GCN program multiplies by: the
/// constant left operand of its `Â · (…)` products.
fn propagation_matrix(program: &Program) -> Option<&Tensor> {
    program
        .nodes()
        .iter()
        .find_map(|node| match (&node.op, node.inputs[0]) {
            (Op::Gemm { .. }, Operand::Const(c)) => Some(program.consts()[c].as_ref()),
            _ => None,
        })
}

/// Two-layer Kipf–Welling GCN: `softmax(Â · ReLU(Â X W₁) · W₂)`.
#[derive(Debug, Clone)]
pub struct Gcn {
    pub(crate) w1: Param,
    pub(crate) w2: Param,
    /// Memoized compiled programs keyed on (mode, node/feature counts)
    /// and confirmed against their Â; cleared by [`Gcn::fit`].
    cache: CompileCache,
}

impl Gcn {
    /// Builds the model for `features → hidden → classes`.
    pub fn new(seed: u64, features: usize, hidden: usize, classes: usize) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        Gcn {
            w1: Param::new(rng.randn(&[features, hidden], (2.0 / features as f32).sqrt())),
            w2: Param::new(rng.randn(&[hidden, classes], (2.0 / hidden as f32).sqrt())),
            cache: CompileCache::new(),
        }
    }

    /// The model's compile cache (hit/miss counters for tests and
    /// benches).
    pub fn compile_cache(&self) -> &CompileCache {
        &self.cache
    }

    fn forward_parts(&self, g: &GraphDataset) -> (Tensor, Tensor, Tensor, Tensor) {
        let xw = gemm::matmul(&g.x, &self.w1.value).expect("shapes agree");
        let z1 = gemm::matmul(&g.a_hat, &xw).expect("shapes agree");
        let h1 = z1.map(|v| v.max(0.0));
        let hw = gemm::matmul(&h1, &self.w2.value).expect("shapes agree");
        let z2 = gemm::matmul(&g.a_hat, &hw).expect("shapes agree");
        (z1, h1, z2, xw)
    }

    /// Full-batch training on the train-node mask; returns final loss.
    pub fn fit(&mut self, g: &GraphDataset, cfg: &TrainConfig) -> f32 {
        self.cache.clear();
        let mut last = f32::NAN;
        for t in 1..=cfg.epochs * 10 {
            let (z1, h1, z2, _) = self.forward_parts(g);
            // Masked cross-entropy on training nodes.
            let (n, c) = z2.shape().as_matrix().expect("matrix");
            let probs = onesa_cpwl::ops::softmax_rows_exact(&z2).expect("matrix");
            let mut dz2 = Tensor::zeros(&[n, c]);
            let dst = dz2.as_mut_slice();
            let m = g.train_idx.len() as f32;
            let mut loss = 0.0f32;
            for &i in &g.train_idx {
                let p = probs.as_slice()[i * c + g.y[i]].max(1e-12);
                loss -= p.ln() / m;
                for j in 0..c {
                    dst[i * c + j] =
                        (probs.as_slice()[i * c + j] - if j == g.y[i] { 1.0 } else { 0.0 }) / m;
                }
            }
            // z2 = Â (h1 W2): dW2 = h1ᵀ Âᵀ dz2 = h1ᵀ (Â dz2) (Â symmetric).
            let adz2 = gemm::matmul(&g.a_hat, &dz2).expect("shapes agree");
            let h1t = h1.transpose().expect("matrix");
            self.w2.grad = gemm::matmul(&h1t, &adz2).expect("shapes agree");
            // dh1 = Â dz2 W2ᵀ.
            let w2t = self.w2.value.transpose().expect("matrix");
            let dh1 = gemm::matmul(&adz2, &w2t).expect("shapes agree");
            let dz1 = dh1
                .zip(&z1, |d, z| if z > 0.0 { d } else { 0.0 })
                .expect("same shape");
            let adz1 = gemm::matmul(&g.a_hat, &dz1).expect("shapes agree");
            let xt = g.x.transpose().expect("matrix");
            self.w1.grad = gemm::matmul(&xt, &adz1).expect("shapes agree");
            self.w1.adam_step(cfg.lr, t);
            self.w2.adam_step(cfg.lr, t);
            self.w1.zero_grad();
            self.w2.zero_grad();
            last = loss;
        }
        last
    }

    /// Node logits under an inference mode: compiles the propagation
    /// graph (`softmax` excluded, as in training) to an
    /// `onesa_plan::Program` and runs it — bit-identical to
    /// [`Gcn::logits_direct`] (locked by test). Compilation is memoized
    /// per (mode, graph shape, Â) — see [`Gcn::compile_cache`].
    pub fn logits(&self, g: &GraphDataset, mode: &InferenceMode) -> Tensor {
        // The propagation matrix Â is baked into the program as a
        // constant — on the dataset's own storage — so it is part of
        // the cache key (two graphs with the same shape must not share a
        // compilation). A hit is confirmed against the Â the cached
        // program holds: O(1) when it is the caller's (every clone of the
        // dataset it was compiled from), an exact early-exit compare for
        // an equal graph allocated apart. Nothing is hashed.
        let program = self
            .cache
            .get_or_compile_matching(
                mode.eval_mode(),
                g.x.dims(),
                |cached| propagation_matrix(cached).is_some_and(|a| same_tensor(a, &g.a_hat)),
                || self.network_program(mode, g)?.optimize(OptLevel::default()),
            )
            .expect("GCN graph compiles");
        crate::compile::run_compiled(&program, std::slice::from_ref(&g.x), mode)
    }

    /// Layer-by-layer reference implementation of [`Gcn::logits`].
    pub fn logits_direct(&self, g: &GraphDataset, mode: &InferenceMode) -> Tensor {
        let x = mode.boundary(&g.x);
        let xw = gemm::matmul(&x, &self.w1.value).expect("shapes agree");
        let z1 = mode.boundary(&gemm::matmul(&g.a_hat, &xw).expect("shapes agree"));
        let h1 = mode.relu(&z1);
        let hw = gemm::matmul(&h1, &self.w2.value).expect("shapes agree");
        mode.boundary(&gemm::matmul(&g.a_hat, &hw).expect("shapes agree"))
    }

    /// Test-node accuracy under an inference mode.
    pub fn evaluate(&self, g: &GraphDataset, mode: &InferenceMode) -> f32 {
        let logits = self.logits(g, mode);
        let (_, c) = logits.shape().as_matrix().expect("matrix");
        let mut correct = 0usize;
        for &i in &g.test_idx {
            let row = &logits.as_slice()[i * c..(i + 1) * c];
            if stats::argmax(row) == Some(g.y[i]) {
                correct += 1;
            }
        }
        correct as f32 / g.test_idx.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_data::Difficulty;

    #[test]
    fn cnn_learns_easy_task() {
        let data = ImageDataset::generate(
            "t",
            1,
            Difficulty {
                noise: 0.3,
                classes: 3,
            },
            (1, 8, 8),
            12,
        );
        let mut model = SmallCnn::new(7, 1, 3);
        let cfg = TrainConfig {
            epochs: 14,
            lr: 5e-3,
            batch_size: 12,
            seed: 7,
        };
        let loss = model.fit(&data, &cfg);
        assert!(loss.is_finite());
        let acc = model.evaluate(&data, &InferenceMode::Exact);
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn cnn_cpwl_close_to_exact_at_fine_granularity() {
        let data = ImageDataset::generate(
            "t",
            2,
            Difficulty {
                noise: 0.3,
                classes: 3,
            },
            (1, 8, 8),
            10,
        );
        let mut model = SmallCnn::new(8, 1, 3);
        model.fit(
            &data,
            &TrainConfig {
                epochs: 5,
                lr: 5e-3,
                batch_size: 10,
                seed: 8,
            },
        );
        let exact = model.evaluate(&data, &InferenceMode::Exact);
        let fine = model.evaluate(&data, &InferenceMode::cpwl(0.0625).unwrap());
        assert!((exact - fine).abs() < 0.15, "exact {exact} vs cpwl {fine}");
    }

    #[test]
    fn bert_learns_marker_task() {
        let data = TextDataset::classification("t", 3, Difficulty::easy(2), 32, 12, 24);
        let mut model = TinyBert::new(5, 32, 12, 2, 1);
        let cfg = TrainConfig {
            epochs: 6,
            lr: 2e-3,
            batch_size: 1,
            seed: 5,
        };
        model.fit(&data, &cfg);
        let acc = model.evaluate(&data, &InferenceMode::Exact);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn gcn_learns_communities() {
        let g = GraphDataset::generate("t", 4, Difficulty::easy(3), 45, 8, 0.3);
        let mut model = Gcn::new(6, 8, 16, 3);
        let cfg = TrainConfig {
            epochs: 8,
            lr: 1e-2,
            batch_size: 0,
            seed: 6,
        };
        model.fit(&g, &cfg);
        let acc = model.evaluate(&g, &InferenceMode::Exact);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn compile_cache_hits_on_repeated_calls_and_splits_on_geometry() {
        use onesa_tensor::rng::Pcg32;
        let model = SmallCnn::new(7, 1, 3);
        let mode = InferenceMode::cpwl(0.25).unwrap();
        let mut rng = Pcg32::seed_from_u64(1);
        let x = rng.randn(&[1, 8, 8], 1.0);
        let first = model.logits(&x, &mode);
        assert_eq!(
            (model.compile_cache().hits(), model.compile_cache().misses()),
            (0, 1)
        );
        for _ in 0..3 {
            assert_eq!(model.logits(&x, &mode), first);
        }
        assert_eq!(
            model.compile_cache().hits(),
            3,
            "repeat calls must not recompile"
        );
        // A different geometry compiles its own entry; the old one stays.
        let big = rng.randn(&[1, 10, 10], 1.0);
        let _ = model.logits(&big, &mode);
        assert_eq!(model.compile_cache().misses(), 2);
        // Exact mode is another key.
        let _ = model.logits(&x, &InferenceMode::Exact);
        assert_eq!(model.compile_cache().misses(), 3);
    }

    #[test]
    fn fit_invalidates_the_compile_cache() {
        use onesa_tensor::rng::Pcg32;
        let data = ImageDataset::generate(
            "t",
            3,
            Difficulty {
                noise: 0.3,
                classes: 3,
            },
            (1, 8, 8),
            6,
        );
        let mut model = SmallCnn::new(9, 1, 3);
        let mode = InferenceMode::cpwl(0.25).unwrap();
        let x = Pcg32::seed_from_u64(2).randn(&[1, 8, 8], 1.0);
        // Populate the cache with the untrained weights...
        let before = model.logits(&x, &mode);
        // ...then train: the cached program's baked-in weights are stale.
        model.fit(
            &data,
            &TrainConfig {
                epochs: 2,
                lr: 5e-3,
                batch_size: 6,
                seed: 7,
            },
        );
        assert_eq!(model.compile_cache().len(), 0, "fit must clear the cache");
        let after = model.logits(&x, &mode);
        assert_ne!(before, after, "training changed the weights");
        assert_eq!(
            after,
            model.logits_direct(&x, &mode),
            "post-fit cache is fresh"
        );
    }

    #[test]
    fn gcn_cache_distinguishes_graphs_with_equal_shapes() {
        let g1 = GraphDataset::generate("a", 4, Difficulty::easy(3), 20, 6, 0.3);
        let g2 = GraphDataset::generate("b", 5, Difficulty::easy(3), 20, 6, 0.3);
        assert_eq!(g1.x.dims(), g2.x.dims());
        let model = Gcn::new(6, 6, 8, 3);
        let mode = InferenceMode::Exact;
        let l1 = model.logits(&g1, &mode);
        let l2 = model.logits(&g2, &mode);
        // Same shapes, different Â: the hit test must keep them apart.
        assert_eq!(model.compile_cache().misses(), 2);
        assert_ne!(l1, l2);
        assert_eq!(l1, model.logits_direct(&g1, &mode));
        assert_eq!(l2, model.logits_direct(&g2, &mode));
    }

    #[test]
    fn gcn_cache_tells_graphs_apart_by_one_element() {
        // The hit test compares the cached program's Â with the caller's
        // bit for bit: one edge weight (even its sign bit) is a new graph.
        let g1 = GraphDataset::generate("a", 4, Difficulty::easy(3), 20, 6, 0.3);
        let model = Gcn::new(6, 6, 8, 3);
        let mode = InferenceMode::Exact;
        let _ = model.logits(&g1, &mode);
        let _ = model.logits(&g1, &mode);
        let cache = model.compile_cache();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let mut g2 = g1.clone();
        let last = g2.a_hat.len() - 1;
        g2.a_hat.as_mut_slice()[last] += 0.125;
        let mut g3 = g1.clone();
        let zero = g3.a_hat.as_slice().iter().position(|v| *v == 0.0).unwrap();
        g3.a_hat.as_mut_slice()[zero] = -0.0;
        for g in [&g2, &g3] {
            assert_eq!(model.logits(g, &mode), model.logits_direct(g, &mode));
        }
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        let _ = model.logits(&g2, &mode);
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
    }

    /// 16 clones of one `sbm_graph`, each with features of its own — one
    /// graph carrying many feature sets, as the benchmark serves its graph.
    fn graph_clones(base: &GraphDataset) -> Vec<GraphDataset> {
        let mut rng = onesa_tensor::rng::Pcg32::seed_from_u64(9);
        (0..16)
            .map(|_| {
                let mut g = base.clone();
                g.x = rng.randn(&[120, 8], 1.0);
                g
            })
            .collect()
    }

    /// 120 nodes in 7 communities, 8 features.
    fn sbm_graph() -> GraphDataset {
        GraphDataset::generate("t", 7, Difficulty::medium(7), 120, 8, 0.16)
    }

    #[test]
    fn gcn_clones_share_one_a_hat_and_one_compiled_program() {
        let base = sbm_graph();
        let model = Gcn::new(6, 8, 16, 7);
        let mode = InferenceMode::cpwl(0.25).unwrap();
        for g in &graph_clones(&base) {
            assert!(g.a_hat.shares_storage(&base.a_hat));
            assert_eq!(model.logits(g, &mode), model.logits_direct(g, &mode));
        }
        let cache = model.compile_cache();
        assert_eq!((cache.misses(), cache.hits()), (1, 15));
        // An equal Â allocated apart is found by the full compare.
        let apart = sbm_graph();
        assert!(!apart.a_hat.shares_storage(&base.a_hat));
        assert_eq!(
            model.logits(&apart, &mode),
            model.logits_direct(&apart, &mode)
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 16));
        // The compiled program's Â is the dataset's, not a copy of it.
        let compiled =
            || -> onesa_tensor::Result<Program> { unreachable!("a hit compiles nothing") };
        let program = cache
            .get_or_compile_matching(mode.eval_mode(), &[120, 8], |_| true, compiled)
            .unwrap();
        assert!(program
            .consts()
            .iter()
            .any(|c| c.shares_storage(&base.a_hat)));
    }

    #[test]
    fn an_edited_clone_compiles_its_own_program_and_leaves_the_shared_a_hat_alone() {
        let base = sbm_graph();
        let model = Gcn::new(6, 8, 16, 7);
        let mode = InferenceMode::Exact;
        let want = model.logits_direct(&base, &mode);
        assert_eq!(model.logits(&base, &mode), want);
        let pristine = Tensor::from_vec(base.a_hat.as_slice().to_vec(), base.a_hat.dims()).unwrap();
        // The two edits the one-element test plants, made through the
        // clones' shared Â.
        let mut bumped = base.clone();
        let last = bumped.a_hat.len() - 1;
        bumped.a_hat.as_mut_slice()[last] += 0.125;
        let mut signed = base.clone();
        let zero = signed
            .a_hat
            .as_slice()
            .iter()
            .position(|v| v.to_bits() == 0);
        signed.a_hat.as_mut_slice()[zero.unwrap()] = -0.0;
        for g in [&bumped, &signed] {
            assert!(!g.a_hat.shares_storage(&base.a_hat));
            assert_eq!(model.logits(g, &mode), model.logits_direct(g, &mode));
        }
        let cache = model.compile_cache();
        assert_eq!((cache.misses(), cache.hits()), (3, 0));
        assert!(
            same_tensor(&base.a_hat, &pristine),
            "the original's Â is untouched"
        );
        assert_eq!(model.logits(&base, &mode), want);
        assert_eq!((cache.misses(), cache.hits()), (3, 1));
    }

    #[test]
    fn the_benchmark_graphs_a_hat_packs_by_rows() {
        // `infer_library`'s graph (420 nodes, 7 communities, 32 features)
        // at the seeds its runs use.
        for seed in 1..=10 {
            let g = GraphDataset::generate("bench", seed, Difficulty::medium(7), 420, 32, 0.16);
            let packed = onesa_tensor::parallel::PackedLhs::pack(&g.a_hat).unwrap();
            assert!(packed.by_rows(), "seed {seed}");
        }
    }

    #[test]
    fn gcn_insensitive_to_granularity() {
        // The paper observes GCNs barely degrade under CPWL (ReLU is
        // exact; only quantization noise remains).
        let g = GraphDataset::generate("t", 5, Difficulty::easy(3), 45, 8, 0.3);
        let mut model = Gcn::new(9, 8, 16, 3);
        model.fit(
            &g,
            &TrainConfig {
                epochs: 8,
                lr: 1e-2,
                batch_size: 0,
                seed: 9,
            },
        );
        let exact = model.evaluate(&g, &InferenceMode::Exact);
        let coarse = model.evaluate(&g, &InferenceMode::cpwl(1.0).unwrap());
        assert!(
            (exact - coarse).abs() < 0.1,
            "exact {exact} vs coarse {coarse}"
        );
    }
}
