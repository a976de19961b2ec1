//! Trainable layers with hand-derived backward passes.
//!
//! Every layer caches what its backward pass needs during `forward` and
//! accumulates parameter gradients during `backward`; gradients are
//! consumed by per-layer Adam steps (see [`crate::train::TrainConfig`]
//! for the hyperparameters). Gradient correctness is
//! property-tested against numerical differentiation in
//! `tests/gradcheck.rs`.

use onesa_cpwl::NonlinearFn;
use onesa_tensor::im2col::{self, Conv2dGeometry};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};

/// A trainable parameter: value, gradient and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient.
    pub grad: Tensor,
    m: Tensor,
    v: Tensor,
}

impl Param {
    /// Wraps an initial value.
    pub(crate) fn new(value: Tensor) -> Self {
        let dims = value.dims().to_vec();
        Param {
            value,
            grad: Tensor::zeros(&dims),
            m: Tensor::zeros(&dims),
            v: Tensor::zeros(&dims),
        }
    }

    /// Clears the accumulated gradient.
    pub(crate) fn zero_grad(&mut self) {
        self.grad = Tensor::zeros(self.grad.dims());
    }

    /// One Adam update with bias correction at step `t` (1-based).
    pub(crate) fn adam_step(&mut self, lr: f32, t: usize) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        let t = t.max(1) as i32;
        let (vs, gs, ms, vs2) = (
            self.value.as_mut_slice(),
            self.grad.as_slice(),
            self.m.as_mut_slice(),
            self.v.as_mut_slice(),
        );
        let bc1 = 1.0 - B1.powi(t);
        let bc2 = 1.0 - B2.powi(t);
        for i in 0..vs.len() {
            ms[i] = B1 * ms[i] + (1.0 - B1) * gs[i];
            vs2[i] = B2 * vs2[i] + (1.0 - B2) * gs[i] * gs[i];
            let mhat = ms[i] / bc1;
            let vhat = vs2[i] / bc2;
            vs[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Fully connected layer `y = x·W + b` for `x: [m, in]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight `[in, out]`.
    pub w: Param,
    /// Bias `[out]`.
    pub(crate) b: Param,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Kaiming-style initialization.
    pub fn new(rng: &mut Pcg32, input: usize, output: usize) -> Self {
        let std = (2.0 / input as f32).sqrt();
        Linear {
            w: Param::new(rng.randn(&[input, output], std)),
            b: Param::new(Tensor::zeros(&[output])),
            cache_x: None,
        }
    }

    /// Forward pass, caching the input for backward.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = gemm::matmul(x, &self.w.value).expect("shape checked by caller");
        let (m, n) = y.shape().as_matrix().expect("matmul returns a matrix");
        for i in 0..m {
            let row = &mut y.as_mut_slice()[i * n..(i + 1) * n];
            for (j, v) in row.iter_mut().enumerate() {
                *v += self.b.value.as_slice()[j];
            }
        }
        self.cache_x = Some(x.clone());
        y
    }

    /// Inference-only forward (no caching).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = gemm::matmul(x, &self.w.value).expect("shape checked by caller");
        let (m, n) = y.shape().as_matrix().expect("matrix");
        for i in 0..m {
            let row = &mut y.as_mut_slice()[i * n..(i + 1) * n];
            for (j, v) in row.iter_mut().enumerate() {
                *v += self.b.value.as_slice()[j];
            }
        }
        y
    }

    /// Backward pass: accumulates `dW`, `db`, returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("forward before backward");
        let xt = x.transpose().expect("matrix");
        let dw = gemm::matmul(&xt, dy).expect("shapes agree");
        self.w.grad = self.w.grad.add(&dw).expect("same shape");
        let (m, n) = dy.shape().as_matrix().expect("matrix");
        let db = self.b.grad.as_mut_slice();
        for i in 0..m {
            for (g, d) in db.iter_mut().zip(&dy.as_slice()[i * n..(i + 1) * n]) {
                *g += d;
            }
        }
        let wt = self.w.value.transpose().expect("matrix");
        gemm::matmul(dy, &wt).expect("shapes agree")
    }

    /// Adam step on both parameters.
    pub(crate) fn step(&mut self, lr: f32, t: usize) {
        self.w.adam_step(lr, t);
        self.b.adam_step(lr, t);
        self.w.zero_grad();
        self.b.zero_grad();
    }
}

/// 2-D convolution via im2col, operating on one `[C, H, W]` sample.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Geometry (channels, kernel, stride, padding).
    pub(crate) geo: Conv2dGeometry,
    /// Flattened kernel `[out_channels, in_channels·k·k]`.
    pub w: Param,
    /// Per-output-channel bias.
    pub(crate) b: Param,
    cache: Vec<(Tensor, usize, usize)>, // (cols, oh, ow) per sample
    input_hw: (usize, usize),
}

impl Conv2d {
    /// Kaiming-style initialization.
    pub fn new(rng: &mut Pcg32, geo: Conv2dGeometry) -> Self {
        let fan_in = geo.patch_len();
        let std = (2.0 / fan_in as f32).sqrt();
        Conv2d {
            geo,
            w: Param::new(rng.randn(&[geo.out_channels, fan_in], std)),
            b: Param::new(Tensor::zeros(&[geo.out_channels])),
            cache: Vec::new(),
            input_hw: (0, 0),
        }
    }

    /// Forward for one sample; caches the im2col matrix.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        let (h, w) = (dims[1], dims[2]);
        self.input_hw = (h, w);
        let (oh, ow) = self.geo.output_hw(h, w).expect("valid geometry");
        let cols = im2col::im2col(x, &self.geo).expect("shape checked");
        let wt = self.w.value.transpose().expect("matrix");
        let mut prod = gemm::matmul(&cols, &wt).expect("shapes agree");
        let (m, n) = prod.shape().as_matrix().expect("matrix");
        let dst = prod.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                dst[i * n + j] += self.b.value.as_slice()[j];
            }
        }
        self.cache.push((cols, oh, ow));
        im2col::col2im_output(&prod, self.geo.out_channels, oh, ow).expect("consistent")
    }

    /// Inference-only forward (no caching).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        let (h, w) = (dims[1], dims[2]);
        let (oh, ow) = self.geo.output_hw(h, w).expect("valid geometry");
        let cols = im2col::im2col(x, &self.geo).expect("shape checked");
        let wt = self.w.value.transpose().expect("matrix");
        let mut prod = gemm::matmul(&cols, &wt).expect("shapes agree");
        let (m, n) = prod.shape().as_matrix().expect("matrix");
        let dst = prod.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                dst[i * n + j] += self.b.value.as_slice()[j];
            }
        }
        im2col::col2im_output(&prod, self.geo.out_channels, oh, ow).expect("consistent")
    }

    /// Backward for the most recent cached sample (LIFO); returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if there is no cached forward.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (cols, oh, ow) = self.cache.pop().expect("forward before backward");
        let oc = self.geo.out_channels;
        // dy: [oc, oh, ow] → dprod: [oh·ow, oc]
        let mut dprod = Tensor::zeros(&[oh * ow, oc]);
        let dst = dprod.as_mut_slice();
        for ch in 0..oc {
            for p in 0..oh * ow {
                dst[p * oc + ch] = dy.as_slice()[ch * oh * ow + p];
            }
        }
        // dW = dprodᵀ · cols ;  db = colsum dprod ; dcols = dprod · W
        let dpt = dprod.transpose().expect("matrix");
        let dw = gemm::matmul(&dpt, &cols).expect("shapes agree");
        self.w.grad = self.w.grad.add(&dw).expect("same shape");
        let db = self.b.grad.as_mut_slice();
        for p in 0..oh * ow {
            for (g, d) in db.iter_mut().zip(&dprod.as_slice()[p * oc..(p + 1) * oc]) {
                *g += d;
            }
        }
        let dcols = gemm::matmul(&dprod, &self.w.value).expect("shapes agree");
        // Scatter-add dcols back to the input layout (col2im backward).
        let (h, w) = self.input_hw;
        let c = self.geo.in_channels;
        let k = self.geo.kernel;
        let pad = self.geo.padding as isize;
        let mut dx = Tensor::zeros(&[c, h, w]);
        let dst = dx.as_mut_slice();
        let patch = self.geo.patch_len();
        for oy in 0..oh {
            for ox in 0..ow {
                let row = oy * ow + ox;
                for ch in 0..c {
                    for ky in 0..k {
                        let iy = (oy * self.geo.stride) as isize - pad + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * self.geo.stride) as isize - pad + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = ch * k * k + ky * k + kx;
                            dst[ch * h * w + iy as usize * w + ix as usize] +=
                                dcols.as_slice()[row * patch + col];
                        }
                    }
                }
            }
        }
        dx
    }

    /// Adam step; clears gradients and caches.
    pub(crate) fn step(&mut self, lr: f32, t: usize) {
        self.w.adam_step(lr, t);
        self.b.adam_step(lr, t);
        self.w.zero_grad();
        self.b.zero_grad();
        self.cache.clear();
    }
}

/// Batch normalization over `[C, H, W]` samples (statistics across the
/// batch and spatial dimensions, per channel).
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Scale γ per channel.
    pub gamma: Param,
    /// Shift β per channel.
    pub(crate) beta: Param,
    /// Running mean (inference).
    pub(crate) running_mean: Vec<f32>,
    /// Running variance (inference).
    pub(crate) running_var: Vec<f32>,
    eps: f32,
    momentum: f32,
    cache: Option<(Vec<Tensor>, Vec<f32>, Vec<f32>)>, // x̂ per sample, mean, var
}

impl BatchNorm2d {
    /// Identity-initialized batch norm for `channels` channels.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Epsilon used in normalization.
    pub(crate) fn eps(&self) -> f32 {
        self.eps
    }

    /// Training forward over a whole batch.
    pub fn forward_train(&mut self, xs: &[Tensor]) -> Vec<Tensor> {
        let c = self.running_mean.len();
        let dims = xs[0].dims();
        let (h, w) = (dims[1], dims[2]);
        let n = (xs.len() * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for x in xs {
            for (ch, m) in mean.iter_mut().enumerate() {
                for &v in &x.as_slice()[ch * h * w..(ch + 1) * h * w] {
                    *m += v;
                }
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        for x in xs {
            for ch in 0..c {
                for &v in &x.as_slice()[ch * h * w..(ch + 1) * h * w] {
                    var[ch] += (v - mean[ch]) * (v - mean[ch]);
                }
            }
        }
        for v in &mut var {
            *v /= n;
        }
        for ch in 0..c {
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
        }
        let mut xhats = Vec::with_capacity(xs.len());
        let mut ys = Vec::with_capacity(xs.len());
        for x in xs {
            let mut xhat = x.clone();
            for ch in 0..c {
                let inv = 1.0 / (var[ch] + self.eps).sqrt();
                for v in &mut xhat.as_mut_slice()[ch * h * w..(ch + 1) * h * w] {
                    *v = (*v - mean[ch]) * inv;
                }
            }
            let mut y = xhat.clone();
            for ch in 0..c {
                let g = self.gamma.value.as_slice()[ch];
                let b = self.beta.value.as_slice()[ch];
                for v in &mut y.as_mut_slice()[ch * h * w..(ch + 1) * h * w] {
                    *v = *v * g + b;
                }
            }
            xhats.push(xhat);
            ys.push(y);
        }
        self.cache = Some((xhats, mean, var));
        ys
    }

    /// Backward over the whole batch; returns per-sample `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward_train` was not called first.
    pub fn backward(&mut self, dys: &[Tensor]) -> Vec<Tensor> {
        let (xhats, _mean, var) = self.cache.take().expect("forward before backward");
        let c = self.running_mean.len();
        let dims = dys[0].dims();
        let (h, w) = (dims[1], dims[2]);
        let n = (dys.len() * h * w) as f32;
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        let mut sum_dxhat = vec![0.0f32; c];
        let mut sum_dxhat_xhat = vec![0.0f32; c];
        for (dy, xhat) in dys.iter().zip(&xhats) {
            for ch in 0..c {
                let g = self.gamma.value.as_slice()[ch];
                for (dv, xv) in dy.as_slice()[ch * h * w..(ch + 1) * h * w]
                    .iter()
                    .zip(&xhat.as_slice()[ch * h * w..(ch + 1) * h * w])
                {
                    dgamma[ch] += dv * xv;
                    dbeta[ch] += dv;
                    let dxh = dv * g;
                    sum_dxhat[ch] += dxh;
                    sum_dxhat_xhat[ch] += dxh * xv;
                }
            }
        }
        let (dg, db) = (
            self.gamma.grad.as_mut_slice(),
            self.beta.grad.as_mut_slice(),
        );
        for ch in 0..c {
            dg[ch] += dgamma[ch];
            db[ch] += dbeta[ch];
        }
        dys.iter()
            .zip(&xhats)
            .map(|(dy, xhat)| {
                let mut dx = dy.clone();
                for ch in 0..c {
                    let g = self.gamma.value.as_slice()[ch];
                    let inv = 1.0 / (var[ch] + self.eps).sqrt();
                    for (dv, xv) in dx.as_mut_slice()[ch * h * w..(ch + 1) * h * w]
                        .iter_mut()
                        .zip(&xhat.as_slice()[ch * h * w..(ch + 1) * h * w])
                    {
                        let dxh = *dv * g;
                        *dv = inv * (dxh - sum_dxhat[ch] / n - xv * sum_dxhat_xhat[ch] / n);
                    }
                }
                dx
            })
            .collect()
    }

    /// Adam step on γ/β.
    pub(crate) fn step(&mut self, lr: f32, t: usize) {
        self.gamma.adam_step(lr, t);
        self.beta.adam_step(lr, t);
        self.gamma.zero_grad();
        self.beta.zero_grad();
    }
}

/// Row-wise layer normalization with learned affine.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale γ.
    pub gamma: Param,
    /// Shift β.
    pub beta: Param,
    eps: f32,
    cache: Option<(Tensor, Vec<f32>)>, // x̂, inv_std per row
}

impl LayerNorm {
    /// Identity-initialized layer norm over rows of width `n`.
    pub fn new(n: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Tensor::ones(&[n])),
            beta: Param::new(Tensor::zeros(&[n])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Epsilon used in normalization.
    pub(crate) fn eps(&self) -> f32 {
        self.eps
    }

    /// Forward over `[m, n]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (m, n) = x.shape().as_matrix().expect("matrix");
        let mut xhat = x.clone();
        let mut inv_stds = Vec::with_capacity(m);
        for i in 0..m {
            let row = &mut xhat.as_mut_slice()[i * n..(i + 1) * n];
            let mean: f32 = row.iter().sum::<f32>() / n as f32;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for v in row.iter_mut() {
                *v = (*v - mean) * inv;
            }
            inv_stds.push(inv);
        }
        let mut y = xhat.clone();
        for i in 0..m {
            let row = &mut y.as_mut_slice()[i * n..(i + 1) * n];
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * self.gamma.value.as_slice()[j] + self.beta.value.as_slice()[j];
            }
        }
        self.cache = Some((xhat, inv_stds));
        y
    }

    /// Backward; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (xhat, inv_stds) = self.cache.take().expect("forward before backward");
        let (m, n) = dy.shape().as_matrix().expect("matrix");
        let mut dx = dy.clone();
        assert_eq!(inv_stds.len(), m, "cached forward batch vs dy rows");
        let (dg, db) = (
            self.gamma.grad.as_mut_slice(),
            self.beta.grad.as_mut_slice(),
        );
        for (i, &inv_std) in inv_stds.iter().enumerate() {
            let dyr = &dy.as_slice()[i * n..(i + 1) * n];
            let xr = &xhat.as_slice()[i * n..(i + 1) * n];
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for j in 0..n {
                dg[j] += dyr[j] * xr[j];
                db[j] += dyr[j];
                let dxh = dyr[j] * self.gamma.value.as_slice()[j];
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * xr[j];
            }
            let row = &mut dx.as_mut_slice()[i * n..(i + 1) * n];
            for (j, v) in row.iter_mut().enumerate() {
                let dxh = dyr[j] * self.gamma.value.as_slice()[j];
                *v = inv_std * (dxh - sum_dxhat / n as f32 - xr[j] * sum_dxhat_xhat / n as f32);
            }
        }
        dx
    }

    /// Adam step on γ/β.
    pub(crate) fn step(&mut self, lr: f32, t: usize) {
        self.gamma.adam_step(lr, t);
        self.beta.adam_step(lr, t);
        self.gamma.zero_grad();
        self.beta.zero_grad();
    }
}

/// Token embedding table with additive learned positional embeddings.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Token table `[vocab, d]`.
    pub table: Param,
    /// Positional table `[max_len, d]`.
    pub(crate) pos: Param,
    cache_ids: Vec<usize>,
}

impl Embedding {
    /// Small-normal initialization.
    pub fn new(rng: &mut Pcg32, vocab: usize, max_len: usize, d: usize) -> Self {
        Embedding {
            table: Param::new(rng.randn(&[vocab, d], 0.05)),
            pos: Param::new(rng.randn(&[max_len, d], 0.05)),
            cache_ids: Vec::new(),
        }
    }

    /// Looks up a sequence: `[len, d]`.
    pub fn forward(&mut self, ids: &[usize]) -> Tensor {
        self.cache_ids = ids.to_vec();
        self.infer(ids)
    }

    /// Inference-only lookup.
    pub fn infer(&self, ids: &[usize]) -> Tensor {
        let d = self.table.value.dims()[1];
        let mut out = Tensor::zeros(&[ids.len(), d]);
        for (i, &id) in ids.iter().enumerate() {
            let tok = self.table.value.row(id).expect("id < vocab");
            let pos = self.pos.value.row(i).expect("i < max_len");
            let row = out.row_mut(i).expect("in bounds");
            for j in 0..d {
                row[j] = tok[j] + pos[j];
            }
        }
        out
    }

    /// Backward: scatter-adds into the tables.
    pub fn backward(&mut self, dy: &Tensor) {
        let d = self.table.value.dims()[1];
        let (dt, dp) = (self.table.grad.as_mut_slice(), self.pos.grad.as_mut_slice());
        for (i, &id) in self.cache_ids.iter().enumerate() {
            for j in 0..d {
                let g = dy.as_slice()[i * d + j];
                dt[id * d + j] += g;
                dp[i * d + j] += g;
            }
        }
    }

    /// Adam step.
    pub(crate) fn step(&mut self, lr: f32, t: usize) {
        self.table.adam_step(lr, t);
        self.pos.adam_step(lr, t);
        self.table.zero_grad();
        self.pos.zero_grad();
    }
}

/// Multi-head self-attention (pre-softmax scaling, learned projections).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub(crate) wq: Linear,
    /// Key projection.
    pub(crate) wk: Linear,
    /// Value projection.
    pub(crate) wv: Linear,
    /// Output projection.
    pub(crate) wo: Linear,
    heads: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Vec<Tensor>, // per head [L, L]
}

impl MultiHeadAttention {
    /// Builds attention with `heads` heads over model width `d`
    /// (must divide evenly).
    ///
    /// # Panics
    ///
    /// Panics if `d % heads != 0`.
    pub fn new(rng: &mut Pcg32, d: usize, heads: usize) -> Self {
        assert_eq!(d % heads, 0, "heads must divide model width");
        MultiHeadAttention {
            wq: Linear::new(rng, d, d),
            wk: Linear::new(rng, d, d),
            wv: Linear::new(rng, d, d),
            wo: Linear::new(rng, d, d),
            heads,
            cache: None,
        }
    }

    /// Number of heads.
    pub(crate) fn heads(&self) -> usize {
        self.heads
    }

    fn head_slice(x: &Tensor, head: usize, dk: usize) -> Tensor {
        let (l, _d) = x.shape().as_matrix().expect("matrix");
        let mut out = Tensor::zeros(&[l, dk]);
        let dst = out.as_mut_slice();
        for i in 0..l {
            for j in 0..dk {
                dst[i * dk + j] = x.as_slice()[i * x.dims()[1] + head * dk + j];
            }
        }
        out
    }

    fn head_write(x: &mut Tensor, head: usize, dk: usize, part: &Tensor) {
        let (l, d) = x.shape().as_matrix().expect("matrix");
        let dst = x.as_mut_slice();
        for i in 0..l {
            for j in 0..dk {
                dst[i * d + head * dk + j] += part.as_slice()[i * dk + j];
            }
        }
    }

    /// Forward with an optional pluggable softmax (the CPWL inference
    /// path passes the table-based one).
    pub fn forward_with(
        &mut self,
        x: &Tensor,
        softmax: &dyn Fn(&Tensor) -> Tensor,
        train: bool,
    ) -> Tensor {
        let (l, d) = x.shape().as_matrix().expect("matrix");
        let dk = d / self.heads;
        let (q, k, v) = if train {
            (self.wq.forward(x), self.wk.forward(x), self.wv.forward(x))
        } else {
            (self.wq.infer(x), self.wk.infer(x), self.wv.infer(x))
        };
        let mut concat = Tensor::zeros(&[l, d]);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = Self::head_slice(&q, h, dk);
            let kh = Self::head_slice(&k, h, dk);
            let vh = Self::head_slice(&v, h, dk);
            let kt = kh.transpose().expect("matrix");
            let scores = gemm::matmul(&qh, &kt)
                .expect("shapes agree")
                .scale(1.0 / (dk as f32).sqrt());
            let p = softmax(&scores);
            let ctx = gemm::matmul(&p, &vh).expect("shapes agree");
            Self::head_write(&mut concat, h, dk, &ctx);
            probs.push(p);
        }
        if train {
            self.cache = Some(AttnCache { q, k, v, probs });
            self.wo.forward(&concat)
        } else {
            self.wo.infer(&concat)
        }
    }

    /// Backward; returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if the training forward was not called first.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let AttnCache { q, k, v, probs } = self.cache.take().expect("forward before backward");
        let (l, d) = dy.shape().as_matrix().expect("matrix");
        let dk = d / self.heads;
        let dconcat = self.wo.backward(dy);
        let mut dq = Tensor::zeros(&[l, d]);
        let mut dkt = Tensor::zeros(&[l, d]);
        let mut dv = Tensor::zeros(&[l, d]);
        assert_eq!(probs.len(), self.heads, "cached probs vs head count");
        for (h, p) in probs.iter().enumerate() {
            let dctx = Self::head_slice(&dconcat, h, dk);
            let vh = Self::head_slice(&v, h, dk);
            let qh = Self::head_slice(&q, h, dk);
            let kh = Self::head_slice(&k, h, dk);
            // dP = dctx·Vᵀ ; dV = Pᵀ·dctx
            let vt = vh.transpose().expect("matrix");
            let dp = gemm::matmul(&dctx, &vt).expect("shapes agree");
            let pt = p.transpose().expect("matrix");
            let dvh = gemm::matmul(&pt, &dctx).expect("shapes agree");
            // Softmax backward: dS = P ∘ (dP − rowsum(dP ∘ P))
            let mut ds = dp.clone();
            for i in 0..l {
                let pr = &p.as_slice()[i * l..(i + 1) * l];
                let dpr = &dp.as_slice()[i * l..(i + 1) * l];
                let dot: f32 = pr.iter().zip(dpr).map(|(&a, &b)| a * b).sum();
                let row = &mut ds.as_mut_slice()[i * l..(i + 1) * l];
                for (j, sv) in row.iter_mut().enumerate() {
                    *sv = pr[j] * (dpr[j] - dot);
                }
            }
            let scale = 1.0 / (dk as f32).sqrt();
            let ds = ds.scale(scale);
            // dQ = dS·K ; dK = dSᵀ·Q
            let dqh = gemm::matmul(&ds, &kh).expect("shapes agree");
            let dst = ds.transpose().expect("matrix");
            let dkh = gemm::matmul(&dst, &qh).expect("shapes agree");
            Self::head_write(&mut dq, h, dk, &dqh);
            Self::head_write(&mut dkt, h, dk, &dkh);
            Self::head_write(&mut dv, h, dk, &dvh);
        }
        let dx_q = self.wq.backward(&dq);
        let dx_k = self.wk.backward(&dkt);
        let dx_v = self.wv.backward(&dv);
        dx_q.add(&dx_k)
            .expect("same shape")
            .add(&dx_v)
            .expect("same shape")
    }

    /// Adam step on all projections.
    pub(crate) fn step(&mut self, lr: f32, t: usize) {
        self.wq.step(lr, t);
        self.wk.step(lr, t);
        self.wv.step(lr, t);
        self.wo.step(lr, t);
    }
}

/// ReLU with cached mask.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cache: Option<Tensor>,
}

impl Relu {
    /// New activation.
    pub fn new() -> Self {
        Relu { cache: None }
    }

    /// Forward (caches input).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache = Some(x.clone());
        x.map(|v| v.max(0.0))
    }

    /// Backward.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache.take().expect("forward before backward");
        dy.zip(&x, |d, xv| if xv > 0.0 { d } else { 0.0 })
            .expect("same shape")
    }
}

/// GELU with cached input.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache: Option<Tensor>,
}

impl Gelu {
    /// New activation.
    pub fn new() -> Self {
        Gelu { cache: None }
    }

    /// Forward (caches input).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache = Some(x.clone());
        x.map(|v| NonlinearFn::Gelu.eval(v))
    }

    /// Backward using `gelu'(x) = Φ(x) + x·φ(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `forward` was not called first.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache.take().expect("forward before backward");
        dy.zip(&x, |d, xv| {
            let phi_cdf = 0.5 * (1.0 + NonlinearFn::Erf.eval(xv / std::f32::consts::SQRT_2));
            let phi_pdf = (-0.5 * xv * xv).exp() / (2.0 * std::f32::consts::PI).sqrt();
            d * (phi_cdf + xv * phi_pdf)
        })
        .expect("same shape")
    }
}

/// Softmax cross-entropy from logits: returns `(mean loss, dlogits)`.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (m, n) = logits.shape().as_matrix().expect("matrix");
    let probs = onesa_cpwl::ops::softmax_rows_exact(logits).expect("matrix");
    assert_eq!(labels.len(), m, "one label per logit row");
    let mut loss = 0.0f32;
    let mut dl = probs.clone();
    let dst = dl.as_mut_slice();
    for (i, &label) in labels.iter().enumerate() {
        let p = probs.as_slice()[i * n + label].max(1e-12);
        loss -= p.ln();
        dst[i * n + label] -= 1.0;
    }
    (loss / m as f32, dl.scale(1.0 / m as f32))
}

/// Mean-squared-error loss: returns `(loss, dpred)`.
pub(crate) fn mse(pred: &Tensor, target: &[f32]) -> (f32, Tensor) {
    let n = pred.len() as f32;
    let mut loss = 0.0f32;
    let mut d = pred.clone();
    for (i, v) in d.as_mut_slice().iter_mut().enumerate() {
        let e = *v - target[i];
        loss += e * e;
        *v = 2.0 * e / n;
    }
    (loss / n, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = Pcg32::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 2, 2);
        l.w.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        l.b.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
        assert_eq!(l.infer(&x).as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
        let y = r.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 2.0]);
        let dx = r.backward(&Tensor::from_vec(vec![5.0, 5.0], &[2]).unwrap());
        assert_eq!(dx.as_slice(), &[0.0, 5.0]);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let logits = Tensor::from_vec(vec![2.0, 1.0, 0.5, 0.1, 3.0, -1.0], &[2, 3]).unwrap();
        let (loss, d) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss > 0.0);
        for i in 0..2 {
            let s: f32 = d.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "row {i} grad sum {s}");
        }
    }

    #[test]
    fn mse_at_target_is_zero() {
        let pred = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let (loss, d) = mse(&pred, &[1.0, 2.0]);
        assert_eq!(loss, 0.0);
        assert!(d.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn layernorm_forward_normalizes() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let y = ln.forward(&x);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn batchnorm_train_normalizes_channel() {
        let mut bn = BatchNorm2d::new(1);
        let xs = vec![
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap(),
            Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[1, 2, 2]).unwrap(),
        ];
        let ys = bn.forward_train(&xs);
        let all: Vec<f32> = ys
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect();
        let mean: f32 = all.iter().sum::<f32>() / all.len() as f32;
        let var: f32 = all.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / all.len() as f32;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn embedding_lookup_and_backward() {
        let mut rng = Pcg32::seed_from_u64(2);
        let mut e = Embedding::new(&mut rng, 10, 8, 4);
        let y = e.forward(&[3, 3, 7]);
        assert_eq!(y.dims(), &[3, 4]);
        let dy = Tensor::ones(&[3, 4]);
        e.backward(&dy);
        // Token 3 appears twice → grad 2, token 7 once → grad 1.
        assert_eq!(e.table.grad.at(&[3, 0]).unwrap(), 2.0);
        assert_eq!(e.table.grad.at(&[7, 0]).unwrap(), 1.0);
        assert_eq!(e.table.grad.at(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn attention_output_shape_and_determinism() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = Pcg32::seed_from_u64(4).randn(&[5, 8], 1.0);
        let sm = |s: &Tensor| onesa_cpwl::ops::softmax_rows_exact(s).unwrap();
        let y1 = attn.forward_with(&x, &sm, false);
        let y2 = attn.forward_with(&x, &sm, false);
        assert_eq!(y1, y2);
        assert_eq!(y1.dims(), &[5, 8]);
    }

    #[test]
    fn adam_reduces_simple_quadratic() {
        // Minimize ||w||² with Adam through the Param API.
        let mut p = Param::new(Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap());
        for t in 1..=500 {
            p.grad = p.value.scale(2.0);
            p.adam_step(0.05, t);
        }
        assert!(p.value.as_slice().iter().all(|v| v.abs() < 0.05));
    }
}
