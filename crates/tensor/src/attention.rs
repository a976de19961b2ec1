//! Multi-head scaled dot-product attention as one kernel.
//!
//! [`attention`] computes, for every head `h` of a `[q, k, v]` triple,
//! `softmax(q_h · k_hᵀ · scale) · v_h` and merges the heads side by side —
//! the whole of a transformer layer's attention between its projections.
//! Each head's columns of `q`, `k` and `v` are read where they lie, and
//! each head's context lands straight in its columns of the merged output.
//!
//! # The bits of the per-head composition
//!
//! The reference is the composition a layer spells out head by head:
//! slice the head's columns, multiply the query by the transposed keys
//! ([`gemm::matmul`]), multiply by `scale`, softmax the rows, multiply
//! by the values ([`gemm::matmul`] again), and merge with a `+=` into a
//! zeroed output. The kernel takes, per output element, exactly those
//! steps:
//!
//! 1. **Scores** — one ascending-`k` chain of fused multiply-adds from
//!    `+0.0` per element, skipping the steps where the query element is an
//!    exact zero: the reference's own chain. A product of four or more
//!    query rows runs on [`parallel::matmul`], whose zero steps are either
//!    skipped or proven to be the identity (see the [`parallel`] module
//!    docs); fewer rows run the reference loop in place.
//! 2. **Scale** — `s · scale`, element by element.
//! 3. **Softmax** — the caller's row routine, over whole rows; under the
//!    causal mask, over each row's visible prefix alone, the rest exact
//!    `+0.0`.
//! 4. **Context** — the same chain as the scores over the probabilities
//!    and the head's value columns.
//! 5. **Merge** — `+=` into a zeroed output. Not a store: `+0.0 + -0.0`
//!    is `+0.0`, so the `+=` turns a `-0.0` context into `+0.0` where a
//!    copy would keep its sign.
//!
//! [`gemm::matmul`]: crate::gemm::matmul

use crate::parallel::{self, Parallelism, MR};
use crate::{Result, Tensor, TensorError};

/// `softmax(q_h · k_hᵀ · scale) · v_h` for each of `heads` column blocks
/// `h` of `q = [m, d]`, `k = [n, d]` and `v = [n, d]`, merged into one `[m,
/// d]` result, bit-identical to the per-head composition (see the
/// [module docs](self)).
///
/// `softmax(rows, width)` softmaxes, in place, every `width`-element row
/// of `rows`. Without `causal` it is called once per head over all `m`
/// score rows; with it, once per row over the row's visible prefix: row
/// `i` sees columns `0 ..= (n − m) + i` — its own position and every
/// earlier one, the first `n − m` columns being context ahead of the
/// first query row — and holds exact `+0.0` beyond.
///
/// A product with fewer than four query rows — a decode step's one token —
/// allocates nothing per head: it reads every head in place and reuses
/// one score and one context buffer. Larger ones copy each head's columns
/// out for [`parallel::matmul`]'s register-tiled sweep.
///
/// # Errors
///
/// [`TensorError::NotAMatrix`] or [`TensorError::ShapeMismatch`] unless
/// `k` and `v` are `[n, d]` beside a `[m, d]` query (and, when `causal`,
/// `n ≥ m`); [`TensorError::InvalidArgument`] unless `heads` divides `d`.
pub fn attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    scale: f32,
    causal: bool,
    softmax: impl Fn(&mut [f32], usize),
) -> Result<Tensor> {
    let (m, d) = q.shape().as_matrix()?;
    let (n, kd) = k.shape().as_matrix()?;
    if kd != d || v.dims() != k.dims() || (causal && n < m) {
        return Err(TensorError::ShapeMismatch {
            lhs: q.dims().to_vec(),
            rhs: k.dims().to_vec(),
            op: "attention",
        });
    }
    if heads == 0 || d % heads != 0 {
        return Err(TensorError::InvalidArgument(
            "attention heads must divide the model width",
        ));
    }
    let dk = d / heads;
    let mut out = Tensor::zeros(&[m, d]);
    if n == 0 {
        // No keys: every context is the empty sum, `+0.0`.
        return Ok(out);
    }
    let mut scores = Vec::new();
    let mut ctx = Vec::new();
    for c0 in (0..d).step_by(dk.max(1)) {
        let head = Head {
            q: q.as_slice(),
            k: k.as_slice(),
            v: v.as_slice(),
            n,
            d,
            c0,
            dk,
        };
        if m < MR {
            scores.resize(m * n, 0.0);
            ctx.resize(m * dk, 0.0);
            head.scores_in_place(&mut scores);
            normalise(&mut scores, m, n, scale, causal, &softmax);
            head.context_in_place(&scores, &mut ctx);
        } else {
            let qh = head.columns(head.q, m);
            let kt = head.columns(head.k, n).transpose()?;
            let mut s = parallel::matmul(&qh, &kt, Parallelism::Sequential)?.into_vec();
            normalise(&mut s, m, n, scale, causal, &softmax);
            let p = Tensor::from_vec(s, &[m, n])?;
            let v = head.columns(head.v, n);
            ctx = parallel::matmul(&p, &v, Parallelism::Sequential)?.into_vec();
        }
        head.merge(&ctx, out.as_mut_slice());
    }
    Ok(out)
}

/// One head's view of the operands: columns `c0 .. c0 + dk` of the `d`-wide
/// rows of `q`, `k` and `v` (`n` rows each of `k` and `v`).
struct Head<'a> {
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    n: usize,
    d: usize,
    c0: usize,
    dk: usize,
}

impl Head<'_> {
    /// The head's columns of the `rows`-row matrix `x`, as a `[rows, dk]`
    /// tensor.
    fn columns(&self, x: &[f32], rows: usize) -> Tensor {
        let mut vals = Vec::with_capacity(rows * self.dk);
        for row in x.chunks_exact(self.d) {
            vals.extend_from_slice(&row[self.c0..self.c0 + self.dk]);
        }
        Tensor::from_vec(vals, &[rows, self.dk]).expect("rows of dk columns")
    }

    /// `scores = q_h · k_hᵀ` as [`gemm::matmul`](crate::gemm::matmul)
    /// computes it, reading both operands in place: per query row, per
    /// non-zero query element in ascending `k`, one fused multiply-add into
    /// every key's accumulator.
    fn scores_in_place(&self, scores: &mut [f32]) {
        let cols = self.c0..self.c0 + self.dk;
        for (row, qrow) in scores
            .chunks_exact_mut(self.n)
            .zip(self.q.chunks_exact(self.d))
        {
            row.fill(0.0);
            for (p, &a) in qrow[cols.clone()].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (s, krow) in row.iter_mut().zip(self.k.chunks_exact(self.d)) {
                    *s = a.mul_add(krow[self.c0 + p], *s);
                }
            }
        }
    }

    /// `ctx = probs · v_h` as [`gemm::matmul`](crate::gemm::matmul)
    /// computes it, `v_h` read in place: per row, per non-zero probability
    /// in ascending key order, one fused multiply-add of that key's value
    /// columns into the row's `dk` accumulators.
    fn context_in_place(&self, probs: &[f32], ctx: &mut [f32]) {
        let cols = self.c0..self.c0 + self.dk;
        for (acc, prow) in ctx
            .chunks_exact_mut(self.dk)
            .zip(probs.chunks_exact(self.n))
        {
            acc.fill(0.0);
            for (&p, vrow) in prow.iter().zip(self.v.chunks_exact(self.d)) {
                if p == 0.0 {
                    continue;
                }
                for (a, &x) in acc.iter_mut().zip(&vrow[cols.clone()]) {
                    *a = p.mul_add(x, *a);
                }
            }
        }
    }

    /// Adds the `[m, dk]` context into the head's columns of the zeroed
    /// merged output — a `+=`, not a copy (see "Merge" in the
    /// [module docs](self)).
    fn merge(&self, ctx: &[f32], out: &mut [f32]) {
        let rows = out.chunks_exact_mut(self.d).zip(ctx.chunks_exact(self.dk));
        for (orow, crow) in rows {
            for (o, c) in orow[self.c0..self.c0 + self.dk].iter_mut().zip(crow) {
                *o += c;
            }
        }
    }
}

/// Steps 2 and 3 on an `[m, n]` score block: the scale, then the rows'
/// softmax — causal rows over their visible prefix, exact `+0.0` beyond.
fn normalise(
    scores: &mut [f32],
    m: usize,
    n: usize,
    scale: f32,
    causal: bool,
    softmax: &impl Fn(&mut [f32], usize),
) {
    for s in scores.iter_mut() {
        *s *= scale;
    }
    if !causal {
        return softmax(scores, n);
    }
    for (i, row) in scores.chunks_exact_mut(n).enumerate() {
        let (visible, masked) = row.split_at_mut(n - m + i + 1);
        softmax(visible, visible.len());
        masked.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use crate::rng::Pcg32;

    /// A plain softmax: max-shifted `exp`, divided by the row sum.
    fn softmax_rows(rows: &mut [f32], width: usize) {
        for row in rows.chunks_exact_mut(width) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }

    /// The per-head composition the kernel stands for, step by step.
    fn reference(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize, causal: bool) -> Tensor {
        let (m, d) = q.shape().as_matrix().unwrap();
        let n = k.dims()[0];
        let dk = d / heads;
        let cols = |x: &Tensor, h: usize| {
            let rows = x.dims()[0];
            let vals = x
                .as_slice()
                .chunks(d)
                .flat_map(|r| &r[h * dk..(h + 1) * dk]);
            Tensor::from_vec(vals.copied().collect(), &[rows, dk]).unwrap()
        };
        let mut out = Tensor::zeros(&[m, d]);
        let dst = out.as_mut_slice();
        for h in 0..heads {
            let kt = cols(k, h).transpose().unwrap();
            let mut s = gemm::matmul(&cols(q, h), &kt).unwrap().scale(0.5);
            for (i, row) in s.as_mut_slice().chunks_mut(n).enumerate() {
                let visible = if causal { n - m + i + 1 } else { n };
                softmax_rows(&mut row[..visible], visible);
                row[visible..].fill(0.0);
            }
            let ctx = gemm::matmul(&s, &cols(v, h)).unwrap();
            for i in 0..m {
                for j in 0..dk {
                    dst[i * d + h * dk + j] += ctx.as_slice()[i * dk + j];
                }
            }
        }
        out
    }

    #[test]
    fn every_row_count_matches_the_per_head_composition() {
        let mut rng = Pcg32::seed_from_u64(40);
        // Below and above the in-place cut-off, with context ahead.
        for (m, n, heads, d) in [
            (1, 1, 1, 4),
            (1, 9, 2, 8),
            (3, 5, 4, 8),
            (6, 6, 2, 12),
            (9, 17, 3, 6),
        ] {
            let q = rng.randn(&[m, d], 1.0);
            let k = rng.randn(&[n, d], 1.0);
            let mut v = rng.randn(&[n, d], 1.0);
            v.as_mut_slice()[0] = -0.0;
            for causal in [false, true] {
                let got = attention(&q, &k, &v, heads, 0.5, causal, softmax_rows).unwrap();
                let want = reference(&q, &k, &v, heads, causal);
                let bits =
                    |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "m {m} n {n} heads {heads} causal {causal}"
                );
            }
        }
    }

    #[test]
    fn ill_shaped_operands_fail_typed() {
        let x = Tensor::zeros(&[2, 4]);
        let short = Tensor::zeros(&[1, 4]);
        let narrow = Tensor::zeros(&[2, 3]);
        let none = |_: &mut [f32], _: usize| {};
        assert!(attention(&x, &narrow, &narrow, 1, 1.0, false, none).is_err());
        assert!(attention(&x, &x, &short, 1, 1.0, false, none).is_err());
        assert!(attention(&x, &short, &short, 1, 1.0, true, none).is_err());
        assert!(attention(&x, &x, &x, 3, 1.0, false, none).is_err());
        assert!(attention(&x, &x, &x, 0, 1.0, false, none).is_err());
        assert!(attention(&x, &short, &short, 2, 1.0, false, none).is_ok());
        let keyless = Tensor::zeros(&[0, 4]);
        let out = attention(&x, &keyless, &keyless, 2, 1.0, false, none).unwrap();
        assert_eq!(out, Tensor::zeros(&[2, 4]));
    }
}
