//! Emits the `BENCH_cpwl_sweep.json` perf baseline: the paper's own
//! kernel — IPF + MHP — as the host serves it, beside the step-by-step
//! form it replaced.
//!
//! ```sh
//! cargo run --release -q -p onesa-bench --bin cpwl_sweep > BENCH_cpwl_sweep.json
//! ```
//!
//! Four sections, every row a pair timed sample by sample beside each
//! other (`onesa_bench::time_alternating`):
//!
//! * `sweep` — the fused `PwlTable::eval_tensor` against the materialised
//!   `ipf` + `gemm::mhp` (three gathered matrices, five memory passes) for
//!   ReLU, GELU and the softmax's `exp`, from a decode-sized 64 elements
//!   to 65 536; 26 880 is the GCN's hidden layer.
//! * `quantize` — the layer-boundary round trip
//!   (`QuantTensor::round_trip`, no integer tensor), INT16 and INT8, at
//!   the same sizes, against the scheme's definition — a scalar
//!   `round()`, compare-and-saturate, `as` cast per element, then
//!   dequantize, which is what served traffic ran before the sweep — and
//!   against `quantize().dequantize()`, which shares the round trip's
//!   vectorised loop and differs from it by the integer tensor alone.
//! * `softmax` — `TableSet::softmax_rows` (one buffer, sixteen rows
//!   reduced side by side) against `TableSet::softmax_row` on one row
//!   after another, and against the six steps run one whole-matrix pass
//!   each, at 64 × 64 (BERT's attention scores) and 8 × 64.
//! * `layernorm` — `TableSet::layernorm_rows` against the same steps one
//!   row at a time, as it ran before its rows were reduced side by side,
//!   at 64 × 32, 8 × 32 and 420 × 64.
//!
//! Wall-clock numbers are machine-dependent; the ratios are what the bin
//! asserts, so CI's bench-smoke job enforces them: from 4 096 elements up
//! the fused sweep runs at least 2.5× faster than `ipf` + `mhp` and the
//! round trip at least 2.5× faster than the scalar definition; at no size
//! — 64 elements included — is either slower than what it replaced, nor
//! the round trip slower than `quantize().dequantize()`. Sixteen rows side
//! by side run a softmax at least 1.6× faster than one row at a time at
//! 64 rows and a layer norm at least 2.5× faster from 64 rows; at 8 rows
//! neither is slower, nor is the softmax slower than the six passes. Every
//! pair is checked `to_bits()`-equal before it is timed. Each floor judges
//! the median of independent ratios (`onesa_bench::Timings::ratio`), and
//! so does each `speedup` column; the `*_us` columns are best times. The
//! `*_gelem_s` columns are context, not floors.

use onesa_bench::{time_alternating, Timings};
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::{NonlinearFn, PwlTable};
use onesa_tensor::quant::{QuantTensor, QuantTensor8};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};

const SIZES: [usize; 6] = [64, 1024, 4096, 8192, 26_880, 65_536];

/// Calls per timing sample: about a quarter of a million elements.
fn calls(len: usize) -> usize {
    (262_144 / len).max(1)
}

/// The step-by-step IPF → MHP evaluation the sweep replaced.
fn materialised(table: &PwlTable, x: &Tensor) -> Tensor {
    let ipf = table.ipf(x);
    gemm::mhp(x, &ipf.k, &ipf.b).expect("same shape")
}

/// The softmax lowering one whole-matrix pass per step.
fn softmax_stepwise(tables: &TableSet, x: &Tensor) -> Tensor {
    let n = x.dims()[1];
    let maxes = gemm::row_maxes(x).expect("matrix");
    let mut shifted = x.clone();
    for (row, max) in shifted.as_mut_slice().chunks_mut(n).zip(maxes) {
        row.iter_mut().for_each(|v| *v -= max);
    }
    let expd = materialised(tables.table(NonlinearFn::Exp).expect("tabulated"), &shifted);
    let reciprocal = tables.table(NonlinearFn::Reciprocal).expect("tabulated");
    let inv: Vec<f32> = gemm::row_sums(&expd)
        .expect("matrix")
        .iter()
        .map(|&s| reciprocal.eval(s))
        .collect();
    gemm::row_scale(&expd, &inv).expect("matrix")
}

/// The softmax one row after another: each row's six steps, its two
/// reductions one serial chain each.
fn softmax_row_at_a_time(tables: &TableSet, x: &Tensor) -> Tensor {
    let mut out = x.clone();
    for row in out.as_mut_slice().chunks_mut(x.dims()[1]) {
        tables.softmax_row(row);
    }
    out
}

/// The layer norm one row after another, as `layernorm_rows` ran before
/// its rows were reduced side by side.
fn layernorm_row_at_a_time(tables: &TableSet, x: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
    let n = x.dims()[1];
    let rsqrt = tables.table(NonlinearFn::Rsqrt).expect("tabulated");
    let mut out = x.clone();
    for row in out.as_mut_slice().chunks_mut(n) {
        let mean: f32 = row.iter().sum::<f32>() / n as f32;
        for v in row.iter_mut() {
            *v -= mean;
        }
        let var: f32 = row.iter().map(|&v| v * v).sum::<f32>() / n as f32;
        let inv_std = rsqrt.eval(var + LN_EPS);
        for (j, v) in row.iter_mut().enumerate() {
            *v = *v * inv_std * gamma[j] + beta[j];
        }
    }
    out
}

/// The layer norm's `ε`, as BERT's blocks set it.
const LN_EPS: f32 = 1e-5;

/// The speed-up sixteen rows side by side are held to over one row at a
/// time, at `rows` rows: `at_64` from 64 rows up, parity below.
fn rows_floor(rows: usize, at_64: f64) -> f64 {
    if rows >= 64 {
        at_64
    } else {
        1.0
    }
}

/// Symmetric quantization as defined, one element at a time, for an
/// integer type given by its range: the loop behind `quantize()` before it
/// was vectorised, followed by `dequantize()`.
fn two_step_scalar(x: &Tensor, min: f32, max: f32) -> Tensor {
    let max_abs = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / max };
    let ints: Vec<i32> = x
        .iter()
        .map(|&v| {
            let q = (v / scale).round();
            if q >= max {
                max as i32
            } else if q <= min {
                min as i32
            } else {
                q as i32
            }
        })
        .collect();
    let back = ints.iter().map(|&q| q as f32 * scale).collect();
    Tensor::from_vec(back, x.dims()).expect("shape preserved")
}

fn assert_same_bits(a: &Tensor, b: &Tensor, what: &str) {
    let same = a
        .iter()
        .zip(b.iter())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(a.dims() == b.dims() && same, "{what}: the two forms differ");
}

/// The speed-up a pointwise pair of `len` elements is held to.
fn floor(len: usize) -> f64 {
    if len >= 4096 {
        2.5
    } else {
        1.0
    }
}

/// One JSON row of sides `slow` and `fast` of `times`, once the speed-up
/// of `fast` over `slow` clears `floor`.
fn row<const N: usize>(
    head: &str,
    len: usize,
    times: &Timings<N>,
    [slow, fast]: [usize; 2],
    names: [&str; 2],
    floor: f64,
) -> String {
    let ratio = times.ratio(slow, fast);
    let (slow, fast) = (times.best()[slow], times.best()[fast]);
    assert!(
        ratio >= floor,
        "{head} at {len} elements: {} is {ratio:.2}x faster than {}, floor {floor}",
        names[1],
        names[0]
    );
    format!(
        "    {{ {head}, \"elements\": {len}, \"{}_us\": {:.3}, \"{}_us\": {:.3}, \"speedup\": {:.2}, \"{}_gelem_s\": {:.2} }}",
        names[0],
        slow * 1e6,
        names[1],
        fast * 1e6,
        ratio,
        names[1],
        len as f64 / fast / 1e9
    )
}

fn main() {
    let mut rng = Pcg32::seed_from_u64(2024);
    let tables = TableSet::for_granularity(0.25).expect("valid granularity");
    println!("{{");
    println!("  \"bench\": \"cpwl_sweep\",");
    println!("  \"kernel\": \"onesa_cpwl::PwlTable::eval_tensor\",");
    println!("  \"granularity\": {},", tables.granularity());

    println!("  \"sweep\": [");
    let mut rows = Vec::new();
    for func in [NonlinearFn::Relu, NonlinearFn::Gelu, NonlinearFn::Exp] {
        let table = tables.table(func).expect("tabulated");
        for len in SIZES {
            // Activations as traffic has them: a third outside GELU's
            // range; softmax's `exp` sees max-subtracted logits.
            let x = match func {
                NonlinearFn::Exp => rng.randn(&[len], 4.0).map(|v| -v.abs()),
                _ => rng.randn(&[len], 4.0),
            };
            let what = format!("\"func\": \"{func}\"");
            assert_same_bits(
                &materialised(table, &x),
                &table.eval_tensor(&x).unwrap(),
                &what,
            );
            let times = time_alternating(
                calls(len),
                [&mut || materialised(table, &x), &mut || {
                    table.eval_tensor(&x).expect("sweep")
                }],
            );
            rows.push(row(
                &what,
                len,
                &times,
                [0, 1],
                ["materialised", "fused"],
                floor(len),
            ));
        }
    }
    println!("{}", rows.join(",\n"));
    println!("  ],");

    println!("  \"quantize\": [");
    let mut rows = Vec::new();
    for len in SIZES {
        let x = rng.randn(&[len], 1.5);
        type RoundTrip = fn(&Tensor) -> Tensor;
        let precisions: [(&str, f32, f32, RoundTrip, RoundTrip); 2] = [
            (
                "int16",
                i16::MIN as f32,
                i16::MAX as f32,
                QuantTensor::round_trip,
                |x| QuantTensor::quantize(x).dequantize(),
            ),
            (
                "int8",
                i8::MIN as f32,
                i8::MAX as f32,
                QuantTensor8::round_trip,
                |x| QuantTensor8::quantize(x).dequantize(),
            ),
        ];
        for (name, min, max, round_trip, two_step) in precisions {
            assert_same_bits(&two_step_scalar(&x, min, max), &round_trip(&x), name);
            assert_same_bits(&two_step(&x), &round_trip(&x), name);
            let times = time_alternating(
                calls(len),
                [
                    &mut || two_step_scalar(&x, min, max),
                    &mut || two_step(&x),
                    &mut || round_trip(&x),
                ],
            );
            let over_two_step = times.ratio(2, 1);
            assert!(
                over_two_step <= 1.10,
                "{name} at {len} elements: the round trip takes {over_two_step:.2}x the time of quantize + dequantize, limit 1.10"
            );
            let head = format!(
                "\"precision\": \"{name}\", \"two_step_us\": {:.3}",
                times.best()[1] * 1e6
            );
            let names = ["scalar", "round_trip"];
            rows.push(row(&head, len, &times, [0, 2], names, floor(len)));
        }
    }
    println!("{}", rows.join(",\n"));
    println!("  ],");

    println!("  \"softmax\": [");
    let mut rows = Vec::new();
    for m in [64, 8] {
        let x = rng.randn(&[m, 64], 2.0);
        let one_buffer = || tables.softmax_rows(&x).expect("matrix");
        assert_same_bits(&softmax_stepwise(&tables, &x), &one_buffer(), "softmax");
        let by_row = softmax_row_at_a_time(&tables, &x);
        assert_same_bits(&by_row, &one_buffer(), "softmax");
        let times = time_alternating(
            calls(x.len()),
            [
                &mut || softmax_stepwise(&tables, &x),
                &mut || softmax_row_at_a_time(&tables, &x),
                &mut || one_buffer(),
            ],
        );
        assert!(
            times.ratio(2, 0) <= 1.0,
            "softmax at {m} rows: one buffer is slower than six passes"
        );
        let head = format!(
            "\"rows\": {m}, \"cols\": 64, \"stepwise_us\": {:.3}",
            times.best()[0] * 1e6
        );
        let (names, floor) = (["row_at_a_time", "one_buffer"], rows_floor(m, 1.6));
        rows.push(row(&head, x.len(), &times, [1, 2], names, floor));
    }
    println!("{}", rows.join(",\n"));
    println!("  ],");

    println!("  \"layernorm\": [");
    let mut rows = Vec::new();
    for (m, n) in [(64, 32), (8, 32), (420, 64)] {
        let x = rng.randn(&[m, n], 1.5);
        let gamma = rng.randn(&[n], 1.0).into_vec();
        let beta = rng.randn(&[n], 0.5).into_vec();
        let blocked = || {
            tables
                .layernorm_rows(&x, &gamma, &beta, LN_EPS)
                .expect("shapes agree")
        };
        let by_row = || layernorm_row_at_a_time(&tables, &x, &gamma, &beta);
        assert_same_bits(&by_row(), &blocked(), "layernorm");
        let times = time_alternating(calls(x.len()), [&mut || by_row(), &mut || blocked()]);
        let head = format!("\"rows\": {m}, \"cols\": {n}");
        let names = ["row_at_a_time", "blocked"];
        rows.push(row(
            &head,
            x.len(),
            &times,
            [0, 1],
            names,
            rows_floor(m, 2.5),
        ));
    }
    println!("{}", rows.join(",\n"));
    println!("  ]");
    println!("}}");
}
