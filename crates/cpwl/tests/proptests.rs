//! Property-based tests for the CPWL invariants the paper relies on.

use onesa_cpwl::ops::TableSet;
use onesa_cpwl::{NonlinearFn, PwlTable, SegmentIndexer};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};
use proptest::prelude::*;

/// The seven functions a [`TableSet`] tabulates.
const SET_FUNCS: [NonlinearFn; 7] = [
    NonlinearFn::Gelu,
    NonlinearFn::Exp,
    NonlinearFn::Reciprocal,
    NonlinearFn::Rsqrt,
    NonlinearFn::Tanh,
    NonlinearFn::Sigmoid,
    NonlinearFn::Relu,
];

/// `len` inputs for `table`: noise reaching well past both ends of its
/// range, with every value a sweep could mishandle planted in it — `NaN`,
/// both infinities, `-0.0`, magnitudes whose segment quotient overflows
/// any integer, subnormals, and the range's own endpoints. The planting
/// position moves with `len`, so across lengths every special visits every
/// vector lane and every scalar tail.
fn hostile_inputs(table: &PwlTable, len: usize, rng: &mut Pcg32) -> Tensor {
    let (lo, hi) = table.range();
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1e30,
        -1e30,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        lo,
        hi,
    ];
    let (mid, span) = ((lo + hi) / 2.0, hi - lo);
    let mut x = rng.randn(&[len], span).map(|v| v + mid);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        if (i + len) % 3 == 0 {
            *v = specials[(i / 3 + len) % specials.len()];
        }
    }
    x
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// The contract every served nonlinear rests on: the fused sweep — out of
/// place and in place — equals the materialised `ipf` → `gemm::mhp` pair
/// bit for bit, for every tabulated function, both indexers and every
/// vector-width tail.
#[test]
fn sweep_equals_ipf_plus_mhp_bit_for_bit() {
    let mut rng = Pcg32::seed_from_u64(0x5EED);
    let lengths: Vec<usize> = (0..=200).chain([4095, 4096, 4097]).collect();
    let mut indexers = [0usize; 2];
    for g in [0.0625f32, 0.1, 0.25, 0.75, 1.0] {
        let tables = TableSet::for_granularity(g).unwrap();
        for func in SET_FUNCS {
            let table = tables.table(func).unwrap();
            indexers[usize::from(matches!(table.indexer(), SegmentIndexer::Shift { .. }))] += 1;
            for &len in &lengths {
                let x = hostile_inputs(table, len, &mut rng);
                let ipf = table.ipf(&x);
                let want = gemm::mhp(&x, &ipf.k, &ipf.b).unwrap();
                let what = format!("{func} g={g} len={len}");

                let got = table.eval_tensor(&x).unwrap();
                assert_eq!(got.dims(), x.dims());
                assert_same_bits(got.as_slice(), want.as_slice(), &what);
                let mut in_place = x.clone();
                table.eval_in_place(in_place.as_mut_slice());
                assert_same_bits(in_place.as_slice(), want.as_slice(), &what);
                // The segment matrix names the segment the sweep fetched.
                for (&v, &s) in x.iter().zip(&ipf.segments) {
                    assert_eq!(usize::from(s), table.segment_index(v), "{what}: {v}");
                }
            }
        }
    }
    assert!(indexers[0] > 0 && indexers[1] > 0, "both indexers covered");
}

/// The affine-folded sweep equals the three passes it fuses: the affine
/// map, IPF on its output, the fold of `(kc, bc)` into the gathered pair,
/// one MHP over the original input.
#[test]
fn affine_sweep_equals_its_three_passes() {
    let mut rng = Pcg32::seed_from_u64(0xAFF1);
    let tables = TableSet::for_granularity(0.25).unwrap();
    for func in SET_FUNCS {
        let table = tables.table(func).unwrap();
        for len in [0usize, 1, 15, 16, 17, 63, 200] {
            for (kc, bc) in [(1.0f32, 0.0f32), (-0.7, 0.3), (2.5, -4.0), (0.0, 1.0)] {
                let x = hostile_inputs(table, len, &mut rng);
                let t = x.map(|v| v * kc + bc);
                let ipf = table.ipf(&t);
                let kk = ipf.k.map(|k| k * kc);
                let fold = ipf.b.iter().zip(ipf.k.iter()).map(|(&b, &k)| b + k * bc);
                let bb = Tensor::from_vec(fold.collect(), &[len]).unwrap();
                let want = gemm::mhp(&x, &kk, &bb).unwrap();
                let mut got = vec![0.0f32; len];
                table.eval_affine_slice(kc, bc, x.as_slice(), &mut got);
                let what = format!("{func} len={len} k={kc} b={bc}");
                assert_same_bits(&got, want.as_slice(), &what);
            }
        }
    }
}

/// The softmax lowering as it was written before it ran in one buffer:
/// one whole-matrix pass per step, the `exp` step through the
/// materialised IPF + MHP.
fn softmax_rows_stepwise(tables: &TableSet, x: &Tensor) -> Tensor {
    let (_, n) = x.shape().as_matrix().unwrap();
    let maxes = gemm::row_maxes(x).unwrap();
    let mut shifted = x.clone();
    for (i, &mx) in maxes.iter().enumerate() {
        for v in &mut shifted.as_mut_slice()[i * n..(i + 1) * n] {
            *v -= mx;
        }
    }
    let ipf = tables.table(NonlinearFn::Exp).unwrap().ipf(&shifted);
    let expd = gemm::mhp(&shifted, &ipf.k, &ipf.b).unwrap();
    let reciprocal = tables.table(NonlinearFn::Reciprocal).unwrap();
    let sums = gemm::row_sums(&expd).unwrap();
    let inv: Vec<f32> = sums.iter().map(|&s| reciprocal.eval(s)).collect();
    gemm::row_scale(&expd, &inv).unwrap()
}

/// Overwrites `row` with hostile row number `kind % 4`: one holding `NaN`,
/// one holding `+inf` and `-inf`, one whose maximum is `-0.0` (ahead of a
/// `+0.0`), and one of `-inf` alone.
fn plant_hostile_row(row: &mut [f32], kind: usize) {
    let n = row.len();
    match kind % 4 {
        0 => row[n / 2] = f32::NAN,
        1 => {
            row[0] = f32::INFINITY;
            row[n - 1] = f32::NEG_INFINITY;
        }
        2 => {
            for v in row.iter_mut() {
                *v = -v.abs() - 1.0;
            }
            row[n / 3] = -0.0;
            row[n - 1] = 0.0;
        }
        _ => row.fill(f32::NEG_INFINITY),
    }
}

/// One buffer or six passes, `softmax_rows` yields the same bits — on
/// noise, on rows one wide, on rows whose maximum is `-0.0` (the shift
/// then adds `+0.0`, flipping the sign of a `-0.0` entry), on rows holding
/// `NaN` and infinities — and its row helper is the same routine. Matrices
/// of 15 to 64 rows fill and straddle the sixteen-row blocks the rows are
/// reduced in, with hostile rows in lanes 0, 7 and 15 of each block.
#[test]
fn softmax_rows_equals_the_stepwise_lowering() {
    let mut rng = Pcg32::seed_from_u64(0x50F7);
    for g in [0.0625f32, 0.25, 0.75] {
        let tables = TableSet::for_granularity(g).unwrap();
        let mut cases = vec![
            Tensor::from_vec(vec![-0.0, -1.5, -0.0, -3.0], &[1, 4]).unwrap(),
            Tensor::from_vec(vec![-0.0, -2.0, 0.0, -2.0], &[2, 2]).unwrap(),
            Tensor::from_vec(vec![1.0, f32::NAN, -2.0, f32::INFINITY, 0.5, 0.25], &[2, 3]).unwrap(),
            Tensor::from_vec(vec![f32::NEG_INFINITY; 3], &[1, 3]).unwrap(),
            Tensor::zeros(&[3, 0]),
        ];
        for (m, n) in [(5, 1), (1, 1), (3, 17), (7, 64), (2, 130)] {
            cases.push(rng.randn(&[m, n], 3.0));
        }
        for (m, n) in [(15, 9), (16, 64), (17, 3), (33, 17), (64, 64), (16, 1)] {
            let mut x = rng.randn(&[m, n], 3.0);
            for (i, row) in x.as_mut_slice().chunks_mut(n).enumerate() {
                if [0, 7, 15].contains(&(i % 16)) {
                    plant_hostile_row(row, i / 7 + m);
                }
            }
            cases.push(x);
        }
        for x in &cases {
            let want = softmax_rows_stepwise(&tables, x);
            let got = tables.softmax_rows(x).unwrap();
            let what = format!("g={g} dims={:?}", x.dims());
            assert_eq!(got.dims(), x.dims());
            assert_same_bits(got.as_slice(), want.as_slice(), &what);
            let n = x.dims()[1];
            let mut by_row = x.clone();
            for row in by_row.as_mut_slice().chunks_mut(n.max(1)) {
                tables.softmax_row(row);
            }
            assert_same_bits(by_row.as_slice(), want.as_slice(), &what);
        }
    }
}

/// The layer-norm lowering one row at a time, each row's two sums a
/// serial `iter().sum()` — `layernorm_rows` as it was written before its
/// rows were reduced side by side.
fn layernorm_rows_row_at_a_time(
    tables: &TableSet,
    x: &Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Tensor {
    let (m, n) = x.shape().as_matrix().unwrap();
    let rsqrt = tables.table(NonlinearFn::Rsqrt).unwrap();
    let mut out = x.clone();
    for i in 0..m {
        let row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        let mean: f32 = row.iter().sum::<f32>() / n as f32;
        for v in row.iter_mut() {
            *v -= mean;
        }
        let var: f32 = row.iter().map(|&v| v * v).sum::<f32>() / n as f32;
        let inv_std = rsqrt.eval(var + eps);
        for (j, v) in row.iter_mut().enumerate() {
            *v = *v * inv_std * gamma[j] + beta[j];
        }
    }
    out
}

/// Sixteen rows side by side or one at a time, `layernorm_rows` yields the
/// same bits: every row count from 1 to 40 and 64 (whole, partial and
/// straddled blocks) at widths from 1 to 70, `γ` / `β` holding `0.0` and
/// `-0.0`, inputs holding `NaN`, `±inf`, the subnormal `1e-40` and rows of
/// `-0.0` alone — whose sum is `-0.0` only from a `-0.0` start, and whose
/// sign then reaches the output through a `-0.0` in `β` — for `ε` of 0 and
/// `1e-5` at three granularities.
#[test]
fn layernorm_rows_equals_the_row_at_a_time_lowering() {
    let mut rng = Pcg32::seed_from_u64(0x1A7E);
    let tables: Vec<TableSet> = [0.0625f32, 0.25, 0.75]
        .iter()
        .map(|&g| TableSet::for_granularity(g).unwrap())
        .collect();
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
    for m in (1..=40).chain([64]) {
        for n in 1..=70 {
            let mut x = rng.randn(&[m, n], 2.0);
            for (i, row) in x.as_mut_slice().chunks_mut(n).enumerate() {
                match (i + n) % 7 {
                    0 => row.fill(-0.0),
                    1 => row[(i * 5) % n] = specials[(i + m) % specials.len()],
                    _ => {}
                }
            }
            let signed = |v: f32, rng: &mut Pcg32| match rng.below(6) {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            };
            let gamma: Vec<f32> = rng
                .randn(&[n], 1.0)
                .iter()
                .map(|&v| signed(v, &mut rng))
                .collect();
            let beta: Vec<f32> = rng
                .randn(&[n], 1.0)
                .iter()
                .map(|&v| signed(v, &mut rng))
                .collect();
            let set = &tables[(m + n) % tables.len()];
            for eps in [0.0f32, 1e-5] {
                let want = layernorm_rows_row_at_a_time(set, &x, &gamma, &beta, eps);
                let got = set.layernorm_rows(&x, &gamma, &beta, eps).unwrap();
                let what = format!("g={} {m}x{n} eps={eps}", set.granularity());
                assert_same_bits(got.as_slice(), want.as_slice(), &what);
            }
        }
    }
}

/// A table cannot hold more segments than a 16-bit segment address names:
/// `IpfOutput::segments` would wrap above 65 535, whatever cap was asked.
#[test]
fn build_refuses_more_segments_than_the_address_width() {
    use onesa_cpwl::{CpwlError, MAX_SEGMENTS};
    let too_fine = PwlTable::builder(NonlinearFn::Gelu)
        .granularity(0.0001)
        .max_segments(100_000)
        .build();
    assert_eq!(
        too_fine.unwrap_err(),
        CpwlError::TooManySegments {
            requested: 80_000,
            cap: MAX_SEGMENTS
        }
    );
    // The widest table that fits names its last segment without wrapping.
    let widest = PwlTable::builder(NonlinearFn::Gelu)
        .granularity(8.0 / MAX_SEGMENTS as f32)
        .max_segments(usize::MAX)
        .build()
        .unwrap();
    assert_eq!(widest.n_segments(), MAX_SEGMENTS);
    let x = Tensor::from_vec(vec![3.9999, 100.0, -100.0], &[3]).unwrap();
    let ipf = widest.ipf(&x);
    assert_eq!(usize::from(ipf.segments[0]), widest.segment_index(3.9999));
    assert_eq!(usize::from(ipf.segments[1]), MAX_SEGMENTS - 1);
    assert_eq!(ipf.segments[2], 0);
    let want = gemm::mhp(&x, &ipf.k, &ipf.b).unwrap();
    let got = widest.eval_tensor(&x).unwrap();
    assert_same_bits(got.as_slice(), want.as_slice(), "widest table");
}

fn pow2_granularity() -> impl Strategy<Value = f32> {
    prop_oneof![Just(0.125f32), Just(0.25), Just(0.5), Just(1.0)]
}

fn lipschitz_fn() -> impl Strategy<Value = (NonlinearFn, f32)> {
    // (function, Lipschitz constant of f' over the default range) pairs.
    prop_oneof![
        Just((NonlinearFn::Gelu, 1.2f32)),
        Just((NonlinearFn::Tanh, 0.8)),
        Just((NonlinearFn::Sigmoid, 0.11)),
        Just((NonlinearFn::Erf, 1.0)), // max |erf''| = 2√(2/πe) ≈ 0.968
    ]
}

proptest! {
    // Pinned case count: CI runs are deterministic and reproducible.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chord interpolation error of a C² function is at most M₂ g² / 8.
    #[test]
    fn chord_error_bound((func, m2) in lipschitz_fn(), g in pow2_granularity(),
                         frac in 0.0f32..1.0) {
        let table = PwlTable::builder(func).granularity(g).build().unwrap();
        let (lo, hi) = table.range();
        let x = lo + (hi - lo) * frac;
        let err = (table.eval(x) - func.eval(x)).abs();
        prop_assert!(err <= m2 * g * g / 8.0 + 1e-4,
            "{func} g={g} x={x} err={err}");
    }

    /// Capping is idempotent: evaluating far outside the range equals
    /// evaluating with the boundary chord.
    #[test]
    fn capping_uses_boundary_chord(g in pow2_granularity(), x in 10.0f32..1000.0) {
        let table = PwlTable::builder(NonlinearFn::Gelu).granularity(g).build().unwrap();
        let n = table.n_segments();
        let (k, b) = table.params(n - 1);
        prop_assert_eq!(table.eval(x), k * x + b);
        let (k0, b0) = table.params(0);
        prop_assert_eq!(table.eval(-x), k0 * (-x) + b0);
    }

    /// The fixed-point shift index equals the float floor index on the
    /// quantized value, for every power-of-two granularity.
    #[test]
    fn shift_equals_float_index(g in pow2_granularity(), x in -10.0f32..10.0) {
        let table = PwlTable::builder(NonlinearFn::Gelu).granularity(g).build().unwrap();
        let q = table.qformat();
        let xq = q.from_f32(x);
        prop_assert_eq!(table.segment_index_q(xq), table.segment_index(q.to_f32(xq)));
    }

    /// IPF + MHP over a tensor is elementwise identical to scalar eval.
    #[test]
    fn tensor_eval_matches_scalar(
        g in pow2_granularity(),
        xs in proptest::collection::vec(-20.0f32..20.0, 1..64)
    ) {
        let table = PwlTable::builder(NonlinearFn::Silu)
            .granularity(g).build().unwrap();
        let len = xs.len();
        let t = Tensor::from_vec(xs.clone(), &[len]).unwrap();
        let y = table.eval_tensor(&t).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            prop_assert_eq!(y.as_slice()[i], table.eval(x));
        }
    }

    /// Monotonicity of segment indices: larger inputs never get smaller
    /// (capped) segment indices.
    #[test]
    fn segment_index_is_monotone(g in pow2_granularity(),
                                 a in -50.0f32..50.0, b in -50.0f32..50.0) {
        let table = PwlTable::builder(NonlinearFn::Exp).granularity(g).build().unwrap();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(table.segment_index(lo) <= table.segment_index(hi));
    }

    /// Segment count × granularity spans the range.
    #[test]
    fn segments_tile_the_range(g in pow2_granularity()) {
        let table = PwlTable::builder(NonlinearFn::Sigmoid).granularity(g).build().unwrap();
        let (lo, hi) = table.range();
        let spanned = table.n_segments() as f32 * table.granularity();
        prop_assert!((spanned - (hi - lo)).abs() < g, "span {spanned} vs {}", hi - lo);
    }
}
