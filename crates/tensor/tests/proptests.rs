//! Property-based tests for the tensor substrate.

use onesa_tensor::fixed::QFormat;
use onesa_tensor::im2col::{self, Conv2dGeometry};
use onesa_tensor::parallel::{self, PackedLhs, Parallelism, Right};
use onesa_tensor::quant::{self, QuantTensor, QuantTensor8};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::sparse::{self, SparseTensor};
use onesa_tensor::{gemm, tensor_fingerprint, Tensor};
use proptest::prelude::*;

const SEQ: Parallelism = Parallelism::Sequential;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

/// One GEMM over the packed kernel's whole shape space: `m` crosses every
/// `m % 4` row tail and the direct-loop cut-off, `k` crosses the 128-deep
/// k-block twice, `n` reaches every 16 / 32 / 48-lane tail combination.
/// `A` carries planted `+0.0` / `-0.0` entries and whole zero rows (the
/// kernels' skip branch); `B` comes dense and with random all-`+0.0`
/// column blocks of width `block_cols`.
#[derive(Debug)]
struct GemmCase {
    a: Tensor,
    b: Tensor,
    pruned_b: Tensor,
    block_cols: usize,
}

fn gemm_case() -> impl Strategy<Value = GemmCase> {
    (
        1usize..=70,
        1usize..=300,
        1usize..=130,
        1usize..=24,
        0u64..1 << 32,
    )
        .prop_map(|(m, k, n, block_cols, seed)| {
            let mut rng = Pcg32::seed_from_u64(seed);
            let mut a = rng.randn(&[m, k], 1.0);
            for row in a.as_mut_slice().chunks_exact_mut(k) {
                if rng.next_u32() % 8 == 0 {
                    row.fill(0.0);
                }
                for v in row {
                    match rng.next_u32() % 16 {
                        0 | 1 => *v = 0.0,
                        2 => *v = -0.0,
                        _ => {}
                    }
                }
            }
            let b = rng.randn(&[k, n], 1.0);
            let mut pruned_b = b.clone();
            for j0 in (0..n).step_by(block_cols) {
                if rng.next_u32() % 2 == 0 {
                    let j1 = n.min(j0 + block_cols);
                    for row in pruned_b.as_mut_slice().chunks_exact_mut(n) {
                        row[j0..j1].fill(0.0);
                    }
                }
            }
            GemmCase {
                a,
                b,
                pruned_b,
                block_cols,
            }
        })
}

/// What the packed kernel leans on when it multiplies by `A`'s zeros
/// instead of branching around them: a left operand whose zero fraction
/// runs from none to all (with `-0.0` entries, whole zero rows and whole
/// zero four-row blocks), against a `B` that is clean, or holds `±inf` /
/// `NaN` (where `0·b` is not `±0`), or — like `A` itself, one case in
/// four — values small enough for a product to underflow to `-0.0`. One
/// case in four plants `NaN` and `±inf` in `A`, which both kernel bodies
/// multiply alike.
#[derive(Debug)]
struct ZeroCase {
    a: Tensor,
    b: Tensor,
    block_cols: usize,
    /// Rows of `a` that are entirely `±0.0`.
    zero_rows: Vec<usize>,
    /// Whether `b` is finite (so an all-zero row of `a` yields `+0.0`s).
    finite_b: bool,
    /// Whether `a` is finite (so a pruned column of `b` yields `+0.0`s).
    finite_a: bool,
}

fn zero_case() -> impl Strategy<Value = ZeroCase> {
    (
        1usize..=41,
        1usize..=400,
        1usize..=70,
        (0usize..5, 0usize..4, 0usize..4),
        0u64..1 << 32,
    )
        .prop_map(|(m, k, n, (zeros, b_kind, a_kind), seed)| {
            let mut rng = Pcg32::seed_from_u64(seed);
            let zero_fraction = [0.0, 0.05, 0.5, 0.95, 1.0][zeros];
            let mut a = rng.randn(&[m, k], 1.0);
            let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for v in a.as_mut_slice() {
                if rng.next_f32() < zero_fraction {
                    *v = if rng.next_u32() % 4 == 0 { -0.0 } else { 0.0 };
                } else if a_kind == 0 && rng.next_u32() % 8 == 0 {
                    *v *= 1e-30;
                } else if a_kind == 1 && rng.next_u32() % 16 == 0 {
                    *v = poison[rng.below(3) as usize];
                }
            }
            // A whole zero row block, and a zero row somewhere else.
            let mut zero_rows: Vec<usize> = Vec::new();
            if m >= 8 {
                let blk = rng.below((m / 4) as u32) as usize;
                zero_rows.extend(blk * 4..blk * 4 + 4);
            }
            zero_rows.push(rng.below(m as u32) as usize);
            for &i in &zero_rows {
                a.as_mut_slice()[i * k..(i + 1) * k].fill(0.0);
            }
            if zero_fraction == 1.0 {
                zero_rows = (0..m).collect();
            }
            let mut b = rng.randn(&[k, n], 1.0);
            for v in b.as_mut_slice() {
                match (b_kind, rng.next_u32() % 16) {
                    (1, 0) => *v = f32::INFINITY,
                    (1, 1) => *v = f32::NEG_INFINITY,
                    (1, 2) => *v = f32::NAN,
                    (2, 0..=3) => *v *= 1e-30,
                    (_, 4) => *v = 0.0,
                    (_, 5) => *v = -0.0,
                    _ => {}
                }
            }
            // Column blocks for the sparse entry point to drop.
            let block_cols = 1 + rng.below(20) as usize;
            for j0 in (0..n).step_by(block_cols) {
                if rng.next_u32() % 3 == 0 {
                    let j1 = n.min(j0 + block_cols);
                    for row in b.as_mut_slice().chunks_exact_mut(n) {
                        row[j0..j1].fill(0.0);
                    }
                }
            }
            let finite_a = a.as_slice().iter().all(|v| v.is_finite());
            ZeroCase {
                a,
                b,
                block_cols,
                zero_rows,
                finite_b: b_kind != 1,
                finite_a,
            }
        })
}

/// A left operand for the rows layout over its whole space: `m` 0–40, `k`
/// 0–300 (across the 128-deep k-block of the lines layout), `n` 0–70 (one
/// case in four `n = 7`, a GCN's class count) and densities 0–100 %. The
/// mask is random, or one non-zero per line of four (every kept line
/// holds one value), or a single row: the last two always pack by rows
/// while anything is non-zero. Zeros come as `+0.0` and `-0.0`; half the
/// cases plant `NaN`, `±inf` or the subnormal `1e-40` in `A`, and half in
/// `B`.
#[derive(Debug)]
struct RowsCase {
    a: Tensor,
    b: Tensor,
    /// Whether the mask makes `PackedLhs::pack` take rows.
    rows: bool,
}

fn rows_case() -> impl Strategy<Value = RowsCase> {
    (
        (0usize..=40, 0usize..=300, 0usize..=70, 0usize..4),
        (0usize..7, 0usize..3, 0usize..8, 0usize..8),
        0u64..1 << 32,
    )
        .prop_map(
            |((m, k, n, n_kind), (density, mask, a_poison, b_poison), seed)| {
                let mut rng = Pcg32::seed_from_u64(seed);
                let density = [0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0][density];
                let m = if mask == 2 { 1 } else { m };
                let n = if n_kind == 0 { 7 } else { n };
                let mut a = rng.randn(&[m, k], 1.0);
                let owner: Vec<usize> = (0..m.div_ceil(4) * k)
                    .map(|_| rng.below(4) as usize)
                    .collect();
                for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
                    let (i, p) = (idx / k, idx % k);
                    let kept =
                        rng.next_f32() < density && (mask != 1 || owner[i / 4 * k + p] == i % 4);
                    if !kept {
                        *v = if rng.next_u32() % 3 == 0 { -0.0 } else { 0.0 };
                    }
                }
                // Poison replaces values of `A` that are already non-zero,
                // so the mask — and the layout it implies — stays.
                let poison = |t: &mut Tensor, kind: usize, rng: &mut Pcg32| {
                    let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40];
                    let Some(&value) = values.get(kind) else {
                        return;
                    };
                    let live: Vec<usize> =
                        (0..t.len()).filter(|&i| t.as_slice()[i] != 0.0).collect();
                    for _ in 0..3.min(live.len()) {
                        let at = live[rng.below(live.len() as u32) as usize];
                        t.as_mut_slice()[at] = value;
                    }
                };
                poison(&mut a, a_poison, &mut rng);
                let mut b = rng.randn(&[k, n], 1.0);
                poison(&mut b, b_poison, &mut rng);
                let rows = mask != 0 && a.as_slice().iter().any(|v| *v != 0.0);
                RowsCase { a, b, rows }
            },
        )
}

/// One group of convolutions over `parallel::conv2d`'s space: `C·k·k` on
/// both sides of the 128-deep k-block (`cin` up to 17 at `k = 3`), strides
/// 1–3, paddings up to `k + 1`, `cout` 1–13 (ragged row blocks), and 1–4
/// images of different sizes from 1×1 to 40×40 sharing the weight (panels
/// of every width, ragged last panels). Values come plain, ReLU-masked,
/// INT16-round-tripped, or with planted `±0.0`; the weight has planted
/// zeros and whole zero taps (dropped lines of the pack).
#[derive(Debug)]
struct ConvCase {
    geo: Conv2dGeometry,
    w: Tensor,
    images: Vec<Tensor>,
}

fn conv_case() -> impl Strategy<Value = ConvCase> {
    (
        (1usize..=17, 1usize..=4, 1usize..=3, 0usize..=5),
        (1usize..=13, 1usize..=4, 0usize..4),
        0u64..1 << 32,
    )
        .prop_map(|((cin, k, stride, pad), (cout, count, kind), seed)| {
            let mut rng = Pcg32::seed_from_u64(seed);
            let geo = Conv2dGeometry {
                in_channels: cin,
                out_channels: cout,
                kernel: k,
                stride,
                padding: pad.min(k + 1),
            };
            let smallest = k.saturating_sub(2 * geo.padding).max(1);
            let images = (0..count)
                .map(|_| {
                    let mut side = || smallest.max(1 + rng.below(40) as usize);
                    let (h, w) = (side(), side());
                    let x = rng.randn(&[cin, h, w], 1.0);
                    match kind {
                        0 => x,
                        1 => x.map(|v| v.max(0.0)),
                        2 => QuantTensor::round_trip(&x),
                        _ => x.map(|v| match v.to_bits() % 5 {
                            0 => 0.0,
                            1 => -0.0,
                            _ => v,
                        }),
                    }
                })
                .collect();
            let mut w = rng.randn(&[cout, geo.patch_len()], 1.0);
            let patch = geo.patch_len();
            let dead_tap = rng.below(patch as u32) as usize;
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                match rng.next_u32() % 16 {
                    _ if i % patch == dead_tap => *v = 0.0,
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    _ => {}
                }
            }
            ConvCase { geo, w, images }
        })
}

/// `im2col` → `gemm::matmul(cols, Wᵀ)` → `col2im_output`: the reference
/// `parallel::conv2d` must equal.
fn conv_reference(image: &Tensor, w: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let (oh, ow) = geo.output_hw(image.dims()[1], image.dims()[2]).unwrap();
    let cols = im2col::im2col(image, geo).unwrap();
    let prod = gemm::matmul(&cols, &w.transpose().unwrap()).unwrap();
    im2col::col2im_output(&prod, w.dims()[0], oh, ow).unwrap()
}

fn assert_bit_identical(got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims());
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "element {i}: {g} vs {w}");
    }
}

proptest! {
    // Pinned case count: CI runs are deterministic and reproducible.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every entry point of the one packed GEMM is `to_bits()`-equal to
    /// the reference loop: dense
    /// through `parallel::matmul`, block-sparse through `sparse::matmul`,
    /// and — with `A` in two parts, so a row block may straddle them — a
    /// `B` reused across calls (packed per call the first time, then
    /// packed once) through `parallel::matmul_rows`.
    #[test]
    fn packed_gemm_bit_identical_over_the_shape_space(case in gemm_case()) {
        let dense = gemm::matmul(&case.a, &case.b).unwrap();
        let pruned = gemm::matmul(&case.a, &case.pruned_b).unwrap();
        let packed = SparseTensor::from_dense(&case.pruned_b, case.block_cols).unwrap();
        let (m, k) = (case.a.dims()[0], case.a.dims()[1]);
        let parts = halves(&case.a);
        assert_bit_identical(&parallel::matmul(&case.a, &case.b, SEQ).unwrap(), &dense);
        assert_bit_identical(&sparse::matmul(&case.a, &packed, SEQ).unwrap(), &pruned);
        // Packed per call the first time, packed once the second.
        for _ in 0..2 {
            let reused = parallel::matmul_rows(&parts, m, k, Right::Reused(&case.b));
            assert_bit_identical(&reused.unwrap(), &dense);
        }
    }

    /// Zeros in `A` change no bit, whatever their share and whatever `A`
    /// and `B` hold: the kernel that multiplies by them and the kernel that
    /// skips them are chosen from the operands alone, and both equal the
    /// reference loop — through `matmul`, through a pre-packed `A`, and
    /// (for a finite `A`, whose products with a pruned column are `+0.0`)
    /// through `sparse::matmul`'s payload and column map, and through a
    /// reused `B` against `A` in two parts.
    #[test]
    fn zeros_in_a_change_no_bit(case in zero_case()) {
        let want = gemm::matmul(&case.a, &case.b).unwrap();
        if case.finite_b {
            let n = case.b.dims()[1];
            for &i in &case.zero_rows {
                for v in &want.as_slice()[i * n..(i + 1) * n] {
                    prop_assert_eq!(v.to_bits(), 0, "a zero row of A stays +0.0");
                }
            }
        }
        let packed_a = PackedLhs::pack(&case.a).unwrap();
        let sparse_b = SparseTensor::from_dense(&case.b, case.block_cols).unwrap();
        let (m, k) = (case.a.dims()[0], case.a.dims()[1]);
        let parts = halves(&case.a);
        assert_bit_identical(&parallel::matmul(&case.a, &case.b, SEQ).unwrap(), &want);
        assert_bit_identical(&parallel::matmul_packed(&packed_a, &case.b).unwrap(), &want);
        for _ in 0..2 {
            let reused = parallel::matmul_rows(&parts, m, k, Right::Reused(&case.b));
            assert_bit_identical(&reused.unwrap(), &want);
        }
        if case.finite_a {
            assert_bit_identical(&sparse::matmul(&case.a, &sparse_b, SEQ).unwrap(), &want);
        }
    }

    /// A left operand read in place equals the same operand packed in
    /// lines, and both equal the reference loop: over every `m % 4` tail (the in-place sweep's
    /// zero-padded last block), the `m < 4` cut-off to the reference loop,
    /// and k-blocks of every depth.
    #[test]
    fn in_place_a_equals_its_line_pack_and_the_reference(case in gemm_case()) {
        let want = gemm::matmul(&case.a, &case.b).unwrap();
        let lines = PackedLhs::pack_lines(&case.a).unwrap();
        assert_bit_identical(&parallel::matmul(&case.a, &case.b, SEQ).unwrap(), &want);
        assert_bit_identical(&parallel::matmul_packed(&lines, &case.b).unwrap(), &want);
    }

    /// A pre-packed `A` equals the reference loop in whichever layout the
    /// pack chose — the rows layout with no
    /// value test at all: `-0.0` skipped, `NaN`, `±inf` and subnormals
    /// multiplied exactly where the reference multiplies them.
    #[test]
    fn rows_pack_equals_the_reference_for_every_input(case in rows_case()) {
        let want = gemm::matmul(&case.a, &case.b).unwrap();
        let packed = PackedLhs::pack(&case.a).unwrap();
        if case.rows {
            prop_assert!(packed.by_rows(), "one non-zero per kept line packs by rows");
        }
        assert_bit_identical(&parallel::matmul_packed(&packed, &case.b).unwrap(), &want);
    }

    /// The layout follows the operand's counts: a dense constant keeps
    /// lines, and so does a ReLU-masked one large enough for its counts to
    /// sit near their means (2.1 non-zeros per kept line against the rows
    /// layout's break-even of 2); `pack_lines` keeps lines at any density.
    #[test]
    fn dense_and_relu_masked_constants_keep_lines(
        (m, k, seed) in (64usize..=128, 256usize..=420, 0u64..1 << 32),
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let dense = rng.randn(&[m, k], 1.0);
        prop_assert!(!PackedLhs::pack(&dense).unwrap().by_rows());
        let masked = dense.map(|v| v.max(0.0));
        prop_assert!(!PackedLhs::pack(&masked).unwrap().by_rows());
        let sparse = dense.map(|v| if v > 2.0 { v } else { 0.0 });
        prop_assert!(!PackedLhs::pack_lines(&sparse).unwrap().by_rows());
    }

    /// The convolution sweep — weight on the left, patches gathered from
    /// the images — equals the im2col reference bit for bit, for a lone
    /// image and for a group sharing the weight.
    #[test]
    fn conv2d_equals_im2col_gemm_col2im(case in conv_case()) {
        let packed = PackedLhs::pack_lines(&case.w).unwrap();
        let images: Vec<&Tensor> = case.images.iter().collect();
        let want: Vec<Tensor> =
            images.iter().map(|x| conv_reference(x, &case.w, &case.geo)).collect();
        let group = parallel::conv2d(&packed, &images, &case.geo).unwrap();
        let group = group.expect("finite operands above 2^-50 never decline");
        prop_assert_eq!(group.len(), want.len());
        for (got, want) in group.iter().zip(&want) {
            assert_bit_identical(got, want);
        }
        let solo = parallel::conv2d(&packed, &images[..1], &case.geo).unwrap();
        assert_bit_identical(&solo.unwrap()[0], &want[0]);
    }

    /// A `NaN`, a `±inf` or a subnormal anywhere in one image or in the
    /// weight makes the sweep decline, for the whole group.
    #[test]
    fn conv2d_declines_unless_every_operand_is_safe(
        case in conv_case(),
        (poison, target, at) in (0usize..4, 0usize..5, 0u64..1 << 32),
    ) {
        let value = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40][poison];
        let (mut w, mut images) = (case.w, case.images);
        let victim = match target {
            0 => &mut w,
            i => {
                let i = (i - 1) % images.len();
                &mut images[i]
            }
        };
        let len = victim.len() as u64;
        victim.as_mut_slice()[(at % len) as usize] = value;
        let packed = PackedLhs::pack_lines(&w).unwrap();
        let images: Vec<&Tensor> = images.iter().collect();
        let got = parallel::conv2d(&packed, &images, &case.geo).unwrap();
        prop_assert!(got.is_none(), "{} planted in operand {}", value, target);
    }

    #[test]
    fn transpose_involution(t in small_matrix(8)) {
        let tt = t.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(t, tt);
    }

    #[test]
    fn matmul_identity_left_right(t in small_matrix(8)) {
        let (m, n) = t.shape().as_matrix().unwrap();
        let left = gemm::matmul(&Tensor::eye(m), &t).unwrap();
        let right = gemm::matmul(&t, &Tensor::eye(n)).unwrap();
        for (a, b) in t.as_slice().iter().zip(left.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
        for (a, b) in t.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(6), b in small_matrix(6), c in small_matrix(6)
    ) {
        // Force compatible shapes by reusing dims of `a`.
        let (m, k) = a.shape().as_matrix().unwrap();
        let b = Tensor::from_vec(
            b.as_slice().iter().cycle().take(k * 5).copied().collect(), &[k, 5]).unwrap();
        let c = Tensor::from_vec(
            c.as_slice().iter().cycle().take(k * 5).copied().collect(), &[k, 5]).unwrap();
        let lhs = gemm::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = gemm::matmul(&a, &b).unwrap().add(&gemm::matmul(&a, &c).unwrap()).unwrap();
        let _ = m;
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            let tol = 1e-2f32.max(x.abs() * 1e-4);
            prop_assert!((x - y).abs() < tol, "{} vs {}", x, y);
        }
    }

    #[test]
    fn mhp_equals_mul_plus_add(x in small_matrix(8)) {
        let k = x.map(|v| v * 0.5 - 1.0);
        let b = x.map(|v| -v * 0.25 + 2.0);
        let direct = gemm::mhp(&x, &k, &b).unwrap();
        let composed = x.mul(&k).unwrap().add(&b).unwrap();
        prop_assert_eq!(direct, composed);
    }

    #[test]
    fn tile_round_trip(t in small_matrix(10), th in 1usize..5, tw in 1usize..5) {
        let (rows, cols) = t.shape().as_matrix().unwrap();
        let mut rebuilt = Tensor::zeros(&[rows, cols]);
        let mut r0 = 0;
        while r0 < rows {
            let mut c0 = 0;
            while c0 < cols {
                let tile = t.tile_padded(r0, c0, th, tw).unwrap();
                rebuilt.tile_write(r0, c0, &tile).unwrap();
                c0 += tw;
            }
            r0 += th;
        }
        prop_assert_eq!(t, rebuilt);
    }

    #[test]
    fn quantization_error_bounded(t in small_matrix(8)) {
        let q = QuantTensor::quantize(&t);
        let err = quant::round_trip_error(&t);
        // Slack beyond scale/2 covers f32 rounding in the x/scale divide and
        // the dequantize multiply (each up to ~|q|·eps ≈ 0.004·scale).
        prop_assert!(err.max_abs <= q.scale() * 0.51 + 1e-6,
            "max_abs {} scale {}", err.max_abs, q.scale());
    }

    #[test]
    fn qformat_round_trip_error_bounded(x in -60.0f32..60.0, bits in 4u8..12) {
        let q = QFormat::new(bits);
        prop_assume!(x.abs() < q.max_value());
        let back = q.to_f32(q.from_f32(x));
        prop_assert!((back - x).abs() <= q.resolution() * 0.5 + 1e-5);
    }

    #[test]
    fn qformat_segment_shift_matches_float(
        x in -1.9f32..1.9, log2_seg in -4i8..0
    ) {
        let q = QFormat::new(8);
        let x_min = -2.0f32;
        let seg = (2.0f32).powi(log2_seg as i32);
        let xq = q.from_f32(x);
        let got = q.segment_shift(xq, q.from_f32(x_min), log2_seg);
        // Compare against the float floor computed on the *quantized* value,
        // which is what the hardware sees.
        let expect = ((q.to_f32(xq) - x_min) / seg).floor() as i32;
        prop_assert_eq!(got, expect);
    }

    /// Copy-on-write: after `b = a.clone()`, a write to either side through
    /// any mutator lands on that side alone and leaves the other side
    /// bit for bit as it was.
    #[test]
    fn a_write_to_either_clone_leaves_the_other_untouched(
        t in small_matrix(12), pick in 0usize..1 << 16, v in -100.0f32..100.0
    ) {
        let (rows, cols) = (t.dims()[0], t.dims()[1]);
        let (r, c) = (pick / cols % rows, pick % cols);
        let bits = |x: &Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = bits(&t);
        let writes: [fn(&mut Tensor, usize, usize, f32); 4] = [
            |x, r, c, v| {
                let n = x.dims()[1];
                x.as_mut_slice()[r * n + c] = v;
            },
            |x, r, c, v| x.set(&[r, c], v).unwrap(),
            |x, r, c, v| x.row_mut(r).unwrap()[c] = v,
            |x, r, c, v| x.tile_write(r, c, &Tensor::filled(&[1, 1], v)).unwrap(),
        ];
        for write in writes {
            for write_the_clone in [false, true] {
                let mut a = t.clone();
                let mut b = a.clone();
                prop_assert!(a.shares_storage(&b));
                let (written, other) = if write_the_clone { (&mut b, &a) } else { (&mut a, &b) };
                write(written, r, c, v);
                prop_assert!(!written.shares_storage(other));
                prop_assert_eq!(bits(other), before.clone());
                prop_assert_eq!(written.as_slice()[r * cols + c].to_bits(), v.to_bits());
            }
        }
        prop_assert_eq!(bits(&t), before);
    }

    /// What a buffer remembers is never stale. For each mutator, a write
    /// to a buffer nothing else holds — after its fingerprint and every
    /// pack were read, twice, so that the right operand's pack was made —
    /// changes the fingerprint, and every pack read after it multiplies
    /// the written values: each equals what a fresh copy of the written
    /// tensor gives.
    #[test]
    fn a_write_after_a_read_changes_the_fingerprint_and_every_pack(
        t in small_matrix(12), pick in 0usize..1 << 16, v in -100.0f32..100.0
    ) {
        let (rows, cols) = (t.dims()[0], t.dims()[1]);
        let (r, c) = (pick / cols % rows, pick % cols);
        // A value the element does not hold already, so the write is one.
        let v = if v.to_bits() == t.as_slice()[r * cols + c].to_bits() { v + 1.0 } else { v };
        for write in WRITES {
            let mut a = copy(&t);
            let before = memo_reads(&a);
            prop_assert_eq!(&before, &memo_reads(&a));
            prop_assert_eq!(&before, &memo_reads(&copy(&a)));
            write(&mut a, r, c, v);
            let after = memo_reads(&a);
            prop_assert_ne!(after.0, before.0);
            prop_assert_eq!(after, memo_reads(&copy(&a)));
        }
    }

    /// A clone shares what its buffer remembers and is never stale: it
    /// reads what its source reads, a write to it leaves the source's
    /// memo as it was, and a reshape view computes its own values under
    /// its own dims.
    #[test]
    fn a_clones_memo_is_never_stale_and_a_view_recomputes(
        t in small_matrix(12), pick in 0usize..1 << 16, v in -100.0f32..100.0
    ) {
        let (rows, cols) = (t.dims()[0], t.dims()[1]);
        let (r, c) = (pick / cols % rows, pick % cols);
        let fresh = memo_reads(&copy(&t));
        for write in WRITES {
            let a = copy(&t);
            prop_assert_eq!(&memo_reads(&a), &fresh);
            let mut clone = a.clone();
            prop_assert_eq!(&memo_reads(&clone), &fresh);
            write(&mut clone, r, c, v);
            prop_assert_eq!(memo_reads(&clone), memo_reads(&copy(&clone)));
            prop_assert_eq!(&memo_reads(&a), &fresh);
            let view = a.reshape(&[cols, rows]).unwrap();
            prop_assert_eq!(memo_reads(&view), memo_reads(&copy(&view)));
            prop_assert_eq!(&memo_reads(&a), &fresh);
        }
    }
}

/// Matrix `a`'s rows as two parts, split a third of the way down.
fn halves(a: &Tensor) -> [&[f32]; 2] {
    let split = a.dims()[0] / 3 * a.dims()[1];
    let (top, bottom) = a.as_slice().split_at(split);
    [top, bottom]
}

/// The four mutators, each writing `v` at `[r, c]`.
const WRITES: [fn(&mut Tensor, usize, usize, f32); 4] = [
    |x, r, c, v| {
        let n = x.dims()[1];
        x.as_mut_slice()[r * n + c] = v;
    },
    |x, r, c, v| x.set(&[r, c], v).unwrap(),
    |x, r, c, v| x.row_mut(r).unwrap()[c] = v,
    |x, r, c, v| x.tile_write(r, c, &Tensor::filled(&[1, 1], v)).unwrap(),
];

/// A copy of `t` on a buffer of its own, which remembers nothing.
fn copy(t: &Tensor) -> Tensor {
    Tensor::from_vec(t.as_slice().to_vec(), t.dims()).unwrap()
}

/// Everything the matrix `t`'s storage remembers, read through it: its
/// fingerprint, and the bits of a product through each pack — `t` as a
/// left operand (by the layout the pack picks, and transposed by lines),
/// as a reused right operand and as a sparse one at two block widths.
fn memo_reads(t: &Tensor) -> (u64, Vec<Vec<u32>>) {
    let (m, k) = (t.dims()[0], t.dims()[1]);
    let mut rng = Pcg32::seed_from_u64(5);
    let right = rng.randn(&[k, 3], 1.0);
    let right_t = rng.randn(&[m, 3], 1.0);
    // Five rows, so that the sweep — not the reference loop — reads the
    // right operand's pack.
    let left = rng.randn(&[5, m], 1.0);
    let bits = |x: Tensor| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let lhs = parallel::matmul_packed(&PackedLhs::of(t).unwrap(), &right).unwrap();
    let conv = PackedLhs::of_transposed(t).unwrap();
    let conv = parallel::matmul_packed(&conv, &right_t).unwrap();
    let rhs = parallel::matmul_rows(&[left.as_slice()], 5, m, Right::Reused(t)).unwrap();
    let sparse = [1, 2].map(|block_cols| {
        let packed = SparseTensor::of(t, block_cols).unwrap();
        prop_assert_sparse(&packed, t, block_cols);
        bits(sparse::matmul(&left, &packed, SEQ).unwrap())
    });
    let [s1, s2] = sparse;
    (
        tensor_fingerprint(t),
        vec![bits(lhs), bits(conv), bits(rhs), s1, s2],
    )
}

/// A sparse pack read from a buffer's memo is the pack made fresh.
fn prop_assert_sparse(packed: &SparseTensor, t: &Tensor, block_cols: usize) {
    assert_eq!(*packed, SparseTensor::from_dense(t, block_cols).unwrap());
}

/// Symmetric quantization as the scheme defines it, one element at a time
/// — a `round()`, a compare-and-saturate, an `as` cast — for an integer
/// type given by its range: the reference the vectorised `quantize` and
/// the fused round trip must equal bit for bit.
fn quantize_reference(x: &[f32], scale: f32, min: f32, max: f32) -> Vec<i32> {
    x.iter()
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
        .collect()
}

fn scale_reference(x: &[f32], max: f32) -> f32 {
    let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        1.0
    } else {
        max_abs / max
    }
}

/// `got == want`, naming the first element that differs (the vectors run
/// to 200 000 elements: a plain `assert_eq!` would print them whole).
fn assert_same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T], x: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "{what}: element {i} (x = {:e}): got {:?}, want {:?}",
            x[i], got[i], want[i]
        );
    }
}

/// Every half-integer tie in `±limit`, each with the float just below and
/// just above it — where round-half-away-from-zero and its branch-free
/// form could part ways.
fn ties_with_neighbours(limit: i32) -> Vec<f32> {
    (-limit..limit)
        .flat_map(|n| {
            let tie = n as f32 + 0.5;
            let step = if tie > 0.0 { 1 } else { -1 };
            let bits = tie.to_bits() as i32;
            [
                f32::from_bits((bits - step) as u32),
                tie,
                f32::from_bits((bits + step) as u32),
            ]
        })
        .collect()
}

/// Checks one precision's `quantize_with_scale`, `quantize`,
/// `dequantize`, `round_trip` and `round_trip_rows` against the scalar
/// definition on `x`.
macro_rules! assert_quant_matches_reference {
    ($ty:ty, $int:ty, $x:expr, $what:expr) => {{
        let x: &[f32] = $x;
        let (min, max) = (<$int>::MIN as f32, <$int>::MAX as f32);
        let t = Tensor::from_vec(x.to_vec(), &[x.len()]).unwrap();
        let scale = scale_reference(x, max);
        let ints = quantize_reference(x, scale, min, max);
        let q = <$ty>::quantize(&t);
        assert_eq!(q.scale().to_bits(), scale.to_bits(), "{}: scale", $what);
        let got: Vec<i32> = q.as_slice().iter().map(|&v| i32::from(v)).collect();
        assert_same(&got, &ints, x, &format!("{}: integers", $what));
        let want: Vec<u32> = ints.iter().map(|&q| (q as f32 * scale).to_bits()).collect();
        let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_same(
            &bits(&q.dequantize()),
            &want,
            x,
            &format!("{}: dequantize", $what),
        );
        let round_trip = bits(&<$ty>::round_trip(&t));
        assert_same(&round_trip, &want, x, &format!("{}: round trip", $what));
        let row = t.reshape(&[1, x.len()]).unwrap();
        let rows = <$ty>::round_trip_rows(&row).unwrap();
        assert_same(
            &bits(&rows),
            &want,
            x,
            &format!("{}: one-row round trip", $what),
        );
    }};
}

/// The vectorised quantizer rounds, saturates and converts exactly as the
/// scalar definition does, at any explicit scale: every tie in ±35 000 —
/// past both ends of the INT16 range, far past INT8's — with its float
/// neighbours.
#[test]
fn quantize_with_scale_matches_the_definition_on_every_tie() {
    let ties = ties_with_neighbours(35_000);
    let t = Tensor::from_vec(ties.clone(), &[ties.len()]).unwrap();
    for scale in [1.0f32, 0.5, 3.0, 0.37, 1e-3, 40_000.0] {
        let q16 = QuantTensor::quantize_with_scale(&t, scale);
        let want = quantize_reference(&ties, scale, i16::MIN as f32, i16::MAX as f32);
        let got: Vec<i32> = q16.as_slice().iter().map(|&v| i32::from(v)).collect();
        assert_same(&got, &want, &ties, &format!("int16 at scale {scale}"));
        let q8 = QuantTensor8::quantize_with_scale(&t, scale);
        let want = quantize_reference(&ties, scale, i8::MIN as f32, i8::MAX as f32);
        let got: Vec<i32> = q8.as_slice().iter().map(|&v| i32::from(v)).collect();
        assert_same(&got, &want, &ties, &format!("int8 at scale {scale}"));
    }
    assert_eq!(
        QuantTensor::quantize_with_scale(&t, 1.0).as_slice()[0],
        i16::MIN
    );
    assert_eq!(
        QuantTensor8::quantize_with_scale(&t, 1.0).as_slice()[0],
        i8::MIN
    );
}

/// `round_trip` never builds the integer tensor and still equals
/// `quantize(..).dequantize()` — and both equal the definition — on the
/// inputs that could tell them apart.
#[test]
fn quant_round_trip_equals_quantize_then_dequantize() {
    // Ties inside the range, the range's own maximum planted so the scale
    // is exactly 1.0 and every tie stays a tie after the divide.
    let mut ties16 = ties_with_neighbours(32_767);
    ties16.push(32_767.0);
    assert_eq!(scale_reference(&ties16, i16::MAX as f32), 1.0);
    assert_quant_matches_reference!(QuantTensor, i16, &ties16, "int16 ties");
    let mut ties8 = ties_with_neighbours(127);
    ties8.push(-127.0);
    assert_eq!(scale_reference(&ties8, i8::MAX as f32), 1.0);
    assert_quant_matches_reference!(QuantTensor8, i8, &ties8, "int8 ties");

    let mut rng = Pcg32::seed_from_u64(0x0A17);
    let mut cases: Vec<(String, Vec<f32>)> = vec![
        ("empty".into(), vec![]),
        ("all zero".into(), vec![0.0; 37]),
        ("signed zeros".into(), vec![-0.0, 0.0, -0.0]),
        ("nan".into(), vec![1.0, f32::NAN, -2.5, 0.1, -f32::NAN]),
        ("all nan".into(), vec![f32::NAN; 5]),
        (
            "inf".into(),
            vec![1.0, f32::INFINITY, -3.0, 0.0, -0.0, f32::NAN],
        ),
        ("-inf".into(), vec![f32::NEG_INFINITY, 2.0, -0.0]),
        ("both inf".into(), vec![f32::NEG_INFINITY, f32::INFINITY]),
        ("huge".into(), vec![3e38, -3e38, 1e30, -1.0, 0.3]),
        ("subnormal".into(), vec![1e-40, -1e-40, 1e-45, 0.0]),
        (
            "tiny".into(),
            vec![f32::MIN_POSITIVE, -f32::MIN_POSITIVE * 3.0],
        ),
        // -0.3 / scale rounds to -0.0: the integer 0, hence +0.0 back.
        ("rounds to -0".into(), vec![-1e-6, 100.0, -0.0, -0.004]),
        (
            "saturates".into(),
            vec![-1.0, 1.0, 0.999_999_9, -0.999_999_9],
        ),
    ];
    for len in 0..=70 {
        let noise = rng.randn(&[len], 2.0).as_slice().to_vec();
        cases.push((format!("noise {len}"), noise));
    }
    for (what, x) in &cases {
        assert_quant_matches_reference!(QuantTensor, i16, x, what);
        assert_quant_matches_reference!(QuantTensor8, i8, x, what);
    }
}

/// `round_trip_rows` gives each row the bits its own one-row tensor gets:
/// a row's result is a function of that row alone.
#[test]
fn quant_round_trip_rows_equals_the_per_row_tensor_form() {
    let mut rng = Pcg32::seed_from_u64(0x0B0B);
    for (m, n) in [
        (1usize, 1usize),
        (3, 7),
        (5, 16),
        (4, 33),
        (9, 64),
        (2, 0),
        (0, 4),
    ] {
        let mut x = rng.randn(&[m, n], 1.5);
        if let Some(v) = x.as_mut_slice().get_mut(n / 2) {
            *v = f32::NAN;
        }
        if m > 2 {
            x.as_mut_slice()[2 * n..3 * n].fill(0.0);
        }
        let got = QuantTensor::round_trip_rows(&x).unwrap();
        assert_eq!(got.dims(), x.dims());
        for i in 0..m {
            let row = Tensor::from_vec(x.as_slice()[i * n..(i + 1) * n].to_vec(), &[1, n]).unwrap();
            let want = QuantTensor::quantize(&row).dequantize();
            let got = &got.as_slice()[i * n..(i + 1) * n];
            for (g, w) in got.iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{m}x{n} row {i}: {g} vs {w}");
            }
        }
    }
    assert!(QuantTensor::round_trip_rows(&Tensor::zeros(&[4])).is_err());
}
