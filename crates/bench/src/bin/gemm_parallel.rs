//! Emits the `BENCH_gemm_parallel.json` perf baseline: the packed host
//! GEMM against the reference loop, at three square sizes and on the
//! shapes serving traffic actually issues.
//!
//! ```sh
//! cargo run --release -q -p onesa-bench --bin gemm_parallel > BENCH_gemm_parallel.json
//! ```
//!
//! The committed copy at the repository root records the trajectory later
//! performance PRs must beat. Wall-clock numbers are machine-dependent;
//! the ratios are the stable quantity: `speedup_packed` (`gemm::matmul`
//! vs `parallel::matmul`) and, per serving shape,
//! `packed_over_reference` (a time ratio, lower is better). Every ratio
//! of a timed row is the median of three independent ratios, each from
//! its own interleaved group of the alternating samples
//! (`onesa_bench::Timings::ratio`), so one noisy stretch of the host
//! cannot flip a floor; the `*_us` columns are best times. The bin
//! asserts its own floors on those ratios so the CI bench-smoke job
//! enforces them: on no
//! serving shape is the packed kernel more than 10% slower than the
//! reference loop, nor is `parallel::matmul` — which reads its left
//! operand where it lies — slower than packing that operand in lines on
//! every call and sweeping the pack (`packed_over_pack_and_sweep`; a pack
//! made once, `prepacked_us`, is context) — and that includes the
//! `zero_fraction` rows, which run
//! the CNN's and the GCN's products on the left operands traffic really
//! has (a ReLU-masked activation map, about half exact zeros; the GCN's
//! normalized adjacency `Â`, about 95%, packed once as the program
//! constant it is). Zeros in `A` must cost nothing: the masked operand
//! runs within 10% of the dense one, and `Â` — packed by rows — in at most
//! 0.15× the dense time at `n = 64`, 0.12× at `n = 7`, and half the
//! reference loop's. The `density` rows sweep a constant operand's
//! density from 2% to 100% and hold the pack's layout choice to within
//! 10% of the lines layout at every density. Every serving row also times
//! `B` packed once (`prepacked_b_us`: `parallel::matmul_rows` with
//! `Right::Reused`, whose panels the weight's storage keeps, as
//! `onesa-plan` runs a constant right operand). The 256-deep serving rows
//! also time `onesa_plan::tensor_fingerprint` of their `[256, n]` weight
//! two ways: hashed in full (`fingerprint_us`, through a flat view of the
//! weight, a third dims its storage's memo keeps nothing for) — what the first
//! GEMM request on a weight pays when it is lowered on admission — held
//! to at most 0.75× the packed GEMM (`fingerprint_over_packed`), since
//! admitting a request must not cost more than serving it; and read back
//! from the storage (`fingerprint_resubmitted_us`), what every later
//! request on that weight pays. The `group` row times a window's three
//! `[48, 256] · [256, 96]` GEMM members against one weight, three ways:
//! the rows gathered into one block and `B` packed per call (the executor
//! before it read members in parts), gathered against the packed `B`, and
//! read where they lie, in parts, against the packed `B`.

use std::hint::black_box;

use onesa_bench::{time_alternating, time_best, Timings};
use onesa_data::{Difficulty, GraphDataset};
use onesa_plan::tensor_fingerprint;
use onesa_tensor::gemm;
use onesa_tensor::im2col::{self, Conv2dGeometry};
use onesa_tensor::parallel::{self, PackedLhs, Parallelism, Right};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

/// The `(m, k, n)` products the benchmark workloads reduce to: coalesced
/// and solo GEMM requests against 256-deep weights, the CNN's im2col
/// convolutions, the GCN's Â products, and the BERT / decode projections.
fn serving_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = Vec::new();
    for m in [16, 33, 48, 79, 80] {
        for n in [64, 96, 128] {
            shapes.push((m, 256, n));
        }
    }
    shapes.extend([
        (1024, 27, 8),
        (1024, 72, 8),
        (420, 420, 7),
        (420, 420, 64),
        (64, 32, 32),
        (64, 16, 64),
        (8, 32, 32),
        (1, 16, 16),
    ]);
    shapes
}

/// One serving shape timed on one left operand: `(reference, packed,
/// dense)` seconds per call — the reference loop and the packed
/// kernel on `a`, and the packed kernel on `dense`, a zero-free activation
/// of the same shape — ~1 ms of work per sample whatever the shape.
/// `constant` says how traffic meets `a`: an activation is read in place by
/// every call (`parallel::matmul`), a program constant is packed once,
/// outside the timed region (`parallel::matmul_packed`, as `onesa-plan`
/// runs it). Asserts the floor every row of this file is held to.
fn time_shape(a: &Tensor, dense: &Tensor, b: &Tensor, what: &str, constant: bool) -> Timings<3> {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let calls = ((1e7 / (m * k * n) as f64) as usize).clamp(1, 20_000);
    let once = constant.then(|| PackedLhs::pack(a).expect("matrix"));
    let packed = |a: &Tensor| parallel::matmul(a, b, Parallelism::Sequential).expect("matmul");
    let times = time_alternating(
        calls,
        [
            &mut || gemm::matmul(a, b).expect("matmul"),
            &mut || match &once {
                Some(a) => parallel::matmul_packed(a, b).expect("matmul"),
                None => packed(a),
            },
            &mut || packed(dense),
        ],
    );
    let ratio = times.ratio(1, 0);
    assert!(
        ratio <= 1.10,
        "{m}x{k}x{n} {what}: packed kernel {ratio:.2}x the reference loop's time, limit 1.10"
    );
    times
}

/// Keeps a timed call's result observable whatever its type.
fn sink<T>(out: T) {
    black_box(out);
}

/// A result's bit patterns, for the `to_bits()` checks before timing.
fn bits(t: Tensor) -> Vec<u32> {
    t.into_vec().into_iter().map(f32::to_bits).collect()
}

/// One serving shape five ways, and the hash of its weight two ways:
/// `(reference, per call, pack and sweep, prepacked, fingerprint,
/// fingerprint resubmitted, prepacked B)` seconds per call — the
/// reference loop; `parallel::matmul`, which reads `a` where it lies; `a`
/// packed in lines on every call and swept (`PackedLhs::pack_lines` +
/// `matmul_packed`, what `parallel::matmul` ran before it read `a` in
/// place); `a` packed in lines once, outside the timed region; the hash of
/// `b`'s values through a flat view (a third dims, which its storage
/// does not answer, so every call hashes in full); `tensor_fingerprint(b)`, read back from
/// `b`'s storage; and `b` packed once, in its storage, with `a` read in
/// place (`Right::Reused`). The hashes alternate with the products so a
/// noisy stretch of the host lands on both sides of their ratios. The
/// five products are checked `to_bits()`-equal first. Asserts the two
/// floors every serving shape is held to.
fn time_serving(a: &Tensor, b: &Tensor) -> Timings<7> {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let calls = ((1e7 / (m * k * n) as f64) as usize).clamp(1, 20_000);
    let once = PackedLhs::pack_lines(a).expect("matrix");
    let seq = Parallelism::Sequential;
    let pack_and_sweep = || {
        let packed = PackedLhs::pack_lines(a).expect("matrix");
        parallel::matmul_packed(&packed, b).expect("matmul")
    };
    let prepacked_b =
        || parallel::matmul_rows(&[a.as_slice()], m, k, Right::Reused(b)).expect("matmul");
    let want = bits(gemm::matmul(a, b).expect("matmul"));
    assert!(
        bits(parallel::matmul(a, b, seq).expect("matmul")) == want
            && bits(pack_and_sweep()) == want
            && bits(parallel::matmul_packed(&once, b).expect("matmul")) == want
            && bits(prepacked_b()) == want,
        "{m}x{k}x{n}: the five forms differ"
    );
    // The weight's own hash is read first, so its storage keeps it, and a
    // row view's fills the memo's other entry; the flat view hashes a third
    // dims, which the memo keeps nothing for, so it hashes in full on
    // every call.
    let own = tensor_fingerprint(b);
    tensor_fingerprint(&b.reshape(&[1, k * n]).expect("same volume"));
    let flat = b.reshape(&[k * n]).expect("same volume");
    assert_ne!(tensor_fingerprint(&flat), own);
    let times = time_alternating(
        calls,
        [
            &mut || sink(gemm::matmul(a, b).expect("matmul")),
            &mut || sink(parallel::matmul(a, b, seq).expect("matmul")),
            &mut || sink(pack_and_sweep()),
            &mut || sink(parallel::matmul_packed(&once, b).expect("matmul")),
            &mut || sink(tensor_fingerprint(&flat)),
            &mut || sink(tensor_fingerprint(b)),
            &mut || sink(prepacked_b()),
        ],
    );
    let (over_reference, over_packing) = (times.ratio(1, 0), times.ratio(1, 2));
    assert!(
        over_reference <= 1.10,
        "{m}x{k}x{n}: packed kernel {over_reference:.2}x the reference loop's time, limit 1.10"
    );
    assert!(
        over_packing <= 1.0,
        "{m}x{k}x{n}: reading A in place takes {over_packing:.2}x the time of packing it, limit 1.00"
    );
    times
}

/// A row-stacked window of three `[48, 256]` GEMM members against one
/// `[256, 96]` weight three ways: `(gathered, gathered prepacked B, parts)`
/// seconds per window — the members' rows copied into one block and
/// multiplied with `B` packed per call (`parallel::matmul`); the same
/// block against `B` packed once (`Right::Reused`); and the members' rows
/// read where they lie (`parallel::matmul_rows` over three parts) against
/// the packed `B`. The three products are checked `to_bits()`-equal first.
fn time_group(rng: &mut Pcg32) -> Timings<3> {
    let members: Vec<Tensor> = (0..3).map(|_| rng.randn(&[48, 256], 1.0)).collect();
    let b = rng.randn(&[256, 96], 0.1);
    let seq = Parallelism::Sequential;
    // The executor's gather: each member's rows appended in turn.
    let gather = || {
        let mut rows = Vec::with_capacity(144 * 256);
        for a in &members {
            rows.extend_from_slice(a.as_slice());
        }
        Tensor::from_vec(rows, &[144, 256]).expect("stacked rows")
    };
    let reused = |parts: &[&[f32]]| {
        parallel::matmul_rows(parts, 144, 256, Right::Reused(&b)).expect("matmul")
    };
    let gathered = || parallel::matmul(&gather(), &b, seq).expect("matmul");
    let gathered_prepacked_b = || reused(&[gather().as_slice()]);
    let parts: Vec<&[f32]> = members.iter().map(Tensor::as_slice).collect();
    let want = bits(gathered());
    assert!(
        bits(gathered_prepacked_b()) == want && bits(reused(&parts)) == want,
        "the three group forms differ"
    );
    time_alternating(
        1,
        [
            &mut || sink(gathered()),
            &mut || sink(gathered_prepacked_b()),
            &mut || sink(reused(&parts)),
        ],
    )
}

/// One constant left operand three ways: `(per call, lines, packed)`
/// seconds per call — `parallel::matmul`, which reads `a` where it
/// lies on every call; `a` packed once in lines (`PackedLhs::pack_lines`);
/// and `a` packed once in the layout `PackedLhs::pack` picks, the way
/// `onesa-plan` runs a program constant.
fn time_density(a: &Tensor, b: &Tensor) -> Timings<3> {
    let lines = PackedLhs::pack_lines(a).expect("matrix");
    let packed = PackedLhs::pack(a).expect("matrix");
    let run = |p: &PackedLhs| parallel::matmul_packed(p, b).expect("matmul");
    time_alternating(
        1,
        [
            &mut || parallel::matmul(a, b, Parallelism::Sequential).expect("matmul"),
            &mut || run(&lines),
            &mut || run(&packed),
        ],
    )
}

fn main() {
    let mut rng = Pcg32::seed_from_u64(2024);
    let sizes = [128usize, 256, 512];
    println!("{{");
    println!("  \"bench\": \"gemm_parallel\",");
    println!("  \"kernel\": \"onesa_tensor::parallel::matmul\",");
    println!("  \"sizes\": [");
    for (idx, &d) in sizes.iter().enumerate() {
        let a = rng.randn(&[d, d], 1.0);
        let b = rng.randn(&[d, d], 1.0);
        let gflop = 2.0 * (d * d * d) as f64 / 1e9;
        let (_, reference) = time_best(5, || gemm::matmul(&a, &b).expect("square matmul"));
        let (_, seq) = time_best(5, || {
            parallel::matmul(&a, &b, Parallelism::Sequential).expect("square matmul")
        });
        println!("    {{");
        println!("      \"m\": {d}, \"k\": {d}, \"n\": {d},");
        println!(
            "      \"reference_ms\": {:.3}, \"reference_gflops\": {:.2},",
            reference * 1e3,
            gflop / reference
        );
        println!(
            "      \"seq_ms\": {:.3}, \"seq_gflops\": {:.2},",
            seq * 1e3,
            gflop / seq
        );
        println!("      \"speedup_packed\": {:.2}", reference / seq);
        println!("    }}{}", if idx + 1 < sizes.len() { "," } else { "" });
    }
    println!("  ],");
    println!("  \"serving_shapes\": [");
    let shapes = serving_shapes();
    for (idx, &(m, k, n)) in shapes.iter().enumerate() {
        let a = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let flop = 2.0 * (m * k * n) as f64;
        let times = time_serving(&a, &b);
        let [reference, packed, pack_and_sweep, prepacked, fingerprint, resubmitted, prepacked_b] =
            times.best();
        println!("    {{");
        println!("      \"m\": {m}, \"k\": {k}, \"n\": {n},");
        println!(
            "      \"reference_us\": {:.2}, \"packed_us\": {:.2},",
            reference * 1e6,
            packed * 1e6
        );
        println!(
            "      \"pack_and_sweep_us\": {:.2}, \"prepacked_us\": {:.2},",
            pack_and_sweep * 1e6,
            prepacked * 1e6
        );
        println!(
            "      \"prepacked_b_us\": {:.2}, \"prepacked_b_over_packed\": {:.2},",
            prepacked_b * 1e6,
            times.ratio(6, 1)
        );
        print!(
            "      \"packed_gflops\": {:.2}, \"packed_over_reference\": {:.2}, \"packed_over_pack_and_sweep\": {:.2}",
            flop / packed / 1e9,
            times.ratio(1, 0),
            times.ratio(1, 2)
        );
        if k == 256 {
            let over = times.ratio(4, 1);
            assert!(
                over <= 0.75,
                "{m}x{k}x{n}: hashing the weight takes {over:.2}x the packed GEMM's time, limit 0.75"
            );
            print!(
                ",\n      \"fingerprint_us\": {:.2}, \"fingerprint_over_packed\": {over:.2}, \"fingerprint_resubmitted_us\": {:.3}",
                fingerprint * 1e6,
                resubmitted * 1e6
            );
        }
        println!("\n    }}{}", if idx + 1 < shapes.len() { "," } else { "" });
    }
    println!("  ],");
    let times = time_group(&mut rng);
    let [gathered, gathered_prepacked_b, parts] = times.best();
    println!("  \"group\": {{");
    println!("    \"members\": 3, \"m\": 48, \"k\": 256, \"n\": 96,");
    println!(
        "    \"gathered_us\": {:.2}, \"gathered_prepacked_b_us\": {:.2}, \"parts_prepacked_b_us\": {:.2},",
        gathered * 1e6,
        gathered_prepacked_b * 1e6,
        parts * 1e6
    );
    println!(
        "    \"parts_over_gathered_prepacked_b\": {:.2}, \"parts_over_gathered\": {:.2}",
        times.ratio(2, 1),
        times.ratio(2, 0)
    );
    println!("  }},");
    // The same kernel on the left operands traffic has: the CNN's two
    // im2col products after a ReLU (activations, packed per call), the
    // GCN's `Â·XW` and `Â·HW` on the benchmark's own graph (`Â` is a
    // program constant, packed once). `packed_over_dense` is against the
    // dense activation of the same shape, timed sample by sample beside it.
    println!("  \"zero_fraction\": [");
    let a_hat = GraphDataset::generate("bench", 1, Difficulty::medium(7), 420, 32, 0.16).a_hat;
    let cases = [
        (1024, 72, 16, false),
        (256, 144, 16, false),
        (420, 420, 64, true),
        (420, 420, 7, true),
    ];
    for (idx, (m, k, n, gcn)) in cases.into_iter().enumerate() {
        let dense = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let mut operands = vec![
            ("dense", dense.clone()),
            ("relu_masked", dense.map(|v| v.max(0.0))),
        ];
        if gcn {
            operands.push(("a_hat", a_hat.clone()));
        }
        for (which, (label, a)) in operands.iter().enumerate() {
            let zeros = a.as_slice().iter().filter(|v| **v == 0.0).count();
            let constant = *label == "a_hat";
            let times = time_shape(a, &dense, &b, label, constant);
            let [reference, packed, _] = times.best();
            let (over_dense, over_reference) = (times.ratio(1, 2), times.ratio(1, 0));
            match *label {
                "relu_masked" => assert!(
                    over_dense <= 1.10,
                    "{m}x{k}x{n}: a ReLU-masked A runs {over_dense:.2}x the dense time, limit 1.10"
                ),
                "a_hat" => {
                    let limit = if n == 64 { 0.15 } else { 0.12 };
                    assert!(
                        over_dense <= limit && over_reference <= 0.5,
                        "{m}x{k}x{n}: A-hat runs {over_dense:.2}x the dense time (limit {limit}), {over_reference:.2}x the reference loop's (limit 0.5)"
                    );
                }
                _ => {}
            }
            println!("    {{");
            println!("      \"m\": {m}, \"k\": {k}, \"n\": {n}, \"a\": \"{label}\",");
            println!(
                "      \"zero_fraction\": {:.3}, \"packed_once\": {},",
                zeros as f64 / a.len() as f64,
                constant
            );
            println!(
                "      \"reference_us\": {:.2}, \"packed_us\": {:.2},",
                reference * 1e6,
                packed * 1e6
            );
            println!(
                "      \"packed_over_reference\": {over_reference:.2}, \"packed_over_dense\": {over_dense:.2}"
            );
            let last = idx + 1 == cases.len() && which + 1 == operands.len();
            println!("    }}{}", if last { "" } else { "," });
        }
    }
    println!("  ],");
    // Constant left operands from empty to full at one shape: where the
    // pack's layout rule switches from rows to lines, measured.
    println!("  \"density\": [");
    let densities = [0.02, 0.05, 0.10, 0.25, 0.50, 1.0];
    for (idx, &density) in densities.iter().enumerate() {
        let mut a = rng.randn(&[420, 420], 1.0);
        for v in a.as_mut_slice() {
            if rng.next_f32() >= density {
                *v = 0.0;
            }
        }
        let b = rng.randn(&[420, 64], 1.0);
        let times = time_density(&a, &b);
        let [per_call, lines, packed] = times.best();
        let layout = if PackedLhs::pack(&a).expect("matrix").by_rows() {
            "rows"
        } else {
            "lines"
        };
        let over_lines = times.ratio(2, 1);
        assert!(
            over_lines <= 1.10,
            "density {density}: the {layout} pack runs {over_lines:.2}x the lines pack's time, limit 1.10"
        );
        println!("    {{");
        println!("      \"m\": 420, \"k\": 420, \"n\": 64, \"density\": {density:.2}, \"layout\": \"{layout}\",");
        println!(
            "      \"per_call_us\": {:.2}, \"lines_us\": {:.2}, \"packed_us\": {:.2},",
            per_call * 1e6,
            lines * 1e6,
            packed * 1e6
        );
        println!(
            "      \"packed_over_per_call\": {:.2}, \"packed_over_lines\": {over_lines:.2}",
            times.ratio(2, 0)
        );
        println!("    }}{}", if idx + 1 < densities.len() { "," } else { "" });
    }
    println!("  ],");
    println!("  \"conv\": [");
    let convs = conv_shapes();
    for (idx, &(c, h, stride, masked)) in convs.iter().enumerate() {
        let times = time_conv(&mut rng, c, h, stride, masked);
        let [reference, in_place, conv] = times.best();
        let floor = if h == 32 { 2.5 } else { 1.5 };
        let (speedup, speedup_in_place) = (times.ratio(0, 2), times.ratio(1, 2));
        assert!(
            speedup >= floor,
            "[{c},{h},{h}] stride {stride}: conv2d {speedup:.2}x the im2col path, floor {floor}"
        );
        assert!(
            speedup_in_place >= 1.5,
            "[{c},{h},{h}] stride {stride}: conv2d {speedup_in_place:.2}x the in-place im2col path, floor 1.5"
        );
        println!("    {{");
        println!("      \"c\": {c}, \"h\": {h}, \"w\": {h}, \"cout\": 8, \"kernel\": 3, \"stride\": {stride}, \"padding\": 1, \"relu_masked\": {masked},");
        println!(
            "      \"im2col_path_us\": {:.2}, \"im2col_in_place_us\": {:.2}, \"conv2d_us\": {:.2},",
            reference * 1e6,
            in_place * 1e6,
            conv * 1e6
        );
        println!("      \"speedup\": {speedup:.2}, \"speedup_in_place\": {speedup_in_place:.2}");
        println!("    }}{}", if idx + 1 < convs.len() { "," } else { "" });
    }
    println!("  ]");
    println!("}}");
}

/// `(channels, side, stride, relu_masked)` of the convolutions the
/// benchmark's CNN runs — its stem at 32×32 and 16×16, its 8-channel body
/// on a post-ReLU map — plus one stride-2 layer.
fn conv_shapes() -> Vec<(usize, usize, usize, bool)> {
    vec![
        (3, 32, 1, false),
        (8, 32, 1, true),
        (3, 16, 1, false),
        (8, 16, 1, true),
        (8, 32, 2, true),
    ]
}

/// One 3×3, padding-1, 8-output-channel convolution with a per-channel
/// bias: `(im2col path, im2col path in place, conv2d)` seconds per call. The im2col path is what the executor ran before `conv2d` —
/// `im2col`, the patch matrix packed in lines and swept against the
/// `[C·9, 8]` weight (the pack `parallel::matmul` made on every call until
/// it read its left operand in place), the bias on every row,
/// `col2im_output`; the in-place path is the same with `parallel::matmul`
/// as it runs now. `conv2d` gets the weight packed once, outside the timed
/// region, as a program constant is. The three outputs are checked
/// `to_bits()`-equal before any is timed.
fn time_conv(rng: &mut Pcg32, c: usize, side: usize, stride: usize, masked: bool) -> Timings<3> {
    let geo = Conv2dGeometry {
        in_channels: c,
        out_channels: 8,
        kernel: 3,
        stride,
        padding: 1,
    };
    let mut x = rng.randn(&[c, side, side], 1.0);
    if masked {
        x = x.map(|v| v.max(0.0));
    }
    let w = rng.randn(&[8, geo.patch_len()], 0.5);
    let wt = w.transpose().expect("matrix");
    let bias = rng.randn(&[8], 0.1).into_vec();
    let packed = PackedLhs::pack_lines(&w).expect("matrix");
    let (oh, ow) = geo.output_hw(side, side).expect("geometry fits");
    let reference = |pack: bool| {
        let cols = im2col::im2col(&x, &geo).expect("geometry fits");
        let seq = Parallelism::Sequential;
        let prod = match pack {
            true => {
                let packed = PackedLhs::pack_lines(&cols).expect("matrix");
                parallel::matmul_packed(&packed, &wt)
            }
            false => parallel::matmul(&cols, &wt, seq),
        };
        let mut prod = prod.expect("matmul");
        for row in prod.as_mut_slice().chunks_mut(8) {
            for (v, b) in row.iter_mut().zip(&bias) {
                *v += b;
            }
        }
        im2col::col2im_output(&prod, 8, oh, ow).expect("shapes agree")
    };
    let conv = || {
        let maps = parallel::conv2d(&packed, &[&x], &geo);
        let maps = maps.expect("shapes agree").expect("safe operands");
        let mut map = maps.into_iter().next().expect("one image, one map");
        for (plane, b) in map.as_mut_slice().chunks_mut(oh * ow).zip(&bias) {
            for v in plane {
                *v += b;
            }
        }
        map
    };
    let want = bits(conv());
    assert!(
        bits(reference(true)) == want && bits(reference(false)) == want,
        "[{c},{side},{side}] stride {stride}: the three forms differ"
    );
    let calls = (2e6 / (oh * ow * geo.patch_len() * 8) as f64).clamp(1.0, 2_000.0) as usize;
    time_alternating(
        calls,
        [
            &mut || reference(true),
            &mut || reference(false),
            &mut || conv(),
        ],
    )
}
