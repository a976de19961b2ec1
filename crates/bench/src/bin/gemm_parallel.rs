//! Emits the `BENCH_gemm_parallel.json` perf baseline: the packed host
//! GEMM on one thread and on four, against the reference loop, at three
//! square sizes and on the shapes serving traffic actually issues.
//!
//! ```sh
//! cargo run --release -q -p onesa-bench --bin gemm_parallel > BENCH_gemm_parallel.json
//! ```
//!
//! The committed copy at the repository root records the trajectory later
//! performance PRs must beat. Wall-clock numbers are machine-dependent;
//! the ratios are the stable quantity: `speedup_threads4` (one thread vs
//! four), `speedup_packed` (`gemm::matmul` vs
//! `parallel::matmul(Sequential)`) and, per serving shape,
//! `packed_over_reference` (a time ratio, lower is better). The bin
//! asserts its own floors so the CI bench-smoke job enforces them: on no
//! serving shape is the packed kernel more than 10% slower than the
//! reference loop — and that includes the `zero_fraction` rows, which run
//! the CNN's and the GCN's products on the left operands traffic really
//! has (a ReLU-masked activation map, about half exact zeros; the GCN's
//! normalized adjacency `Â`, about 95%, packed once as the program
//! constant it is). Zeros in `A` must cost nothing: the masked operand
//! runs within 10% of the dense one, and `Â` in at most 0.35× the dense
//! time and half the reference loop's.

use onesa_bench::{time_alternating, time_best};
use onesa_data::{Difficulty, GraphDataset};
use onesa_tensor::gemm;
use onesa_tensor::parallel::{self, PackedLhs, Parallelism};
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
/// dense)` best seconds per call — the reference loop and the packed
/// kernel on `a`, and the packed kernel on `dense`, a zero-free activation
/// of the same shape — ~1 ms of work per sample whatever the shape.
/// `constant` says how traffic meets `a`: an activation is packed by every
/// call (`parallel::matmul`), a program constant once, outside the timed
/// region (`parallel::matmul_packed`, as `onesa-plan` runs it). Asserts
/// the floor every row of this file is held to.
fn time_shape(a: &Tensor, dense: &Tensor, b: &Tensor, what: &str, constant: bool) -> [f64; 3] {
    let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
    let calls = ((1e7 / (m * k * n) as f64) as usize).clamp(1, 20_000);
    let once = constant.then(|| PackedLhs::pack(a).expect("matrix"));
    let packed = |a: &Tensor| parallel::matmul(a, b, Parallelism::Sequential).expect("matmul");
    let times = time_alternating(
        calls,
        [
            &mut || gemm::matmul(a, b).expect("matmul"),
            &mut || match &once {
                Some(a) => parallel::matmul_packed(a, b, Parallelism::Sequential).expect("matmul"),
                None => packed(a),
            },
            &mut || packed(dense),
        ],
    );
    let ratio = times[1] / times[0];
    assert!(
        ratio <= 1.10,
        "{m}x{k}x{n} {what}: packed kernel {ratio:.2}x the reference loop's time, limit 1.10"
    );
    times
}

fn main() {
    let mut rng = Pcg32::seed_from_u64(2024);
    let sizes = [128usize, 256, 512];
    println!("{{");
    println!("  \"bench\": \"gemm_parallel\",");
    println!("  \"kernel\": \"onesa_tensor::parallel::matmul\",");
    println!("  \"host_workers\": {},", Parallelism::Auto.worker_count());
    println!("  \"sizes\": [");
    for (idx, &d) in sizes.iter().enumerate() {
        let a = rng.randn(&[d, d], 1.0);
        let b = rng.randn(&[d, d], 1.0);
        let gflop = 2.0 * (d * d * d) as f64 / 1e9;
        let (_, reference) = time_best(5, || gemm::matmul(&a, &b).expect("square matmul"));
        let (_, seq) = time_best(5, || {
            parallel::matmul(&a, &b, Parallelism::Sequential).expect("square matmul")
        });
        let (_, thr) = time_best(5, || {
            parallel::matmul(&a, &b, Parallelism::Threads(4)).expect("square matmul")
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
        println!(
            "      \"threads4_ms\": {:.3}, \"threads4_gflops\": {:.2},",
            thr * 1e3,
            gflop / thr
        );
        println!("      \"speedup_packed\": {:.2},", reference / seq);
        println!("      \"speedup_threads4\": {:.2}", seq / thr);
        println!("    }}{}", if idx + 1 < sizes.len() { "," } else { "" });
    }
    println!("  ],");
    println!("  \"serving_shapes\": [");
    let shapes = serving_shapes();
    for (idx, &(m, k, n)) in shapes.iter().enumerate() {
        let a = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let flop = 2.0 * (m * k * n) as f64;
        let [reference, packed, _] = time_shape(&a, &a, &b, "dense", false);
        let ratio = packed / reference;
        println!("    {{");
        println!("      \"m\": {m}, \"k\": {k}, \"n\": {n},");
        println!(
            "      \"reference_us\": {:.2}, \"packed_us\": {:.2},",
            reference * 1e6,
            packed * 1e6
        );
        println!(
            "      \"packed_gflops\": {:.2}, \"packed_over_reference\": {:.2}",
            flop / packed / 1e9,
            ratio
        );
        println!("    }}{}", if idx + 1 < shapes.len() { "," } else { "" });
    }
    println!("  ],");
    // The same kernel on the left operands traffic has: the CNN's two
    // im2col products after a ReLU (activations, packed per call), the
    // GCN's `Â·XW` on the benchmark's own graph (`Â` is a program
    // constant, packed once). `packed_over_dense` is against the dense
    // activation of the same shape, timed sample by sample beside it.
    println!("  \"zero_fraction\": [");
    let a_hat = GraphDataset::generate("bench", 1, Difficulty::medium(7), 420, 32, 0.16).a_hat;
    let cases = [
        (1024, 72, 16, None),
        (256, 144, 16, None),
        (420, 420, 64, Some(a_hat)),
    ];
    for (idx, (m, k, n, sparse)) in cases.into_iter().enumerate() {
        let dense = rng.randn(&[m, k], 1.0);
        let b = rng.randn(&[k, n], 1.0);
        let mut operands = vec![
            ("dense", dense.clone()),
            ("relu_masked", dense.map(|v| v.max(0.0))),
        ];
        operands.extend(sparse.map(|a| ("a_hat", a)));
        for (which, (label, a)) in operands.iter().enumerate() {
            let zeros = a.as_slice().iter().filter(|v| **v == 0.0).count();
            let constant = *label == "a_hat";
            let [reference, packed, dense_packed] = time_shape(a, &dense, &b, label, constant);
            let over_dense = packed / dense_packed;
            match *label {
                "relu_masked" => assert!(
                    over_dense <= 1.10,
                    "{m}x{k}x{n}: a ReLU-masked A runs {over_dense:.2}x the dense time, limit 1.10"
                ),
                "a_hat" => assert!(
                    over_dense <= 0.35 && packed / reference <= 0.5,
                    "{m}x{k}x{n}: A-hat runs {over_dense:.2}x the dense time (limit 0.35), {:.2}x the reference loop's (limit 0.5)",
                    packed / reference
                ),
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
                "      \"packed_over_reference\": {:.2}, \"packed_over_dense\": {:.2}",
                packed / reference,
                over_dense
            );
            let last = idx == 2 && which + 1 == operands.len();
            println!("    }}{}", if last { "" } else { "," });
        }
    }
    println!("  ]");
    println!("}}");
}
