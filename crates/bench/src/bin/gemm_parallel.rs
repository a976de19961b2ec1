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
//! asserts its own floor so the CI bench-smoke job enforces it: on no
//! serving shape is the packed kernel more than 10% slower than the
//! reference loop.

use onesa_bench::time_best;
use onesa_tensor::gemm;
use onesa_tensor::parallel::{self, Parallelism};
use onesa_tensor::rng::Pcg32;
use std::hint::black_box;

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

/// Best seconds per call of `f` and of `g`, each sample timing `calls`
/// back-to-back calls (so sub-microsecond kernels are not lost in timer
/// resolution) and the two sides alternating sample by sample (so a
/// noisy stretch of the host lands on both, not on one side of a ratio).
fn time_pair<T, U>(calls: usize, mut f: impl FnMut() -> T, mut g: impl FnMut() -> U) -> (f64, f64) {
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..15 {
        let (_, s) = time_best(1, || (0..calls).for_each(|_| drop(black_box(f()))));
        best_f = best_f.min(s / calls as f64);
        let (_, s) = time_best(1, || (0..calls).for_each(|_| drop(black_box(g()))));
        best_g = best_g.min(s / calls as f64);
    }
    (best_f, best_g)
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
        // ~1 ms of work per sample whatever the shape.
        let calls = ((2e7 / flop) as usize).clamp(1, 20_000);
        let (reference, packed) = time_pair(
            calls,
            || gemm::matmul(&a, &b).expect("matmul"),
            || parallel::matmul(&a, &b, Parallelism::Sequential).expect("matmul"),
        );
        let ratio = packed / reference;
        assert!(
            ratio <= 1.10,
            "{m}x{k}x{n}: packed kernel {ratio:.2}x the reference loop's time, limit 1.10"
        );
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
    println!("  ]");
    println!("}}");
}
