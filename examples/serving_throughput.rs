//! Serving throughput: the parallel backend and the batched engine.
//!
//! ```sh
//! cargo run --release --example serving_throughput
//! ```
//!
//! Part 1 measures host GEMM throughput on a 512×512×512 matmul: the
//! unpacked reference loop (`gemm::matmul`), then the one packed kernel
//! under each [`Parallelism`] policy, and reports the speedup of
//! `Threads(4)` over `Sequential` (the same kernel on one thread). Results
//! are bit-identical to the reference under every policy — only the wall
//! clock changes.
//!
//! Part 2 pushes a queue of mixed GEMM/nonlinear requests through a
//! [`BatchEngine`] and prints its [`ServingReport`]: wall throughput,
//! the array cycles saved by coalescing, and latency percentiles.

use onesa_bench::time_best;
use onesa_core::{BatchEngine, OneSa, Parallelism, Request};
use onesa_cpwl::NonlinearFn;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, parallel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, k, n) = (512, 512, 512);
    let mut rng = Pcg32::seed_from_u64(42);
    let a = rng.randn(&[m, k], 1.0);
    let b = rng.randn(&[k, n], 1.0);
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;

    println!("== GEMM {m}x{k}x{n} on the host backend ==");
    let (reference, ref_s) = time_best(5, || gemm::matmul(&a, &b).expect("shapes fit"));
    println!(
        "{:<12} {:8.1} ms   {:6.2} GFLOP/s",
        "reference",
        ref_s * 1e3,
        gflop / ref_s
    );
    let (mut seq_s, mut threads4_s) = (ref_s, ref_s);
    for par in [
        Parallelism::Sequential,
        Parallelism::Threads(1),
        Parallelism::Threads(2),
        Parallelism::Threads(4),
        Parallelism::Auto,
    ] {
        let (out, s) = time_best(5, || parallel::matmul(&a, &b, par).expect("shapes fit"));
        assert!(
            out.as_slice()
                .iter()
                .zip(reference.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "packed result must be bit-identical to the reference loop"
        );
        match par {
            Parallelism::Sequential => seq_s = s,
            Parallelism::Threads(4) => threads4_s = s,
            _ => {}
        }
        println!(
            "{:<12} {:8.1} ms   {:6.2} GFLOP/s   ({:.2}x vs reference, bit-identical)",
            par.label(),
            s * 1e3,
            gflop / s,
            ref_s / s
        );
    }
    println!(
        "\nThreads(4) speedup vs Sequential: {:.2}x",
        seq_s / threads4_s
    );

    println!("\n== Batched serving on the 8x8, 16-MAC array ==");
    let engine = OneSa::with_parallelism(ArrayConfig::new(8, 16), Parallelism::Auto);
    let mut serving = BatchEngine::new(engine, 0.25)?;
    // A mixed queue: 24 activation batches against two shared weight
    // matrices, plus GELU/Sigmoid evaluations of varying size.
    let w1 = rng.randn(&[256, 128], 1.0);
    let w2 = rng.randn(&[256, 64], 1.0);
    for i in 0..24 {
        let rows = 8 + (i % 5) * 12;
        let w = if i % 3 == 0 { &w2 } else { &w1 };
        serving.submit(Request::gemm(rng.randn(&[rows, 256], 1.0), w.clone()));
    }
    for i in 0..8 {
        let func = if i % 2 == 0 {
            NonlinearFn::Gelu
        } else {
            NonlinearFn::Sigmoid
        };
        serving.submit(Request::nonlinear(func, rng.randn(&[16 + i * 8, 64], 1.5)));
    }
    println!("queued {} requests", serving.pending());
    let run = serving.run()?;
    println!("{}", run.report);
    Ok(())
}
