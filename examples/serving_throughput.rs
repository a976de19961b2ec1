//! Serving throughput: the host kernel and the shard pool.
//!
//! ```sh
//! cargo run --release --example serving_throughput
//! ```
//!
//! Part 1 measures host GEMM throughput on a 512×512×512 matmul: the
//! unpacked reference loop (`gemm::matmul`), then the one packed kernel
//! on the calling thread. The result is bit-identical to the reference —
//! only the wall clock changes.
//!
//! Part 2 pushes one queue of mixed GEMM/nonlinear requests through a
//! [`ServeEngine`] pool of 1 shard and of 2 shards, three times each,
//! alternating, and reports the 2-shard pool's wall-clock speedup over
//! the 1-shard pool (best run of each) and its
//! [`ServingReport`](onesa_core::ServingReport): wall throughput, the
//! array cycles saved by coalescing, and latency percentiles. Shards are
//! the pool's only parallelism — every kernel runs on its shard's thread
//! — so the speedup follows the host's free cores (≈1× on one core).
//! Both pools serve bit-identical outputs.

use onesa_bench::time_best;
use onesa_core::serve::{AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, ServeSummary};
use onesa_core::{Parallelism, Request};
use onesa_cpwl::NonlinearFn;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, parallel, Tensor};
use std::time::Instant;

/// Serves `requests` through a paused pool of `shards` arrays, opened in
/// one motion; returns the outputs in submission order, the wall seconds
/// from opening the gate to the last reply, and the pool's summary.
fn serve(shards: usize, requests: &[Request]) -> (Vec<Tensor>, f64, ServeSummary) {
    let pool = ServeEngine::start(
        ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 8 })
            .with_routing(RoutePolicy::LeastLoaded)
            .start_paused(),
    )
    .expect("pool starts");
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| pool.submit(r.clone()).expect("queue open"))
        .collect();
    let t0 = Instant::now();
    pool.resume();
    let outputs = tickets
        .into_iter()
        .map(|t| t.wait().expect("request served").output)
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    (outputs, wall, pool.finish().expect("pool drains cleanly"))
}

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
    let (out, s) = time_best(5, || {
        parallel::matmul(&a, &b, Parallelism::Sequential).expect("shapes fit")
    });
    assert!(
        out.as_slice()
            .iter()
            .zip(reference.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "packed result must be bit-identical to the reference loop"
    );
    println!(
        "{:<12} {:8.1} ms   {:6.2} GFLOP/s   ({:.2}x vs reference, bit-identical)",
        "packed",
        s * 1e3,
        gflop / s,
        ref_s / s
    );

    println!("\n== Serving one mixed queue on 1 and 2 shards of the 8x8, 16-MAC array ==");
    // A mixed queue: 96 activation batches against two shared weight
    // matrices, plus GELU/Sigmoid evaluations of varying size.
    let w1 = rng.randn(&[256, 128], 1.0);
    let w2 = rng.randn(&[256, 64], 1.0);
    let mut requests = Vec::new();
    for i in 0..96 {
        let rows = 32 + (i % 5) * 32;
        let w = if i % 3 == 0 { &w2 } else { &w1 };
        requests.push(Request::gemm(rng.randn(&[rows, 256], 1.0), w.clone()));
    }
    for i in 0..8 {
        let func = if i % 2 == 0 {
            NonlinearFn::Gelu
        } else {
            NonlinearFn::Sigmoid
        };
        requests.push(Request::nonlinear(func, rng.randn(&[16 + i * 8, 64], 1.5)));
    }
    println!("queued {} requests", requests.len());
    // Alternating runs, best of three each: the first run also packs
    // the shared weights, which every later run reads.
    let (mut one_s, mut two_s) = (f64::INFINITY, f64::INFINITY);
    let mut summary = None;
    for _ in 0..3 {
        let (one, s1, _) = serve(1, &requests);
        let (two, s2, two_summary) = serve(2, &requests);
        assert!(
            one.iter().zip(&two).all(|(x, y)| x
                .as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())),
            "a 2-shard pool must serve the 1-shard pool's bits"
        );
        (one_s, two_s) = (one_s.min(s1), two_s.min(s2));
        summary = Some(two_summary);
    }
    let summary = summary.expect("three runs");
    println!(
        "1 shard {:.1} ms, 2 shards {:.1} ms: 2-shard speedup {:.2}x (host wall, bit-identical)",
        one_s * 1e3,
        two_s * 1e3,
        one_s / two_s
    );
    println!("{}", summary.report);
    Ok(())
}
