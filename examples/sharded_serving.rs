//! Sharded asynchronous serving: one workload, many simulated arrays.
//!
//! ```sh
//! cargo run --release --example sharded_serving
//! ```
//!
//! Part 1 pre-loads a mixed GEMM/nonlinear serving queue into a
//! [`ServeEngine`] pool of 1, 2 and 4 shards (each shard one simulated
//! 8×8, 16-MAC array with its own `BatchEngine`), opens the admission
//! gate, and compares:
//!
//! * **modeled throughput** — requests per simulated-array-second of the
//!   pool's makespan (the busiest shard; the arrays run concurrently).
//!   Deterministic, and the quantity
//!   `integration_serving::least_loaded_balances_and_sharding_cuts_makespan`
//!   pins: 4 shards must clear ≥1.5× the 1-shard pool (it lands near 4×).
//! * **host wall-clock** — machine-dependent; shard workers are real
//!   threads, so this follows core count (≈1× on a 1-core host).
//!
//! Every output is checked bit-identical to the single-shard sequential
//! reference before anything is reported.
//!
//! Part 2 serves real model inference through the pool: each `SmallCnn`
//! image is one ticket carrying the whole compiled network program. The
//! programs share one fingerprint, so weight-affinity routing lands them
//! on one shard, where every shared-weight stage — the three convolutions
//! and the classifier — coalesces into a single kernel call.

use onesa_core::plan::{Compile, OptLevel};
use onesa_core::serve::{AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, Ticket};
use onesa_core::{Parallelism, Request};
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::SmallCnn;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};
use std::time::Instant;

/// The serving mix: 36 GEMMs over three shared weight matrices plus 12
/// nonlinear evaluations over two functions.
fn build_mix() -> (Vec<Request>, Vec<Tensor>) {
    let mut rng = Pcg32::seed_from_u64(2026);
    let tables = TableSet::for_granularity(0.25).expect("paper granularity");
    let w1 = rng.randn(&[256, 128], 1.0);
    let w2 = rng.randn(&[256, 64], 1.0);
    let w3 = rng.randn(&[256, 96], 1.0);
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for i in 0..36 {
        let rows = 16 + (i % 5) * 16;
        let w = [&w1, &w2, &w3][i % 3];
        let a = rng.randn(&[rows, 256], 1.0);
        expected.push(gemm::matmul(&a, w).expect("mix shapes agree"));
        requests.push(Request::gemm(a, w.clone()));
    }
    for i in 0..12 {
        let func = if i % 2 == 0 {
            NonlinearFn::Gelu
        } else {
            NonlinearFn::Sigmoid
        };
        let x = rng.randn(&[32 + (i % 4) * 16, 64], 1.5);
        expected.push(
            tables
                .table(func)
                .expect("standard set")
                .eval_tensor(&x)
                .expect("shape preserved"),
        );
        requests.push(Request::nonlinear(func, x));
    }
    (requests, expected)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (requests, expected) = build_mix();
    let n_requests = requests.len();
    println!("== Serving {n_requests} mixed requests across 1 / 2 / 4 simulated arrays ==");
    println!(
        "{:<7} {:>9} {:>9} {:>12} {:>12} {:>8}",
        "shards", "wall ms", "wall rps", "makespan ms", "modeled rps", "windows"
    );

    let mut makespans = Vec::new();
    let mut walls = Vec::new();
    for shards in [1usize, 2, 4] {
        // Pre-load the queue while the admission gate is closed, then
        // open it: one deterministic batching window, clean timing.
        let pool = ServeEngine::start(
            ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Threads(1))
                .with_admission(AdmissionPolicy::Fifo { window: 64 })
                .with_routing(RoutePolicy::LeastLoaded)
                .start_paused(),
        )?;
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| pool.submit(r.clone()).expect("queue open"))
            .collect();
        let t0 = Instant::now();
        pool.resume();
        for (ticket, want) in tickets.into_iter().zip(&expected) {
            let served = ticket.wait().expect("request served");
            assert!(
                served
                    .output
                    .as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "sharded result must be bit-identical to the sequential reference"
            );
        }
        let summary = pool.finish().expect("pool drains cleanly");
        let wall = t0.elapsed().as_secs_f64();
        let makespan = summary.report.batched_seconds;
        println!(
            "{:<7} {:>9.2} {:>9.0} {:>12.3} {:>12.0} {:>8}",
            shards,
            wall * 1e3,
            n_requests as f64 / wall,
            makespan * 1e3,
            n_requests as f64 / makespan,
            summary.windows
        );
        for s in &summary.shards {
            println!(
                "        shard {}: {:>2} req, {:>2} batches, {:.3} ms array, occupancy {:.0}%",
                s.shard,
                s.requests,
                s.batches,
                s.array_seconds * 1e3,
                s.occupancy * 100.0
            );
        }
        makespans.push(makespan);
        walls.push(wall);
    }

    let modeled_speedup = makespans[0] / makespans[2];
    let wall_speedup = walls[0] / walls[2];
    println!(
        "\n4 shards vs 1: modeled serving throughput {modeled_speedup:.2}x \
         (deterministic), host wall {wall_speedup:.2}x (machine-dependent)"
    );
    assert!(
        modeled_speedup >= 1.5,
        "sharding must lift modeled serving throughput by >=1.5x at 4 shards \
         (got {modeled_speedup:.2}x)"
    );

    println!("\n== Model batch inference through the pool ==");
    // Serve a batch of SmallCnn images through a 4-shard pool, one
    // compiled whole-network program per image.
    let mode = InferenceMode::cpwl(0.25)?;
    let cnn = SmallCnn::new(7, 2, 4);
    let program = cnn.compile_optimized((&mode, (8, 8)), OptLevel::default())?;
    let mut rng = Pcg32::seed_from_u64(77);
    let images: Vec<Tensor> = (0..8).map(|_| rng.randn(&[2, 8, 8], 1.0)).collect();
    let pool = ServeEngine::start(
        ServeConfig::uniform(4, ArrayConfig::new(8, 16), Parallelism::Threads(1))
            .with_routing(RoutePolicy::WeightAffinity)
            .start_paused(),
    )?;
    let tickets: Vec<Ticket> = images
        .iter()
        .map(|x| {
            pool.submit_program(program.clone(), vec![x.clone()])
                .expect("queue open")
        })
        .collect();
    pool.resume();
    for (x, ticket) in images.iter().zip(tickets) {
        assert_eq!(
            ticket.wait().expect("program served").output.into_vec(),
            cnn.logits(x, &mode),
            "pool-served logits must be bit-identical to per-sample inference"
        );
    }
    let summary = pool.finish().expect("pool drains cleanly");
    println!(
        "{} images -> {} GEMM kernel calls (three convolutions and the classifier, \
         each coalesced across the batch under weight-affinity routing); logits \
         bit-identical to per-sample inference",
        images.len(),
        summary.report.gemm_groups
    );
    Ok(())
}
