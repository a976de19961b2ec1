//! Cross-host serving: the shard pool as worker *processes* behind the
//! wire protocol, instead of threads in this process.
//!
//! ```sh
//! cargo build --release            # builds the onesa-shard-worker binary
//! cargo run --release --example cross_host_serving
//! ```
//!
//! Part 1 serves one mixed queue — GEMMs, nonlinears and repeated
//! compiled-CNN programs — three times through identical 2-shard pools:
//! in-process threads, spawned worker processes over Unix-domain
//! sockets, and worker processes over TCP. Every output is checked
//! bit-identical across the three backends (the wire moves raw `f32`
//! bits, so this is exact, not approximate), and the weight-cache
//! stats show each weight — a GEMM's, each of the CNN's constants —
//! crossing each socket **once** while every later request names it by
//! key.
//!
//! Part 2 is a live failover: a 3-shard process pool is loaded while
//! paused, one worker is SIGKILLed, and the gate opens. The dead
//! shard's windows re-execute on the survivors (execution is pure, so
//! the retry is safe), every ticket still resolves bit-identically,
//! and the summary records the failover.

use onesa_core::plan::Compile;
use onesa_core::serve::{
    AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, ShardBackend, Ticket,
};
use onesa_core::{default_worker_path, Parallelism, ProcessConfig, Request, Transport};
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::SmallCnn;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};
use std::time::Instant;

/// The serving mix: shared-weight GEMMs, two nonlinears, and four
/// submissions of one compiled CNN program (so the weight cache has
/// repeated weights to elide).
fn build_mix() -> (Vec<Request>, usize) {
    let mut rng = Pcg32::seed_from_u64(2026);
    let w1 = rng.randn(&[128, 64], 1.0);
    let w2 = rng.randn(&[128, 96], 1.0);
    let mut requests = Vec::new();
    for i in 0..12 {
        let a = rng.randn(&[8 + (i % 4) * 8, 128], 1.0);
        requests.push(Request::gemm(a, [&w1, &w2][i % 2].clone()));
    }
    for i in 0..6 {
        let func = if i % 2 == 0 {
            NonlinearFn::Gelu
        } else {
            NonlinearFn::Tanh
        };
        requests.push(Request::nonlinear(func, rng.randn(&[16, 32], 1.5)));
    }
    let cnn = SmallCnn::new(7, 1, 4);
    let mode = InferenceMode::cpwl(0.25).expect("paper granularity");
    let program = cnn.compile((&mode, (8, 8))).expect("CNN compiles");
    let program_bytes: usize = program
        .consts()
        .iter()
        .map(|c| 4 * c.as_slice().len())
        .sum();
    for _ in 0..4 {
        let x = rng.randn(&[1, 8, 8], 1.0);
        requests.push(Request::program(program.clone(), vec![x]));
    }
    (requests, program_bytes)
}

/// One pool lifetime (paused pre-load → resume → wait → finish);
/// returns outputs in submission order, the summary, and the
/// resume→finish wall time.
fn serve_once(
    backend: ShardBackend,
    shards: usize,
    requests: &[Request],
) -> (Vec<Tensor>, onesa_core::ServeSummary, f64) {
    let pool = ServeEngine::start(
        ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 8 })
            .with_routing(RoutePolicy::RoundRobin)
            .start_paused()
            .with_backend(backend),
    )
    .expect("pool starts");
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| pool.submit(r.clone()).expect("queue open"))
        .collect();
    let t0 = Instant::now();
    pool.resume();
    let outputs: Vec<Tensor> = tickets
        .into_iter()
        .map(|t| t.wait().expect("request served").output)
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    (outputs, pool.finish().expect("pool drains"), wall)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let Some(worker) = default_worker_path() else {
        eprintln!(
            "onesa-shard-worker binary not found next to this example; \
             run `cargo build --release` first (or set ONESA_SHARD_WORKER)"
        );
        return Ok(());
    };
    println!(
        "== Same pool, three shard backends (worker: {}) ==",
        worker.display()
    );
    let (requests, program_bytes) = build_mix();
    let n = requests.len();

    let backends = [
        ("in-process", ShardBackend::InProcess),
        (
            "unix socket",
            ShardBackend::Process(ProcessConfig::new(Transport::Unix)),
        ),
        (
            "tcp socket",
            ShardBackend::Process(ProcessConfig::new(Transport::Tcp)),
        ),
    ];
    let mut reference: Option<Vec<Tensor>> = None;
    println!(
        "{:<12} {:>9} {:>12} {:>11} {:>11} {:>10}",
        "backend", "wall ms", "makespan ms", "const sends", "const refs", "cache hit"
    );
    for (name, backend) in backends {
        let (outputs, summary, wall) = serve_once(backend, 2, &requests);
        match &reference {
            None => reference = Some(outputs),
            Some(want) => {
                for (i, (got, want)) in outputs.iter().zip(want).enumerate() {
                    assert!(
                        got.as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .all(|(g, w)| g.to_bits() == w.to_bits()),
                        "{name}: request {i} differs from the in-process reference"
                    );
                }
            }
        }
        let cache = summary.wire_cache;
        println!(
            "{:<12} {:>9.2} {:>12.3} {:>11} {:>11} {:>9.0}%",
            name,
            wall * 1e3,
            summary.report.batched_seconds * 1e3,
            cache.full_sends,
            cache.ref_sends,
            cache.hit_ratio() * 100.0
        );
        if cache.ref_sends > 0 {
            println!(
                "             ({} KiB of program constants crossed each socket once; \
                 {} KiB elided by the weight cache)",
                program_bytes / 1024,
                cache.const_bytes_saved / 1024
            );
        }
    }
    println!("all {n} requests bit-identical across the three backends");

    println!("\n== Failover: SIGKILL one of three workers mid-load ==");
    let pool = ServeEngine::start(
        ServeConfig::uniform(3, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 4 })
            .start_paused()
            .with_backend(ShardBackend::Process(ProcessConfig::new(Transport::Unix))),
    )?;
    let pids = pool.worker_pids().to_vec();
    let mut rng = Pcg32::seed_from_u64(9);
    let w = rng.randn(&[64, 32], 1.0);
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    for i in 0..12 {
        let a = rng.randn(&[4 + i % 3, 64], 1.0);
        expected.push(gemm::matmul(&a, &w)?);
        tickets.push(pool.submit(Request::gemm(a, w.clone()))?);
    }
    // A table lookup too, to show nonlinears fail over identically.
    let tables = TableSet::for_granularity(0.25)?;
    let x = rng.randn(&[8, 16], 1.5);
    expected.push(tables.table(NonlinearFn::Gelu).unwrap().eval_tensor(&x)?);
    tickets.push(pool.submit(Request::nonlinear(NonlinearFn::Gelu, x))?);

    println!("workers: {pids:?}; killing {}", pids[0]);
    std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()?;
    pool.resume();
    for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
        let served = ticket.wait().expect("ticket survives the worker kill");
        assert!(
            served
                .output
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "failover request {i} must stay bit-identical"
        );
    }
    let summary = pool.finish()?;
    let requeued: usize = summary.shards.iter().map(|s| s.requeued).sum();
    println!(
        "all {} tickets resolved bit-identically; failovers recorded: {}, \
         requests re-executed on survivors: {}",
        summary.report.requests, summary.failovers, requeued
    );
    assert_eq!(summary.failovers, 1);
    Ok(())
}
