//! Integration suite for the cross-host serving backend
//! (`onesa_core::net` + `ShardBackend::Process`).
//!
//! Every shard here is a real spawned `onesa-shard-worker` process
//! talking the length-prefixed wire protocol over a Unix or TCP socket.
//! The suite locks in the cross-host contracts:
//!
//! 1. **Bit-identicality across the wire** — for every admission policy
//!    × routing policy, a multi-process pool returns outputs
//!    bit-identical to the in-process pool (and hence to the solo
//!    reference kernels). f32 payloads travel as raw bits, so NaN
//!    payloads and signed zeros survive too.
//! 2. **Weight-cache protocol** — a constant crosses the wire once per
//!    (shard, key); every later program that uses it — at any input
//!    shape — names it by key, observable in
//!    [`ServeSummary::wire_cache`]. A window that fails teaches the cache
//!    nothing.
//! 3. **Fault tolerance** — killing a worker process mid-run loses no
//!    ticket: its windows re-execute on surviving shards (execution is
//!    pure, so the retry is safe), outputs stay bit-identical, and the
//!    summary records the failover.
//! 4. **Backpressure over sockets** — the bounded submission queue
//!    behaves exactly as in-process: `try_submit` hands the request
//!    back at capacity and nothing is lost.
//!
//! Determinism: batch-composition-sensitive tests start paused,
//! pre-load the queue, then resume (same discipline as
//! `integration_serving.rs`). The worker binary path comes from Cargo
//! (`CARGO_BIN_EXE_onesa-shard-worker`), so `cargo test` builds it
//! automatically.

use std::path::PathBuf;

use onesa_core::net::{WindowReply, WorkerHandle};
use onesa_core::plan::{Compile, TableCache};
use onesa_core::serve::{
    AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, ShardBackend, Ticket, TrySubmitError,
};
use onesa_core::{Parallelism, ProcessConfig, Request, Transport, WeightCacheStats};
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::SmallCnn;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::{gemm, Tensor};

fn assert_bits_eq(label: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.dims(), want.dims(), "{label}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: element {i} differs ({g} vs {w})"
        );
    }
}

/// A process backend pointed at the worker binary Cargo built for this
/// test run (no PATH / sibling-directory guessing).
fn process_backend(transport: Transport) -> ShardBackend {
    let mut cfg = ProcessConfig::new(transport);
    cfg.worker = Some(PathBuf::from(env!("CARGO_BIN_EXE_onesa-shard-worker")));
    ShardBackend::Process(cfg)
}

/// A mixed queue exercising all three request constructors — GEMMs over shared
/// weights, nonlinears (with a NaN and a -0.0 in one payload to prove
/// bit-transparency of the wire), and compiled CNN programs submitted
/// repeatedly so the weight cache has something to elide.
fn mixed_requests(seed: u64) -> (Vec<Request>, Vec<Tensor>) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let tables = TableSet::for_granularity(0.25).unwrap();
    let weights: Vec<Tensor> = (0..2).map(|_| rng.randn(&[16, 6], 1.0)).collect();
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for i in 0..6 {
        let a = rng.randn(&[1 + i % 4, 16], 1.0);
        let w = &weights[i % 2];
        expected.push(gemm::matmul(&a, w).unwrap());
        requests.push(Request::gemm(a, w.clone()));
    }
    for i in 0..4 {
        let mut x = rng.randn(&[2, 5], 1.5);
        if i == 0 {
            // Bit-transparency probes: Gelu tables clamp out-of-range
            // inputs, but the wire must deliver these bits unmangled.
            let v = x.as_mut_slice();
            v[0] = -0.0;
            v[1] = f32::MIN_POSITIVE / 2.0; // subnormal
        }
        let func = if i % 2 == 0 {
            NonlinearFn::Gelu
        } else {
            NonlinearFn::Tanh
        };
        expected.push(tables.table(func).unwrap().eval_tensor(&x).unwrap());
        requests.push(Request::nonlinear(func, x));
    }
    let cnn = SmallCnn::new(7, 1, 3);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let program = cnn.compile((&mode, (8, 8))).unwrap();
    let mut table_cache = TableCache::new();
    for _ in 0..4 {
        let x = rng.randn(&[1, 8, 8], 1.0);
        let solo = program
            .run(
                std::slice::from_ref(&x),
                Parallelism::Sequential,
                &mut table_cache,
            )
            .unwrap();
        expected.push(solo.output);
        requests.push(Request::program(program.clone(), vec![x]));
    }
    (requests, expected)
}

/// Runs one paused-preload-resume session against a pool and returns
/// outputs by ticket order plus the summary.
fn run_pool(
    config: ServeConfig,
    requests: Vec<Request>,
) -> (Vec<Tensor>, onesa_core::ServeSummary) {
    let pool = ServeEngine::start(config).unwrap();
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|r| pool.submit(r).unwrap())
        .collect();
    pool.resume();
    let outputs = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().output)
        .collect();
    (outputs, pool.finish().unwrap())
}

/// Holds a 24-request mix — 12 GEMMs over two shared weights, 6
/// nonlinears over two functions, 6 submissions of one compiled CNN — on
/// a 2-shard round-robin `Fifo{8}` pool to its pinned numbers. The
/// modeled makespan is pinned absolutely, hence `to_bits()`-equal across
/// every backend this runs on: the wire moves bits, not math. `cache` is
/// the `(full, ref, bytes saved)` split of constant sends: round-robin
/// hands each shard one GEMM weight and the CNN, so a socket backend
/// ships each of those weights once per shard and names it by key after.
fn assert_pinned_mix(backend: ShardBackend, cache: (usize, usize, u64)) {
    let mut rng = Pcg32::seed_from_u64(2027);
    let weights = [64, 96].map(|n| rng.randn(&[128, n], 1.0));
    let mut requests = Vec::new();
    for i in 0..12 {
        let a = rng.randn(&[8 + (i % 4) * 8, 128], 1.0);
        requests.push(Request::gemm(a, weights[i % 2].clone()));
    }
    for i in 0..6 {
        let func = [NonlinearFn::Gelu, NonlinearFn::Sigmoid][i % 2];
        requests.push(Request::nonlinear(func, rng.randn(&[16, 32], 1.5)));
    }
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let program = SmallCnn::new(7, 1, 4).compile((&mode, (8, 8))).unwrap();
    for _ in 0..6 {
        let x = rng.randn(&[1, 8, 8], 1.0);
        requests.push(Request::program(program.clone(), vec![x]));
    }
    let config = ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
        .with_admission(AdmissionPolicy::Fifo { window: 8 })
        .with_routing(RoutePolicy::RoundRobin)
        .start_paused()
        .with_backend(backend);
    let (_, summary) = run_pool(config, requests);
    assert_eq!(summary.report.requests, 24);
    assert_eq!(summary.report.batched_seconds, 3.4655e-5);
    let c = summary.wire_cache;
    assert_eq!((c.full_sends, c.ref_sends, c.const_bytes_saved), cache);
}

#[test]
fn process_pool_bit_identical_for_every_admission_and_routing() {
    let routings = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastLoaded,
        RoutePolicy::WeightAffinity,
    ];
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let cnn = SmallCnn::new(7, 1, 3).compile((&mode, (8, 8))).unwrap();
    let cnn = cnn.consts().len();
    let admissions = [
        AdmissionPolicy::Fifo { window: 4 },
        AdmissionPolicy::Deadline {
            window: 4,
            drop_expired: false,
        },
        AdmissionPolicy::SizeCapped { max_macs: 20_000 },
    ];
    for routing in routings {
        for admission in admissions {
            let (requests, expected) = mixed_requests(23);
            let base = ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(admission)
                .with_routing(routing)
                .start_paused();
            let (in_proc, local) = run_pool(base.clone(), requests.clone());
            let (remote, summary) = run_pool(
                base.with_backend(process_backend(Transport::Unix)),
                requests,
            );
            for (i, want) in expected.iter().enumerate() {
                let label = format!("{routing:?}/{admission:?} request {i}");
                assert_bits_eq(&format!("in-process {label}"), &in_proc[i], want);
                assert_bits_eq(&format!("cross-host {label}"), &remote[i], want);
            }
            assert_eq!(summary.failovers, 0, "{routing:?}/{admission:?}");
            // The array model cannot see the process boundary. (Least-
            // loaded routes on live shard load, which follows host
            // timing once a backlog spans several windows.)
            if !matches!(routing, RoutePolicy::LeastLoaded) {
                assert_eq!(
                    summary.report.batched_seconds.to_bits(),
                    local.report.batched_seconds.to_bits(),
                    "{routing:?}/{admission:?}: modeled makespan"
                );
            }
            // The 14 requests name 6 + 4 · cnn constants between them,
            // of 2 + cnn distinct weights (two GEMM weights, the CNN's):
            // each of the two shards ships a weight at most once, and
            // every repeat names it by key.
            let cache = summary.wire_cache;
            assert!(
                cache.full_sends <= 2 * (2 + cnn),
                "{routing:?}/{admission:?}: {} full sends",
                cache.full_sends
            );
            assert_eq!(cache.full_sends + cache.ref_sends, 6 + 4 * cnn);
            assert!(cache.const_bytes_saved > 0);
        }
    }
    assert_pinned_mix(ShardBackend::InProcess, (0, 0, 0));
    assert_pinned_mix(process_backend(Transport::Unix), (10, 26, 429_696));
}

/// Regression: `[2, 6] · W` and `[5, 6] · W` are two programs over one
/// weight. Each must be served at its own shapes — not fail as a shape
/// mismatch against the other — and `W` must have crossed the wire once.
/// Bare GEMMs lower to exactly such programs, at whatever row count each
/// carries.
#[test]
fn one_cached_weight_serves_every_row_count() {
    use onesa_core::plan::{EvalMode, Op, Program};
    let mut rng = Pcg32::seed_from_u64(61);
    let w = rng.randn(&[6, 4], 1.0);
    let program = |rows: usize| {
        let mut b = Program::builder("rows", EvalMode::Exact);
        let x = b.input(&[rows, 6]);
        let c = b.constant(w.clone());
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, c],
        );
        b.finish().unwrap()
    };
    assert_eq!(program(2).fingerprint(), program(5).fingerprint());

    let pool = ServeEngine::start(
        ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_backend(process_backend(Transport::Unix)),
    )
    .unwrap();
    // One window each, so the second request meets a worker holding `W`.
    for (i, rows) in [2usize, 5, 3, 5].into_iter().enumerate() {
        let a = rng.randn(&[rows, 6], 1.0);
        let want = gemm::matmul(&a, &w).unwrap();
        let request = if i < 2 {
            Request::program(program(rows), vec![a])
        } else {
            Request::gemm(a, w.clone())
        };
        let served = pool.submit(request).unwrap().wait().unwrap();
        assert_bits_eq(&format!("rows {rows}"), &served.output, &want);
    }
    let summary = pool.finish().unwrap();
    let cache = summary.wire_cache;
    assert_eq!((cache.full_sends, cache.ref_sends), (1, 3));
    assert_eq!(cache.const_bytes_saved, 3 * 6 * 4 * 4);
}

/// Regression: a window that fails on the host before it is sent — one
/// of its requests does not lower — teaches the weight cache nothing.
/// The weight it would have shipped ships with the next window, instead
/// of as a key the worker never received.
#[test]
fn a_window_that_fails_before_sending_ships_nothing_to_the_cache() {
    let worker = PathBuf::from(env!("CARGO_BIN_EXE_onesa-shard-worker"));
    let cfg = ArrayConfig::new(8, 16);
    let par = Parallelism::Sequential;
    let mut handle = WorkerHandle::spawn(0, Transport::Unix, Some(&worker), &cfg, par, 0.25)
        .expect("worker spawns");
    let mut rng = Pcg32::seed_from_u64(71);
    let (a, w) = (rng.randn(&[2, 4], 1.0), rng.randn(&[4, 3], 1.0));
    let good = Request::gemm(a.clone(), w.clone());
    // Inner dimensions disagree: the request does not lower.
    let bad = Request::gemm(rng.randn(&[2, 5], 1.0), w.clone());

    let reply = handle.run_window(&[(0, &good), (1, &bad)]).unwrap();
    assert!(matches!(reply, WindowReply::Failed(_)), "{reply:?}");
    let untouched = handle.cache;
    match handle.run_window(&[(2, &good)]).unwrap() {
        WindowReply::Done(run) => {
            let want = gemm::matmul(&a, &w).unwrap();
            assert_bits_eq("the retried GEMM", &run.outcomes[0].output, &want);
        }
        WindowReply::Failed(e) => panic!("the retried window failed: {e}"),
    }
    assert_eq!(untouched, WeightCacheStats::default());
    assert_eq!((handle.cache.full_sends, handle.cache.ref_sends), (1, 0));
    handle.shutdown();
}

#[test]
fn tcp_transport_matches_unix_transport() {
    let (requests, expected) = mixed_requests(31);
    let base = ServeConfig::uniform(2, ArrayConfig::new(4, 16), Parallelism::Sequential)
        .with_admission(AdmissionPolicy::Fifo { window: 3 })
        .start_paused();
    let (tcp, summary) = run_pool(base.with_backend(process_backend(Transport::Tcp)), requests);
    for (i, want) in expected.iter().enumerate() {
        assert_bits_eq(&format!("tcp request {i}"), &tcp[i], want);
    }
    assert_eq!(summary.report.requests, expected.len());
    assert_eq!(summary.failovers, 0);
    assert_pinned_mix(process_backend(Transport::Tcp), (10, 26, 429_696));
}

#[test]
fn killed_worker_loses_no_tickets_and_records_the_failover() {
    let (requests, expected) = mixed_requests(47);
    let pool = ServeEngine::start(
        ServeConfig::uniform(3, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 3 })
            .with_routing(RoutePolicy::RoundRobin)
            .start_paused()
            .with_backend(process_backend(Transport::Unix)),
    )
    .unwrap();
    let pids = pool.worker_pids().to_vec();
    assert_eq!(pids.len(), 3);
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|r| pool.submit(r).unwrap())
        .collect();
    // SIGKILL shard 0's worker while the whole backlog is still queued:
    // round-robin guarantees shard 0 owns windows it can no longer run,
    // so the failover path must re-execute them on shards 1/2.
    let killed = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {}", pids[0]);
    pool.resume();
    for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
        let served = ticket.wait().unwrap();
        assert!(served.shard != 0, "request {i} served by the dead shard");
        assert_bits_eq(&format!("failover request {i}"), &served.output, want);
    }
    let summary = pool.finish().unwrap();
    assert_eq!(summary.report.requests, expected.len());
    assert_eq!(summary.failovers, 1, "exactly shard 0 lost its worker");
    let requeued: usize = summary.shards.iter().map(|s| s.requeued).sum();
    assert!(requeued > 0, "shard 0's windows must re-run elsewhere");
}

#[test]
fn backpressure_applies_across_the_process_boundary() {
    let mut rng = Pcg32::seed_from_u64(5);
    let pool = ServeEngine::start(
        ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_queue_capacity(4)
            .start_paused()
            .with_backend(process_backend(Transport::Unix)),
    )
    .unwrap();
    let w = rng.randn(&[8, 4], 1.0);
    let mut tickets = Vec::new();
    let mut expected = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..32 {
        let a = rng.randn(&[2, 8], 1.0);
        let want = gemm::matmul(&a, &w).unwrap();
        match pool.try_submit(Request::gemm(a, w.clone())) {
            Ok(t) => {
                tickets.push(t);
                expected.push(want);
            }
            Err(TrySubmitError::Full(_)) => rejected += 1,
            Err(TrySubmitError::Closed(_)) => panic!("queue closed while engine lives"),
        }
    }
    assert!(
        rejected > 0,
        "a 4-slot paused queue must reject submissions"
    );
    assert!(!tickets.is_empty());
    pool.resume();
    for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
        let served = ticket.wait().unwrap();
        assert_bits_eq(&format!("backpressure request {i}"), &served.output, want);
    }
    let _ = pool.finish().unwrap();
}
