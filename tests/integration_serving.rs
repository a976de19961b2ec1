//! Integration suite for the asynchronous sharded serving layer
//! (`onesa_core::serve`).
//!
//! Locks in the three contracts the serving layer is allowed to promise:
//!
//! 1. **Bit-identicality** — for every shard count, admission policy and
//!    routing policy, each request's output is bit-identical to running
//!    it alone on one sequential array (the reference kernels).
//! 2. **Per-ticket ordering** — ticket ids follow submission order and
//!    every outcome answers exactly the ticket that asked for it; FIFO
//!    admission also dispatches in submission order, while the deadline
//!    policy reorders windows earliest-deadline-first (observable via
//!    `dispatch_seq`).
//! 3. **Backpressure** — the bounded submission queue really bounds:
//!    `try_submit` hands the request back at capacity, nothing is lost,
//!    and the queue-depth gauges never exceed their bounds.
//!
//! Determinism: tests that depend on batch composition start the engine
//! paused (`ServeConfig::start_paused`), pre-load the queue, and let
//! `finish()` open the gate — the whole backlog then dispatches as
//! deterministic windows regardless of host timing.

use onesa_core::plan::{Compile, OptLevel};
use onesa_core::serve::{
    AdmissionPolicy, PoolPolicy, RoutePolicy, ServeConfig, ServeEngine, ShardBackend, ShardSpec,
    Ticket, TrySubmitError,
};
use onesa_core::{BatchEngine, OneSa, Parallelism, Program, Request};
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::TinyBert;
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

/// A mixed queue: GEMMs over three shared weight matrices plus two
/// nonlinear functions, with per-request solo-run reference outputs.
fn mixed_requests(seed: u64) -> (Vec<Request>, Vec<Tensor>) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let tables = TableSet::for_granularity(0.25).unwrap();
    let weights: Vec<Tensor> = (0..3).map(|_| rng.randn(&[24, 10], 1.0)).collect();
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for i in 0..12 {
        let a = rng.randn(&[2 + i % 5, 24], 1.0);
        let w = &weights[i % 3];
        expected.push(gemm::matmul(&a, w).unwrap());
        requests.push(Request::gemm(a, w.clone()));
    }
    for i in 0..6 {
        let x = rng.randn(&[1 + i % 3, 7], 1.5);
        let func = if i % 2 == 0 {
            NonlinearFn::Gelu
        } else {
            NonlinearFn::Tanh
        };
        expected.push(tables.table(func).unwrap().eval_tensor(&x).unwrap());
        requests.push(Request::nonlinear(func, x));
    }
    (requests, expected)
}

#[test]
fn sharded_async_results_bit_identical_to_single_shard_sequential() {
    // The oracle IS single-shard sequential execution: the per-request
    // reference outputs from `mixed_requests` are exactly what a
    // one-shard pool serves request-at-a-time.
    let routings = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastLoaded,
        RoutePolicy::WeightAffinity,
    ];
    let admissions = [
        AdmissionPolicy::Fifo { window: 4 },
        AdmissionPolicy::Deadline {
            window: 4,
            drop_expired: false,
        },
        AdmissionPolicy::SizeCapped { max_macs: 2_000 },
    ];
    for routing in routings {
        for admission in admissions {
            let (requests, expected) = mixed_requests(7);
            let pool = ServeEngine::start(
                ServeConfig::uniform(3, ArrayConfig::new(8, 16), Parallelism::Sequential)
                    .with_routing(routing)
                    .with_admission(admission),
            )
            .unwrap();
            let tickets: Vec<Ticket> = requests
                .into_iter()
                .enumerate()
                .map(|(i, r)| match admission {
                    // Exercise the deadline path too: reversed priorities.
                    AdmissionPolicy::Deadline { .. } => {
                        pool.submit_with_deadline(r, 1_000 - i as u64).unwrap()
                    }
                    _ => pool.submit(r).unwrap(),
                })
                .collect();
            for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
                assert_eq!(ticket.id(), i as u64);
                let served = ticket.wait().unwrap();
                assert_eq!(served.ticket, i as u64, "{routing:?}/{admission:?}");
                assert!(served.shard < 3);
                assert_bits_eq(
                    &format!("{routing:?}/{admission:?} request {i}"),
                    &served.output,
                    want,
                );
            }
            let summary = pool.finish().unwrap();
            assert_eq!(summary.report.requests, 18);
            assert_eq!(summary.report.latencies.len(), 18);
            assert!(summary.windows >= 1);
        }
    }
}

#[test]
fn heterogeneous_shards_still_bit_identical() {
    // Different array sizes per shard change cycle accounting, never
    // values.
    let (requests, expected) = mixed_requests(11);
    let pool = ServeEngine::start(ServeConfig {
        shards: vec![
            ShardSpec {
                config: ArrayConfig::new(4, 16),
            },
            ShardSpec {
                config: ArrayConfig::new(8, 16),
            },
            ShardSpec {
                config: ArrayConfig::new(16, 8),
            },
        ],
        granularity: 0.25,
        queue_capacity: 64,
        admission: AdmissionPolicy::Fifo { window: 6 },
        routing: RoutePolicy::RoundRobin,
        paused: false,
        backend: ShardBackend::InProcess,
        session_capacity: 64,
        degrade: None,
        pool: PoolPolicy::AlwaysOn,
    })
    .unwrap();
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|r| pool.submit(r).unwrap())
        .collect();
    for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
        let served = ticket.wait().unwrap();
        assert_bits_eq(&format!("hetero request {i}"), &served.output, want);
    }
    let _ = pool.finish().unwrap();
}

#[test]
fn ticket_ids_and_fifo_dispatch_follow_submission_order() {
    let (requests, _) = mixed_requests(13);
    let n = requests.len();
    let pool = ServeEngine::start(
        ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 64 })
            .start_paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|r| pool.submit(r).unwrap())
        .collect();
    pool.resume();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.ticket, i as u64, "ticket ids are the submission order");
        // FIFO admission never reorders: global dispatch order equals
        // submission order even across shards.
        assert_eq!(o.dispatch_seq, i as u64);
        assert!(o.queue_seconds >= 0.0);
    }
    let summary = pool.finish().unwrap();
    assert_eq!(summary.report.requests, n);
}

#[test]
fn deadline_admission_dispatches_earliest_deadline_first() {
    let mut rng = Pcg32::seed_from_u64(17);
    let w = rng.randn(&[8, 4], 1.0);
    let pool = ServeEngine::start(
        ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Deadline {
                window: 8,
                drop_expired: false,
            })
            .start_paused(),
    )
    .unwrap();
    // Pre-load one window with shuffled deadlines (plus one no-deadline
    // request, which must sort last), then open the gate.
    let deadlines = [Some(50u64), Some(10), Some(30), None, Some(20)];
    let tickets: Vec<Ticket> = deadlines
        .iter()
        .map(|d| {
            let r = Request::gemm(rng.randn(&[2, 8], 1.0), w.clone());
            match d {
                Some(us) => pool.submit_with_deadline(r, *us).unwrap(),
                None => pool.submit(r).unwrap(),
            }
        })
        .collect();
    pool.resume();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    // EDF over [50, 10, 30, none, 20]: tickets dispatch as 1, 4, 2, 0, 3.
    let dispatch: Vec<u64> = outcomes.iter().map(|o| o.dispatch_seq).collect();
    assert_eq!(dispatch, vec![3, 0, 2, 4, 1]);
    let summary = pool.finish().unwrap();
    assert_eq!(summary.windows, 1, "the pre-loaded queue is one window");
}

#[test]
fn bounded_queue_backpressure_hands_requests_back() {
    let mut rng = Pcg32::seed_from_u64(19);
    let w = rng.randn(&[8, 4], 1.0);
    let pool = ServeEngine::start(
        ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_queue_capacity(4)
            .start_paused(),
    )
    .unwrap();
    let mut tickets = Vec::new();
    for _ in 0..4 {
        let r = Request::gemm(rng.randn(&[2, 8], 1.0), w.clone());
        tickets.push(pool.try_submit(r).unwrap());
    }
    assert_eq!(pool.pending(), 4);
    // The queue is at capacity and the gate is closed: the fifth request
    // must come straight back, not block and not vanish.
    let a = rng.randn(&[2, 8], 1.0);
    let fifth = Request::gemm(a.clone(), w.clone());
    let mut returned = match pool.try_submit(fifth) {
        Err(TrySubmitError::Full(r)) => r,
        other => panic!("expected Full, got {:?}", other.map(|t| t.id())),
    };
    // Handed back intact: still the caller's own (un-lowered) request,
    // which lowers to the GEMM it was built as.
    assert!(returned.as_program().is_none());
    returned.lower(0.25).unwrap();
    let (program, inputs) = returned.as_program().unwrap();
    assert_eq!(inputs, std::slice::from_ref(&a));
    assert_eq!(program.consts()[0].as_ref(), &w);
    assert_eq!(program.modeled_macs(), 2 * 8 * 4);
    // Open the gate: the backlog drains and every accepted ticket lands.
    pool.resume();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let summary = pool.finish().unwrap();
    assert_eq!(summary.report.requests, 4);
    assert_eq!(summary.peak_queue_depth, 4, "gauge saw the full queue");
}

#[test]
fn weight_affinity_preserves_coalescing_across_shards() {
    let run = |routing: RoutePolicy| {
        let mut rng = Pcg32::seed_from_u64(23);
        let w1 = rng.randn(&[16, 8], 1.0);
        let w2 = rng.randn(&[16, 6], 1.0);
        let pool = ServeEngine::start(
            ServeConfig::uniform(4, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 64 })
                .with_routing(routing)
                .start_paused(),
        )
        .unwrap();
        let mut tickets = Vec::new();
        for i in 0..16 {
            // First half against w1, second against w2, so round-robin
            // hands every shard a mix of both weights.
            let w = if i < 8 { &w1 } else { &w2 };
            tickets.push(
                pool.submit(Request::gemm(rng.randn(&[3, 16], 1.0), w.clone()))
                    .unwrap(),
            );
        }
        pool.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        pool.finish().unwrap()
    };
    // One pre-loaded window: with weight affinity, each weight's GEMMs
    // all land on one shard and coalesce into ONE kernel call per
    // weight. Round-robin scatters them: every shard that sees a weight
    // pays its own weight load.
    let affinity = run(RoutePolicy::WeightAffinity);
    assert_eq!(affinity.report.gemm_groups, 2);
    let scattered = run(RoutePolicy::RoundRobin);
    assert_eq!(scattered.report.gemm_groups, 8); // 4 shards x 2 weights
    assert!(affinity.modeled_speedup() >= 1.0 && scattered.modeled_speedup() >= 1.0);
}

#[test]
fn least_loaded_balances_and_sharding_cuts_makespan() {
    let mut rng = Pcg32::seed_from_u64(29);
    let pool = ServeEngine::start(
        ServeConfig::uniform(4, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 64 })
            .with_routing(RoutePolicy::LeastLoaded)
            .start_paused(),
    )
    .unwrap();
    // 16 equal-work GEMMs with distinct weights (no coalescing, so the
    // only speedup source is sharding itself).
    let mut tickets = Vec::new();
    for _ in 0..16 {
        tickets.push(
            pool.submit(Request::gemm(
                rng.randn(&[8, 16], 1.0),
                rng.randn(&[16, 8], 1.0),
            ))
            .unwrap(),
        );
    }
    pool.resume();
    for t in tickets {
        t.wait().unwrap();
    }
    let summary = pool.finish().unwrap();
    // Equal work + least-loaded = an even 4/4/4/4 split.
    for s in &summary.shards {
        assert_eq!(s.requests, 4, "shard {} got an uneven share", s.shard);
        assert!(s.occupancy >= 0.0 && s.occupancy <= 1.0);
        assert!(s.peak_queue_depth <= 3); // channel bound + one in flight
    }
    // Four arrays over uncoalescable work: the modeled makespan must be
    // close to a quarter of the solo schedule.
    assert!(
        summary.modeled_speedup() > 2.5,
        "expected ~4x from 4 shards, got {:.2}x",
        summary.modeled_speedup()
    );

    // Shard-count scaling on the 48-request mix `examples/sharded_serving.rs`
    // serves (36 GEMMs over three shared weights, 12 nonlinears over two
    // functions), pre-loaded as one window; everything modeled is
    // deterministic and pinned exactly.
    let mut rng = Pcg32::seed_from_u64(2026);
    let weights = [128, 64, 96].map(|n| rng.randn(&[256, n], 1.0));
    let mut mix = Vec::new();
    for i in 0..36 {
        let a = rng.randn(&[16 + (i % 5) * 16, 256], 1.0);
        mix.push(Request::gemm(a, weights[i % 3].clone()));
    }
    for i in 0..12 {
        let func = [NonlinearFn::Gelu, NonlinearFn::Sigmoid][i % 2];
        let x = rng.randn(&[32 + (i % 4) * 16, 64], 1.5);
        mix.push(Request::nonlinear(func, x));
    }
    // (shards, GEMM groups, array makespan in seconds, batching speedup):
    // 48 requests in 0.230 / 0.128 / 0.076 ms is 209 k / 375 k / 635 k
    // modeled requests per second, 1.79x and 3.04x the one-shard pool.
    let pinned = [
        (1, 3, 0.00022985, 1.112682184033065),
        (2, 6, 0.00012809, 1.99664298540089),
        (4, 12, 7.561e-5, 3.382489088744875),
    ];
    for (shards, gemm_groups, makespan, speedup) in pinned {
        let pool = ServeEngine::start(
            ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 64 })
                .with_routing(RoutePolicy::LeastLoaded)
                .start_paused(),
        )
        .unwrap();
        let tickets: Vec<Ticket> = mix
            .iter()
            .map(|r| pool.submit(r.clone()).unwrap())
            .collect();
        let summary = pool.finish().unwrap(); // opens the gate itself
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
        assert_eq!(summary.report.requests, 48, "{shards} shards");
        assert_eq!(summary.windows, 1, "{shards} shards");
        assert_eq!(summary.report.gemm_groups, gemm_groups, "{shards} shards");
        assert_eq!(summary.report.batched_seconds, makespan, "{shards} shards");
        assert_eq!(summary.modeled_speedup(), speedup, "{shards} shards");
    }
    // The headline floor: four shards clear 1.5x the one-shard pool.
    assert!(pinned[0].2 / pinned[2].2 >= 1.5);
}

#[test]
fn concurrent_clients_all_get_served() {
    let pool = ServeEngine::start(
        ServeConfig::uniform(3, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_queue_capacity(8),
    )
    .unwrap();
    // Every producer borrows the one engine; the scope joins them all
    // before `finish` can take it.
    std::thread::scope(|scope| {
        for p in 0..4 {
            let pool = &pool;
            scope.spawn(move || {
                let mut rng = Pcg32::seed_from_u64(100 + p);
                let w = rng.randn(&[12, 5], 1.0);
                let mut pairs = Vec::new();
                for _ in 0..8 {
                    let a = rng.randn(&[3, 12], 1.0);
                    let want = gemm::matmul(&a, &w).unwrap();
                    let ticket = pool.submit(Request::gemm(a, w.clone())).unwrap();
                    pairs.push((ticket, want));
                }
                for (i, (ticket, want)) in pairs.into_iter().enumerate() {
                    let served = ticket.wait().unwrap();
                    assert_bits_eq(&format!("producer {p} request {i}"), &served.output, &want);
                }
            });
        }
    });
    let summary = pool.finish().unwrap();
    assert_eq!(summary.report.requests, 32);
    // The least and the greatest latency finite: every one is.
    let extremes = [0.0, 100.0].map(|q| summary.report.latencies.percentile(q));
    assert!(extremes.iter().all(|l| l.is_finite()));
    // The queue counts its depth under its lock: never past its bound,
    // however many producers wait for room.
    assert!(summary.peak_queue_depth <= 8);
}

/// Nearest-rank percentile of a whole list, sorted: what
/// `Latencies::percentile` must return for the multiset of the list.
fn nearest_rank(latencies: &[f64], q: f64) -> f64 {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[test]
fn latency_bookkeeping_holds_one_entry_per_distinct_latency() {
    // Ten thousand requests of three shapes through two shards: the
    // summary holds three latencies, with the count and the percentiles
    // of the full list.
    let mut rng = Pcg32::seed_from_u64(40);
    let w = rng.randn(&[8, 4], 1.0);
    let xs: Vec<Tensor> = [1, 3, 6].map(|m| rng.randn(&[m, 8], 1.0)).into();
    let pool = ServeEngine::start(ServeConfig::uniform(
        2,
        ArrayConfig::new(8, 16),
        Parallelism::Sequential,
    ))
    .unwrap();
    let tickets: Vec<Ticket> = (0..10_000)
        .map(|i| pool.submit(Request::gemm(xs[i % 3].clone(), w.clone())))
        .collect::<Result<_, _>>()
        .unwrap();
    let seconds: Vec<f64> = tickets
        .into_iter()
        .map(|t| t.wait().unwrap().stats.seconds())
        .collect();
    let summary = pool.finish().unwrap();
    let latencies = &summary.report.latencies;
    assert_eq!((summary.report.requests, latencies.len()), (10_000, 10_000));
    assert!(latencies.distinct() <= 3, "{latencies:?}");
    for q in [0.0, 1.0, 33.3, 33.4, 50.0, 66.7, 90.0, 99.9, 100.0] {
        let (got, want) = (latencies.percentile(q), nearest_rank(&seconds, q));
        assert_eq!(got.to_bits(), want.to_bits(), "p{q}: {got} vs {want}");
    }
}

#[test]
fn model_batch_inference_routes_through_the_pool() {
    // A model is served as its compiled network program. Ten TinyBert
    // sequences of 3 to 7 tokens, two per length, fill one window of a
    // two-shard weight-affinity pool. A program's fingerprint ignores its
    // input length, so every length lands on one shard, where programs of
    // different lengths share every weight and table and the staged
    // scheduler coalesces them.
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let bert = TinyBert::new(41, 30, 8, 3, 1);
    let seqs: Vec<Vec<usize>> = (0..10)
        .map(|i| (0..3 + i % 5).map(|t| (7 * i + t) % 30).collect())
        .collect();
    let jobs: Vec<(Program, Vec<Tensor>)> = seqs
        .iter()
        .map(|s| {
            let program = bert
                .compile_optimized((&mode, s.len()), OptLevel::default())
                .unwrap();
            (program, vec![TinyBert::ids_tensor(s)])
        })
        .collect();
    assert!(jobs
        .iter()
        .all(|(p, _)| p.fingerprint() == jobs[0].0.fingerprint()));
    let pool = ServeEngine::start(
        ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 16 })
            .with_routing(RoutePolicy::WeightAffinity)
            .start_paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = jobs
        .iter()
        .map(|(p, x)| pool.submit_program(p.clone(), x.clone()).unwrap())
        .collect();
    pool.resume();
    let mut shards = Vec::new();
    for (i, (t, s)) in tickets.into_iter().zip(&seqs).enumerate() {
        let served = t.wait().unwrap();
        let want = bert.predict(s, &mode);
        assert_eq!(served.output.len(), want.len());
        for (g, w) in served.output.as_slice().iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "sequence {i}: {g} vs {w}");
        }
        shards.push(served.shard);
    }
    assert!(shards.iter().all(|&s| s == shards[0]), "{shards:?}");
    let summary = pool.finish().unwrap();

    // Which stages coalesced: the window replayed through one shard's
    // engine, which reports per-stage groups. Every shared-weight GEMM —
    // the Q, K and V projections (stages 2-4), the attention output
    // projection (6), both feed-forward GEMMs (10, 12) and the head
    // (18) — every shared-table pass — both layer norms (9, 15) and
    // the GELU (11) — and both residual adds (7, 13) run ten programs as
    // one row-stacked group. The attention (5) runs one group per length:
    // each member alone, its heads' softmax passes credited once over the
    // group's rows.
    let mut engine = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25).unwrap();
    for (p, x) in &jobs {
        engine.submit_program(p.clone(), x.clone()).unwrap();
    }
    let run = engine.run().unwrap();
    let coalesced: Vec<(usize, usize)> = run
        .program_stages
        .iter()
        .filter(|st| st.groups < st.ops)
        .map(|st| (st.stage, st.groups))
        .collect();
    assert_eq!(
        coalesced,
        [
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 5),
            (6, 1),
            (7, 1),
            (9, 1),
            (10, 1),
            (11, 1),
            (12, 1),
            (13, 1),
            (15, 1),
            (18, 1)
        ]
    );
    // 7 shared-weight GEMM groups; 2 layer norms + 1 GELU. The attention
    // and the adds count as neither. The pool ran the same.
    let groups = (run.report.gemm_groups, run.report.nonlinear_groups);
    assert_eq!(groups, (7, 3));
    let report = &summary.report;
    assert_eq!((report.gemm_groups, report.nonlinear_groups), groups);
    assert_eq!((summary.windows, report.requests), (1, 10));
}

#[test]
fn summary_reports_are_internally_consistent() {
    let (requests, _) = mixed_requests(43);
    let n = requests.len();
    let pool = ServeEngine::start(
        ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential).start_paused(),
    )
    .unwrap();
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|r| pool.submit(r).unwrap())
        .collect();
    let summary = pool.finish().unwrap(); // finish() opens the gate itself
    let r = &summary.report;
    assert_eq!(r.requests, n);
    assert_eq!(r.latencies.len(), n);
    assert!(r.wall_seconds > 0.0);
    assert!(r.batched_seconds > 0.0 && r.unbatched_seconds >= r.batched_seconds);
    assert!(r.total_macs > 0 && r.total_nonlinear_evals > 0);
    assert_eq!(
        summary.shards.iter().map(|s| s.requests).sum::<usize>(),
        n,
        "every request landed on exactly one shard"
    );
    assert_eq!(
        summary.shards.iter().map(|s| s.macs).sum::<u64>(),
        r.total_macs
    );
    // The makespan is the busiest shard, and per-shard array time is
    // bounded by the pool total.
    let busiest = summary
        .shards
        .iter()
        .map(|s| s.array_seconds)
        .fold(0.0, f64::max);
    assert!((busiest - r.batched_seconds).abs() < 1e-15);
    assert!(!format!("{summary}").contains("NaN"));
    // Tickets waited after finish still resolve (results are buffered).
    for t in tickets {
        assert!(t.wait().is_ok());
    }
}
