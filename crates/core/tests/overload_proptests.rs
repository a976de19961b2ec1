//! Saturation property tests for degrade-don't-drop overload serving:
//! random request mixes (CPWL programs and plain GEMMs, with missing,
//! already-expired and far-future deadlines) thrown at random pool
//! shapes (shard count, routing policy, power policy, pressure
//! threshold), all under drop-on-expiry deadline admission with a
//! two-rung degrade ladder. Invariants checked on every case:
//!
//! * **no degradable request is ever dropped** — every CPWL program
//!   ticket resolves `Ok` while the ladder has a coarser rung, even
//!   when submitted with a deadline that is already in the past, and
//!   whatever mix of input shapes shares the window;
//! * **served == exact + degraded** — the finish summary's request
//!   count splits exactly into undegraded outcomes plus outcomes
//!   carrying [`DegradeInfo`], and [`ServeSummary::degraded`] agrees;
//! * **opened == closed + evicted + live** — the session lifetime
//!   identity holds alongside the overload machinery;
//! * **degraded results are bit-identical** to a solo run of the same
//!   program compiled directly at the served coarser granularity, and
//!   their `DegradeInfo` is internally consistent (served is a ladder
//!   rung, `rungs` counts the ladder entries in `(requested, served]`);
//! * only non-degradable requests (plain GEMMs here) expire, and the
//!   summary's expired count matches exactly.
//!
//! The 32 cases are pinned (`ProptestConfig::with_cases(32)`) so the
//! suite's cost stays flat in CI.

use std::collections::HashMap;

use onesa_core::serve::{
    AdmissionPolicy, DegradePolicy, PoolPolicy, RoutePolicy, ServeConfig, ServeEngine, ServeError,
    Ticket,
};
use onesa_core::{Parallelism, Program, Request};
use onesa_cpwl::NonlinearFn;
use onesa_plan::{EvalMode, Op, TableCache};
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;
use proptest::prelude::*;

const REQUESTED_G: f32 = 0.25;
const LADDER: [f32; 2] = [0.5, 1.0];

/// A tiny CPWL MLP (GEMM → Gelu → GEMM) over `rows` input rows, compiled
/// at the requested granularity; weights are fixed so every case shares
/// one fingerprint.
fn mlp(rows: usize) -> Program {
    let mut rng = Pcg32::seed_from_u64(7);
    let w1 = rng.randn(&[6, 4], 1.0);
    let w2 = rng.randn(&[4, 3], 1.0);
    let mut b = Program::builder(
        "overload-mlp",
        EvalMode::Cpwl {
            granularity: REQUESTED_G,
            quantize: false,
        },
    );
    let x = b.input(&[rows, 6]);
    let (c1, c2) = (b.constant(w1), b.constant(w2));
    let h = b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[x, c1],
    );
    let g = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[h]);
    b.push(
        Op::Gemm {
            bias: None,
            sparsity: None,
        },
        &[g, c2],
    );
    b.finish().unwrap()
}

/// Pass-through prefill used to exercise the session identity.
fn prefill_program() -> Program {
    let mut b = Program::builder("overload-prefill", EvalMode::Exact);
    let x = b.input(&[1, 3]);
    let zero = b.constant(Tensor::zeros(&[1, 3]));
    let y = b.push(Op::Add, &[x, zero]);
    b.mark_session_output(y);
    b.finish().unwrap()
}

/// One randomly generated submission: a CPWL program (degradable) or a
/// plain GEMM (not), with no deadline, an already-expired one, or a
/// far-future one. A program request re-targets the shared MLP at its
/// own row count — same fingerprint, different input shape.
#[derive(Debug, Clone, Copy)]
struct Req {
    degradable: bool,
    deadline: Option<u64>,
    rows: usize,
}

fn req_strategy() -> impl Strategy<Value = Req> {
    let degradable = prop_oneof![Just(true), Just(false)];
    let deadline = prop_oneof![Just(None), Just(Some(0u64)), Just(Some(u64::MAX - 1))];
    let rows = prop_oneof![Just(2usize), Just(3), Just(5)];
    (degradable, deadline, rows).prop_map(|(degradable, deadline, rows)| Req {
        degradable,
        deadline,
        rows,
    })
}

fn pool_strategy() -> impl Strategy<Value = PoolPolicy> {
    prop_oneof![
        Just(PoolPolicy::AlwaysOn),
        Just(PoolPolicy::Elastic {
            min_active: 1,
            scale_up_depth: 2,
            idle_windows: 1,
        }),
    ]
}

fn routing_strategy() -> impl Strategy<Value = RoutePolicy> {
    prop_oneof![
        Just(RoutePolicy::RoundRobin),
        Just(RoutePolicy::LeastLoaded),
        Just(RoutePolicy::WeightAffinity),
        Just(RoutePolicy::EnergyAware),
    ]
}

fn run_case(
    reqs: Vec<Req>,
    shards: usize,
    window: usize,
    depth_threshold: usize,
    routing: RoutePolicy,
    pool: PoolPolicy,
    sessions: usize,
) {
    let x = |rows: usize| Pcg32::seed_from_u64(11).randn(&[rows, 6], 1.0);
    let engine = ServeEngine::start(
        ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Deadline {
                window,
                drop_expired: true,
            })
            .with_routing(routing)
            .with_pool(pool)
            .with_degrade(DegradePolicy::new(LADDER.to_vec()).with_depth_threshold(depth_threshold))
            .start_paused(),
    )
    .unwrap();

    // Stage the whole mix behind the closed gate, then open it in one
    // motion — saturation by construction, independent of host timing.
    let mut rng = Pcg32::seed_from_u64(13);
    let tickets: Vec<(Req, Ticket, Option<Tensor>)> = reqs
        .iter()
        .map(|&r| {
            let (request, want) = if r.degradable {
                (Request::program(mlp(r.rows), vec![x(r.rows)]), None)
            } else {
                let a = rng.randn(&[2, 4], 1.0);
                let b = rng.randn(&[4, 2], 1.0);
                let want = onesa_tensor::gemm::matmul(&a, &b).unwrap();
                (Request::gemm(a, b), Some(want))
            };
            let t = match r.deadline {
                Some(d) => engine.submit_with_deadline(request, d).unwrap(),
                None => engine.submit(request).unwrap(),
            };
            (r, t, want)
        })
        .collect();
    // Make the admission clock strictly positive so `deadline: 0` is in
    // the past at every window close.
    std::thread::sleep(std::time::Duration::from_millis(2));
    engine.resume();

    // Session lifecycle alongside the overload traffic: open a few,
    // close every other one, leave the rest live.
    let mut opened = 0u64;
    let mut closed = 0u64;
    let mut session_requests = 0usize;
    for i in 0..sessions {
        let id = engine.open_session();
        opened += 1;
        let row = Tensor::from_vec(vec![id as f32; 3], &[1, 3]).unwrap();
        engine
            .submit_prefill(id, prefill_program(), vec![row], 1)
            .unwrap()
            .wait()
            .unwrap();
        session_requests += 1;
        if i % 2 == 0 {
            assert!(engine.close_session(id));
            closed += 1;
        }
    }

    // Solo oracles per served granularity and row count, compiled
    // directly (not via the ladder) — the bit-identicality reference.
    let mut oracles: HashMap<(u32, usize), Tensor> = HashMap::new();
    let mut oracle = |g: f32, rows: usize| -> Tensor {
        oracles
            .entry((g.to_bits(), rows))
            .or_insert_with(|| {
                let p = if g == REQUESTED_G {
                    mlp(rows)
                } else {
                    mlp(rows).with_granularity(g).unwrap()
                };
                p.run(&[x(rows)], Parallelism::Sequential, &mut TableCache::new())
                    .unwrap()
                    .output
            })
            .clone()
    };

    let mut served_exact = 0usize;
    let mut served_degraded = 0usize;
    let mut expected_expired = 0usize;
    for (r, t, want) in tickets {
        match (r.degradable, t.wait()) {
            (true, Ok(outcome)) => {
                // Invariant: a degradable request never drops.
                match outcome.degrade {
                    Some(d) => {
                        assert_eq!(d.requested, REQUESTED_G);
                        assert!(
                            LADDER.contains(&d.served),
                            "served granularity {} must be a ladder rung",
                            d.served
                        );
                        assert_eq!(
                            d.rungs,
                            LADDER
                                .iter()
                                .filter(|&&g| g > d.requested && g <= d.served)
                                .count(),
                            "rung count must match the ladder walk {d:?}"
                        );
                        if r.deadline == Some(0) {
                            assert_eq!(
                                d.served,
                                *LADDER.last().unwrap(),
                                "expiry rescue jumps to the coarsest rung"
                            );
                        }
                        assert_eq!(
                            outcome.output,
                            oracle(d.served, r.rows),
                            "degraded output must be bit-identical to the solo \
                             oracle at granularity {}",
                            d.served
                        );
                        served_degraded += 1;
                    }
                    None => {
                        assert_ne!(r.deadline, Some(0), "an expired program must degrade");
                        assert_eq!(outcome.output, oracle(REQUESTED_G, r.rows));
                        served_exact += 1;
                    }
                }
            }
            (true, Err(e)) => panic!("degradable request dropped: {e:?}"),
            (false, Ok(outcome)) => {
                assert_eq!(outcome.degrade, None, "plain GEMMs never degrade");
                assert_eq!(outcome.output, want.unwrap());
                served_exact += 1;
            }
            (false, Err(ServeError::DeadlineExpired { .. })) => {
                assert_eq!(r.deadline, Some(0), "only past-deadline GEMMs expire");
                expected_expired += 1;
            }
            (false, Err(e)) => panic!("unexpected GEMM error: {e:?}"),
        }
    }

    let summary = engine.finish().unwrap();
    assert_eq!(summary.expired, expected_expired);
    assert_eq!(summary.degraded, served_degraded);
    assert_eq!(
        summary.report.requests,
        served_exact + served_degraded + session_requests,
        "served == exact + degraded"
    );
    assert_eq!(
        summary.sessions.opened,
        summary.sessions.closed
            + summary.sessions.evicted_deadline
            + summary.sessions.evicted_overflow
            + summary.sessions.live,
        "opened == closed + evicted + live: {:?}",
        summary.sessions
    );
    assert_eq!(summary.sessions.opened, opened);
    assert_eq!(summary.sessions.closed, closed);
    assert_eq!(summary.failovers, 0);
    // Power accounting is exhaustive: every (shard, window) pair lands
    // in exactly one state bucket.
    let p = summary.power;
    assert_eq!(
        p.active_shard_windows + p.idle_shard_windows + p.off_shard_windows,
        (shards * summary.windows) as u64,
        "every shard-window accounted: {p:?}"
    );
    if summary.report.requests > 0 {
        assert!(p.modeled_joules > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn saturated_pool_degrades_instead_of_dropping(
        reqs in proptest::collection::vec(req_strategy(), 1..24),
        shards in 1usize..=3,
        window in 2usize..=5,
        depth_threshold in prop_oneof![Just(0usize), Just(2), Just(usize::MAX)],
        routing in routing_strategy(),
        pool in pool_strategy(),
        sessions in 0usize..=3,
    ) {
        run_case(reqs, shards, window, depth_threshold, routing, pool, sessions);
    }
}
