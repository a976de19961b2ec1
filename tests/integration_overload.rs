//! Integration suite for degrade-don't-drop overload serving: the chaos
//! path (worker death in the middle of a degraded window), the
//! saturation sweep and the accuracy contract of the degrade ladder.
//!
//! 1. **Chaos** — a Process-backend pool is saturated with CPWL program
//!    requests whose deadlines are already in the past, so every window
//!    is a *degraded* window (expiry rescue at the coarsest rung). One
//!    worker is SIGKILLed while the backlog is still queued: its windows
//!    must re-execute on survivors **at the same degraded granularity**,
//!    bit-identical to the solo oracle compiled directly at that rung,
//!    with exactly one failover recorded and nothing expired.
//! 2. **Saturation sweep** — one staged burst of twelve CNN requests on
//!    a 2-shard drop-on-expiry pool, 0 / 6 / 12 of them already past
//!    their deadline when the gate opens. Without a ladder exactly
//!    those expire; with one, nothing ever does — they are served at
//!    the coarsest rung, bit-identical to a solo run compiled there.
//!    Counts, the modeled makespan and the modeled energy per request
//!    are deterministic and pinned exactly.
//! 3. **Accuracy regression** — degraded CNN / BERT / causal-LM outputs
//!    served through the ladder stay within documented per-granularity
//!    error bounds of the Exact oracle, and top-1 agreement stays above
//!    a pinned floor across the whole ladder. The bounds follow the
//!    CPWL chord-error model (`≈ M₂·g²/8` per scalar evaluation, see
//!    `onesa_cpwl::analysis`), amplified through the network and pinned
//!    empirically with headroom.
//!
//! Determinism: the same paused-preload-resume discipline as
//! `integration_serving.rs`; all weights and inputs are seeded.

use std::path::PathBuf;

use onesa_core::plan::{Compile, TableCache};
use onesa_core::serve::{
    AdmissionPolicy, DegradeInfo, DegradePolicy, RoutePolicy, ServeConfig, ServeEngine, ServeError,
    ShardBackend, Ticket,
};
use onesa_core::{Parallelism, ProcessConfig, Program, Request, Transport};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::{SmallCnn, TinyBert, TinyCausalLm};
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

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

fn process_backend(transport: Transport) -> ShardBackend {
    let mut cfg = ProcessConfig::new(transport);
    cfg.worker = Some(PathBuf::from(env!("CARGO_BIN_EXE_onesa-shard-worker")));
    ShardBackend::Process(cfg)
}

#[test]
fn killed_worker_mid_degraded_window_fails_over_at_the_same_rung() {
    let cnn = SmallCnn::new(7, 1, 3);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let program = cnn.compile((&mode, (8, 8))).unwrap();
    let coarse = program.with_granularity(1.0).unwrap();

    let pool = ServeEngine::start(
        ServeConfig::uniform(3, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Deadline {
                window: 2,
                drop_expired: true,
            })
            .with_routing(RoutePolicy::RoundRobin)
            .with_degrade(DegradePolicy::new(vec![0.5, 1.0]))
            .start_paused()
            .with_backend(process_backend(Transport::Unix)),
    )
    .unwrap();
    let pids = pool.worker_pids().to_vec();
    assert_eq!(pids.len(), 3);

    // Every request is already past its deadline when the gate opens, so
    // every window the dead shard owns is a *degraded* window.
    let mut rng = Pcg32::seed_from_u64(61);
    let xs: Vec<Tensor> = (0..6).map(|_| rng.randn(&[1, 8, 8], 1.0)).collect();
    let tickets: Vec<Ticket> = xs
        .iter()
        .map(|x| {
            pool.submit_with_deadline(Request::program(program.clone(), vec![x.clone()]), 0)
                .unwrap()
        })
        .collect();
    let killed = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success(), "kill -9 {}", pids[0]);
    // Let the admission clock pass deadline 0 before opening the gate.
    std::thread::sleep(std::time::Duration::from_millis(2));
    pool.resume();

    let mut cache = TableCache::new();
    for (i, (ticket, x)) in tickets.into_iter().zip(&xs).enumerate() {
        let served = ticket
            .wait()
            .unwrap_or_else(|e| panic!("degraded request {i} lost to the dead worker: {e:?}"));
        assert!(served.shard != 0, "request {i} served by the dead shard");
        assert_eq!(
            served.degrade,
            Some(DegradeInfo {
                requested: 0.25,
                served: 1.0,
                rungs: 2
            }),
            "request {i} must be rescued at the coarsest rung"
        );
        // Failover re-executes the *recompiled* program: the survivor's
        // answer is bit-identical to a solo run at the degraded rung.
        let solo = coarse
            .run(std::slice::from_ref(x), Parallelism::Sequential, &mut cache)
            .unwrap();
        assert_bits_eq(
            &format!("degraded failover request {i}"),
            &served.output,
            &solo.output,
        );
    }
    let summary = pool.finish().unwrap();
    assert_eq!(summary.failovers, 1, "exactly shard 0 lost its worker");
    assert_eq!(summary.degraded, 6);
    assert_eq!(summary.expired, 0, "degrade-don't-drop even through chaos");
    assert_eq!(summary.report.requests, 6);
    let requeued: usize = summary.shards.iter().map(|s| s.requeued).sum();
    assert!(
        requeued > 0,
        "shard 0's degraded windows must re-run elsewhere"
    );
}

// -- the saturation sweep ---------------------------------------------

#[test]
fn ladder_serves_the_whole_burst_the_baseline_drops_at_pinned_cost() {
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let program = SmallCnn::new(7, 1, 4).compile((&mode, (8, 8))).unwrap();
    let coarse = program.with_granularity(1.0).unwrap();
    let mut rng = Pcg32::seed_from_u64(2026);
    let xs: Vec<Tensor> = (0..12).map(|_| rng.randn(&[1, 8, 8], 1.0)).collect();
    // (past deadline, ladder, (served, expired, degraded), (makespan in
    // seconds, joules per request)); goodput is `served / makespan`,
    // 363 k/s for a full burst. A half-degraded burst is the slowest:
    // fine and coarse requests share no table, so fewer nonlinear
    // stages coalesce.
    let full = (3.3045e-5, 1.1957296765179e-5);
    let rescued = DegradeInfo {
        requested: 0.25,
        served: 1.0,
        rungs: 2,
    };
    for (past, ladder, counts, modeled) in [
        (0, false, (12, 0, 0), full),
        (0, true, (12, 0, 0), full),
        (6, false, (6, 6, 0), (1.7095e-5, 1.2285898537833666e-5)),
        (
            6,
            true,
            (12, 0, 6),
            (3.3285000000000004e-5, 1.2026173992635002e-5),
        ),
        (12, false, (0, 12, 0), (0.0, 0.0)),
        (12, true, (12, 0, 12), full),
    ] {
        let label = format!("{past} past deadline, ladder {ladder}");
        let mut cfg = ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Deadline {
                window: 4,
                drop_expired: true,
            })
            .start_paused();
        if ladder {
            cfg = cfg.with_degrade(DegradePolicy::new(vec![0.5, 1.0]));
        }
        let pool = ServeEngine::start(cfg).unwrap();
        let tickets: Vec<Ticket> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let request = Request::program(program.clone(), vec![x.clone()]);
                if i < past {
                    pool.submit_with_deadline(request, 0).unwrap()
                } else {
                    pool.submit(request).unwrap()
                }
            })
            .collect();
        // Let the admission clock pass deadline 0 before opening the gate.
        std::thread::sleep(std::time::Duration::from_millis(2));
        pool.resume();
        let mut cache = TableCache::new();
        for (i, (t, x)) in tickets.into_iter().zip(&xs).enumerate() {
            let served = match t.wait() {
                Ok(served) => served,
                Err(ServeError::DeadlineExpired { .. }) if !ladder && i < past => continue,
                Err(e) => panic!("{label}, request {i}: {e:?}"),
            };
            let want = (ladder && i < past).then_some(rescued);
            assert_eq!(served.degrade, want, "{label}, request {i}");
            let oracle = if want.is_some() { &coarse } else { &program };
            let solo = oracle
                .run(std::slice::from_ref(x), Parallelism::Sequential, &mut cache)
                .unwrap();
            assert_bits_eq(
                &format!("{label}, request {i}"),
                &served.output,
                &solo.output,
            );
        }
        let s = pool.finish().unwrap();
        assert_eq!(
            (s.report.requests, s.expired, s.degraded),
            counts,
            "{label}"
        );
        let got = (s.report.batched_seconds, s.modeled_joules_per_request());
        assert_eq!(got, modeled, "{label}");
    }
}

// -- accuracy regression across the ladder ----------------------------

/// Serves every (program, input) pair through a single-shard engine that
/// force-degrades to `rung` (or not at all for the requested
/// granularity) and returns the outputs in submission order.
fn serve_at_rung(programs: &[(Program, Vec<Tensor>)], rung: Option<f32>) -> Vec<Vec<f32>> {
    let mut cfg =
        ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential).start_paused();
    if let Some(g) = rung {
        cfg = cfg.with_degrade(DegradePolicy::new(vec![g]).with_depth_threshold(0));
    }
    let engine = ServeEngine::start(cfg).unwrap();
    let tickets: Vec<Ticket> = programs
        .iter()
        .map(|(p, inputs)| {
            engine
                .submit(Request::program(p.clone(), inputs.clone()))
                .unwrap()
        })
        .collect();
    engine.resume();
    let outputs = tickets
        .into_iter()
        .map(|t| {
            let served = t.wait().unwrap();
            match rung {
                Some(g) => {
                    let d = served.degrade.expect("forced degrade");
                    assert_eq!(d.served, g);
                }
                None => assert_eq!(served.degrade, None),
            }
            served.output.as_slice().to_vec()
        })
        .collect();
    let _ = engine.finish().unwrap();
    outputs
}

fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap()
}

/// Max |dev| and top-1 agreement of served outputs vs the exact oracle.
fn compare(served: &[Vec<f32>], exact: &[Vec<f32>]) -> (f32, f64) {
    let mut max_dev = 0.0f32;
    let mut agree = 0usize;
    for (s, e) in served.iter().zip(exact) {
        assert_eq!(s.len(), e.len());
        for (a, b) in s.iter().zip(e) {
            max_dev = max_dev.max((a - b).abs());
        }
        agree += usize::from(argmax(s) == argmax(e));
    }
    (max_dev, agree as f64 / served.len() as f64)
}

#[test]
fn degraded_outputs_stay_within_documented_error_bounds() {
    // The ladder under test: requested 0.25 (paper default), rungs at
    // 0.5 and 1.0. Per-granularity logit-deviation bounds follow the
    // chord-error trend (`≈ M₂·g²/8` per table lookup, compounded
    // through the network) and are pinned empirically with ~3x
    // headroom; the top-1 floor is the worst agreement observed across
    // the ladder minus margin. Documented in ARCHITECTURE.md
    // ("Overload: the degrade ladder").
    let cnn = SmallCnn::new(11, 1, 6);
    let bert = TinyBert::new(5, 32, 12, 4, 2);
    let lm = TinyCausalLm::new(3, 32, 12, 1, true);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let exact = InferenceMode::Exact;
    let mut rng = Pcg32::seed_from_u64(71);

    // (compiled program at 0.25, inputs) pairs plus exact-oracle logits.
    let mut programs: Vec<(Program, Vec<Tensor>)> = Vec::new();
    let mut oracle: Vec<Vec<f32>> = Vec::new();
    let mut families: Vec<(&str, std::ops::Range<usize>)> = Vec::new();

    let start = programs.len();
    let cnn_program = cnn.compile((&mode, (8, 8))).unwrap();
    for _ in 0..12 {
        let x = rng.randn(&[1, 8, 8], 1.0);
        oracle.push(cnn.logits_direct(&x, &exact));
        programs.push((cnn_program.clone(), vec![x]));
    }
    families.push(("cnn", start..programs.len()));

    let start = programs.len();
    let bert_program = bert.compile((&mode, 8)).unwrap();
    for _ in 0..10 {
        let seq: Vec<usize> = (0..8).map(|_| rng.below(32) as usize).collect();
        oracle.push(bert.predict_direct(&seq, &exact));
        programs.push((bert_program.clone(), vec![TinyBert::ids_tensor(&seq)]));
    }
    families.push(("bert", start..programs.len()));

    let start = programs.len();
    let lm_program = (*lm.compiled_prefill(&mode, 6)).clone();
    for _ in 0..10 {
        let seq: Vec<usize> = (0..6).map(|_| rng.below(32) as usize).collect();
        oracle.push(lm.next_logits_direct(&seq, &exact));
        programs.push((lm_program.clone(), vec![TinyCausalLm::ids_tensor(&seq)]));
    }
    families.push(("lm", start..programs.len()));

    // (rung, per-family max-|logit dev| bounds vs Exact), pinned at
    // ~2.5-3x the measured deviations (cnn 0.025 at every rung — its
    // ReLU is itself piecewise-linear, so the tables are near-exact at
    // any granularity; bert 1.11/1.54/1.33; lm 0.22/0.41/0.74). The
    // worst observed top-1 agreement across the ladder is 0.9.
    let ladder: [(Option<f32>, [f32; 3]); 3] = [
        (None, [0.1, 2.5, 0.6]),
        (Some(0.5), [0.1, 3.5, 1.1]),
        (Some(1.0), [0.1, 3.5, 2.0]),
    ];
    const TOP1_FLOOR: f64 = 0.85;
    for (rung, bounds) in ladder {
        let served = serve_at_rung(&programs, rung);
        for ((name, range), bound) in families.iter().zip(bounds) {
            let (dev, agreement) = compare(&served[range.clone()], &oracle[range.clone()]);
            assert!(
                dev <= bound,
                "{name} at rung {rung:?}: max logit deviation {dev} exceeds \
                 documented bound {bound}"
            );
            assert!(
                agreement >= TOP1_FLOOR,
                "{name} at rung {rung:?}: top-1 agreement {agreement} below \
                 floor {TOP1_FLOOR}"
            );
        }
    }
}
