//! Decode-correctness oracle suite for autoregressive serving:
//! N-token generation through **continuous batching** — many live
//! sessions' prefill and decode steps coalescing inside `ServeEngine`
//! admission windows — must be **bit-identical** to solo
//! recompute-from-scratch decoding with no KV cache
//! ([`TinyCausalLm::generate_direct`], the retained `*_direct`
//! reference path).
//!
//! Coverage:
//!
//! * every admission policy × routing policy combination, at 1, 2 and
//!   4 shards, on the in-process backend —
//!   plus the coalescing win itself, staged rounds against windows of
//!   one step, with group counts and the modeled clock pinned exactly;
//! * the same policy grid on the `Process` backend (real spawned
//!   `onesa-shard-worker` processes over Unix sockets), with the shard
//!   counts laid over the grid as a Latin square, so every admission and
//!   every routing policy runs at 1, 2 and 4 shards;
//! * every [`InferenceMode`] (exact, CPWL quantized, CPWL unquantized)
//!   on both backends;
//! * a chaos test: SIGKILL a worker process *mid-decode* — the host
//!   holds every session's KV tensors, so generation resumes on a
//!   surviving worker and the full token streams stay bit-identical;
//! * the weight traffic of cross-host decoding: each of the model's
//!   weights crosses the wire once, however many context lengths (and
//!   hence distinct decode programs) the sessions step through.
//!
//! Tokens are compared with `assert_eq!` on `Vec<usize>`: argmax over
//! logits is exact, so a single differing mantissa bit anywhere in the
//! cached path shows up as a diverged token stream within a few steps.

use std::collections::HashSet;
use std::path::PathBuf;

use onesa_core::plan::tensor_fingerprint;
use onesa_core::serve::{
    AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, SessionId, ShardBackend, Ticket,
};
use onesa_core::{Parallelism, ProcessConfig, Program, ServeSummary, Transport};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::TinyCausalLm;
use onesa_sim::ArrayConfig;
use onesa_tensor::stats;

fn argmax(logits: &[f32]) -> usize {
    stats::argmax(logits).expect("non-empty vocabulary")
}

/// A process backend pointed at the worker binary Cargo built for this
/// test run.
fn process_backend() -> ShardBackend {
    let mut cfg = ProcessConfig::new(Transport::Unix);
    cfg.worker = Some(PathBuf::from(env!("CARGO_BIN_EXE_onesa-shard-worker")));
    ShardBackend::Process(cfg)
}

/// Generates `n` tokens for every prompt through one serving pool,
/// continuous-batching style: all sessions prefill in one wave, then
/// every decode round submits one step per live session before waiting
/// any of them — so each admission window sees steps from many
/// sessions and can coalesce their shared-weight GEMMs. A pool that
/// starts paused is staged throughout: each wave is submitted behind the
/// closed gate, so it closes as exactly one window on any host.
fn generate_via_pool(
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    prompts: &[Vec<usize>],
    n: usize,
    cfg: ServeConfig,
) -> (Vec<Vec<usize>>, ServeSummary) {
    let staged = cfg.paused;
    let engine = ServeEngine::start(cfg).unwrap();
    let wait_wave = |tickets: Vec<Ticket>| -> Vec<usize> {
        engine.resume(); // a no-op unless staged
        let tokens = tickets
            .into_iter()
            .map(|t| argmax(&t.wait().unwrap().output.into_vec()))
            .collect();
        if staged {
            engine.pause();
        }
        tokens
    };
    let sessions: Vec<SessionId> = prompts.iter().map(|_| engine.open_session()).collect();
    let tickets: Vec<Ticket> = prompts
        .iter()
        .zip(&sessions)
        .map(|(p, &sid)| {
            let program = Program::clone(&lm.compiled_prefill(mode, p.len()));
            engine
                .submit_prefill(sid, program, vec![TinyCausalLm::ids_tensor(p)], p.len())
                .unwrap()
        })
        .collect();
    let mut next = wait_wave(tickets);
    let mut out: Vec<Vec<usize>> = next.iter().map(|&t| vec![t]).collect();
    for _ in 1..n {
        let tickets: Vec<Ticket> = sessions
            .iter()
            .zip(&next)
            .map(|(&sid, &tok)| {
                let ctx = engine.session_context_rows(sid).unwrap();
                let program = Program::clone(&lm.compiled_decode(mode, ctx));
                engine
                    .submit_decode(sid, program, vec![TinyCausalLm::ids_tensor(&[tok])])
                    .unwrap()
            })
            .collect();
        next = wait_wave(tickets);
        for (stream, &tok) in out.iter_mut().zip(&next) {
            stream.push(tok);
        }
    }
    for (p, &sid) in prompts.iter().zip(&sessions) {
        assert_eq!(
            engine.session_context_rows(sid),
            Some(p.len() + n - 1),
            "cache length == prompt + generated-token context"
        );
        assert_eq!(engine.session_tokens(sid), Some(n as u64 - 1));
        assert!(engine.close_session(sid));
    }
    (out, engine.finish().unwrap())
}

fn policy_grid() -> Vec<(AdmissionPolicy, RoutePolicy)> {
    let admissions = [
        AdmissionPolicy::Fifo { window: 3 },
        AdmissionPolicy::Deadline {
            window: 3,
            drop_expired: false,
        },
        AdmissionPolicy::SizeCapped { max_macs: 200_000 },
    ];
    let routings = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastLoaded,
        RoutePolicy::WeightAffinity,
    ];
    let mut grid = Vec::new();
    for a in admissions {
        for r in routings {
            grid.push((a, r));
        }
    }
    grid
}

fn check_summary(summary: &ServeSummary, prompts: &[Vec<usize>], n: usize, label: &str) {
    let s = prompts.len() as u64;
    assert_eq!(summary.sessions.opened, s, "{label}: sessions opened");
    assert_eq!(summary.sessions.closed, s, "{label}: sessions closed");
    assert_eq!(summary.sessions.live, 0, "{label}: no orphaned sessions");
    assert_eq!(
        summary.prefill.tokens,
        prompts.iter().map(|p| p.len() as u64).sum::<u64>(),
        "{label}: prefill covers every prompt token"
    );
    assert_eq!(
        summary.decode.tokens,
        s * (n as u64 - 1),
        "{label}: one decode step per generated token after the first"
    );
    assert_eq!(summary.prefill.requests, prompts.len(), "{label}");
    assert_eq!(summary.decode.requests, prompts.len() * (n - 1), "{label}");
}

#[test]
fn in_process_batched_generation_matches_direct_for_every_policy_combo() {
    let lm = TinyCausalLm::new(11, 24, 16, 2, true);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let prompts: Vec<Vec<usize>> = vec![vec![3, 1, 4], vec![2, 7], vec![5, 9, 2, 6]];
    let n = 4;
    let want: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| lm.generate_direct(p, n, &mode))
        .collect();
    for (admission, routing) in policy_grid() {
        for shards in [1usize, 2, 4] {
            let label = format!("{admission:?}/{routing:?}/{shards} shards");
            let cfg =
                ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
                    .with_admission(admission)
                    .with_routing(routing);
            let (got, summary) = generate_via_pool(&lm, &mode, &prompts, n, cfg);
            assert_eq!(
                got, want,
                "{label}: batched generation diverged from direct"
            );
            check_summary(&summary, &prompts, n, &label);
        }
    }

    // The coalescing win continuous batching exists for, on eight
    // sessions x six tokens through one shard: every round staged into
    // one window, against windows of one step, where nothing batches.
    // A round's shared-weight GEMMs collapse to one group per weight;
    // attention is one op per layer, which runs per session and counts no
    // GEMM group (its softmax passes share one modeled pass). Group counts,
    // windows and the modeled clock are deterministic and pinned
    // exactly: 40 decode tokens in 0.212 ms of array time instead of
    // 0.654 ms is 189 k against 61 k modeled tokens/s.
    let prompts: Vec<Vec<usize>> = (0..8)
        .map(|s| (0..3).map(|i| (s * 7 + i * 3) % lm.vocab()).collect())
        .collect();
    let n = 6;
    let want: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| lm.generate_direct(p, n, &mode))
        .collect();
    // (admission window, GEMM groups, windows, modeled makespan in seconds)
    let pinned = [(16, 78, 6, 0.00021202), (1, 624, 48, 0.0006539199999999998)];
    for (window, groups, windows, makespan) in pinned {
        let label = format!("window of {window}");
        let cfg = ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window })
            .with_routing(RoutePolicy::WeightAffinity)
            .start_paused();
        let (got, summary) = generate_via_pool(&lm, &mode, &prompts, n, cfg);
        assert_eq!(got, want, "{label}: generation diverged from direct");
        check_summary(&summary, &prompts, n, &label);
        assert_eq!(summary.report.gemm_groups, groups, "{label}");
        assert_eq!(summary.windows, windows, "{label}");
        assert_eq!(summary.report.batched_seconds, makespan, "{label}");
        // A decode step's own modeled latency does not depend on what
        // it shared a window with.
        let (p50, p95) = (
            summary.decode.latency_percentile(50.0),
            summary.decode.latency_percentile(95.0),
        );
        assert_eq!((p50, p95), (1.357e-5, 1.359e-5), "{label}");
    }
    // The headline floor: batching at least halves the kernel launches.
    assert!(pinned[1].1 >= 2 * pinned[0].1);
}

#[test]
fn process_backend_batched_generation_matches_direct_across_policies() {
    // Untied head here (the in-process grid runs tied), so both LM-head
    // forms cross the wire. Shard counts form a Latin square over the
    // 3 × 3 grid (`i` is `3 · admission + routing`): every admission
    // and every routing policy meets 1, 2 and 4 shards, so each runs
    // multi-process twice, in the same 9 runs.
    let lm = TinyCausalLm::new(12, 20, 16, 2, false);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let prompts: Vec<Vec<usize>> = vec![vec![4, 2, 8], vec![1, 6]];
    let n = 3;
    let want: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| lm.generate_direct(p, n, &mode))
        .collect();
    for (i, (admission, routing)) in policy_grid().into_iter().enumerate() {
        let shards = [1usize, 2, 4][(i + i / 3) % 3];
        let label = format!("{admission:?}/{routing:?}/{shards} shards");
        let cfg = ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(admission)
            .with_routing(routing)
            .with_backend(process_backend());
        let (got, summary) = generate_via_pool(&lm, &mode, &prompts, n, cfg);
        assert_eq!(got, want, "{label}: cross-host generation diverged");
        check_summary(&summary, &prompts, n, &label);
        assert_eq!(summary.failovers, 0, "{label}");
    }
}

#[test]
fn every_inference_mode_matches_direct_on_both_backends() {
    let lm = TinyCausalLm::new(13, 18, 16, 3, true);
    let modes = [
        InferenceMode::Exact,
        InferenceMode::cpwl(0.25).unwrap(),
        InferenceMode::cpwl_unquantized(0.5).unwrap(),
    ];
    let prompts: Vec<Vec<usize>> = vec![vec![3, 1, 4, 1], vec![5, 9]];
    let n = 3;
    for mode in &modes {
        let want: Vec<Vec<usize>> = prompts
            .iter()
            .map(|p| lm.generate_direct(p, n, mode))
            .collect();
        let base = ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_routing(RoutePolicy::WeightAffinity);
        let (in_proc, _) = generate_via_pool(&lm, mode, &prompts, n, base.clone());
        assert_eq!(in_proc, want, "{}: in-process diverged", mode.label());
        let (remote, _) =
            generate_via_pool(&lm, mode, &prompts, n, base.with_backend(process_backend()));
        assert_eq!(remote, want, "{}: cross-host diverged", mode.label());
    }
}

#[test]
fn a_weight_crosses_the_wire_once_whatever_the_context_length() {
    let lm = TinyCausalLm::new(19, 20, 16, 2, true);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let prompts: Vec<Vec<usize>> = vec![vec![3, 1, 4], vec![1, 5], vec![9, 2, 6, 5]];
    let n = 8;
    let want: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| lm.generate_direct(p, n, &mode))
        .collect();
    let cfg = ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
        .with_backend(process_backend());
    let (got, summary) = generate_via_pool(&lm, &mode, &prompts, n, cfg);
    assert_eq!(got, want, "cross-host generation diverged");

    // Every program the sessions ran: a prefill, then a decode step at
    // each context length the session grew through — nine of them.
    let mut served = Vec::new();
    for p in &prompts {
        served.push(Program::clone(&lm.compiled_prefill(&mode, p.len())));
        for ctx in p.len()..p.len() + n - 1 {
            served.push(Program::clone(&lm.compiled_decode(&mode, ctx)));
        }
    }
    let keys = |p: &Program| -> HashSet<u64> {
        p.consts().iter().map(|c| tensor_fingerprint(c)).collect()
    };
    let distinct: HashSet<u64> = served.iter().flat_map(keys).collect();
    assert_eq!(distinct, keys(&served[1]), "one step names every weight");
    let cache = summary.wire_cache;
    assert_eq!(cache.full_sends, distinct.len());
    // Every other constant a program named went out as its key.
    let named: usize = served.iter().map(|p| p.consts().len()).sum();
    assert_eq!(cache.ref_sends, named - distinct.len());
}

#[test]
fn worker_killed_mid_decode_resumes_bit_identically_on_a_survivor() {
    let lm = TinyCausalLm::new(17, 20, 16, 2, false);
    let mode = InferenceMode::cpwl(0.25).unwrap();
    let prompts: Vec<Vec<usize>> = vec![vec![2, 4, 6], vec![7, 3], vec![1, 1, 5]];
    let n = 5;
    let want: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| lm.generate_direct(p, n, &mode))
        .collect();

    let engine = ServeEngine::start(
        ServeConfig::uniform(3, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 3 })
            .with_routing(RoutePolicy::RoundRobin)
            .with_backend(process_backend()),
    )
    .unwrap();
    let pids = engine.worker_pids().to_vec();
    assert_eq!(pids.len(), 3);

    let sessions: Vec<SessionId> = prompts.iter().map(|_| engine.open_session()).collect();
    let tickets: Vec<Ticket> = prompts
        .iter()
        .zip(&sessions)
        .map(|(p, &sid)| {
            let program = Program::clone(&lm.compiled_prefill(&mode, p.len()));
            engine
                .submit_prefill(sid, program, vec![TinyCausalLm::ids_tensor(p)], p.len())
                .unwrap()
        })
        .collect();
    let mut next: Vec<usize> = tickets
        .into_iter()
        .map(|t| argmax(&t.wait().unwrap().output.into_vec()))
        .collect();
    let mut out: Vec<Vec<usize>> = next.iter().map(|&t| vec![t]).collect();

    for round in 1..n {
        if round == 2 {
            // Mid-decode chaos: round-robin pinned at least one session
            // to shard 0, whose worker now dies. The KV tensors live on
            // the host, so the pinned sessions' remaining steps ring
            // over to a surviving worker and the streams must not skip
            // a beat.
            let killed = std::process::Command::new("kill")
                .args(["-9", &pids[0].to_string()])
                .status()
                .expect("spawn kill");
            assert!(killed.success(), "kill -9 {}", pids[0]);
        }
        let tickets: Vec<Ticket> = sessions
            .iter()
            .zip(&next)
            .map(|(&sid, &tok)| {
                let ctx = engine.session_context_rows(sid).unwrap();
                let program = Program::clone(&lm.compiled_decode(&mode, ctx));
                engine
                    .submit_decode(sid, program, vec![TinyCausalLm::ids_tensor(&[tok])])
                    .unwrap()
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let tok = argmax(&t.wait().unwrap().output.into_vec());
            next[i] = tok;
            out[i].push(tok);
        }
    }

    assert_eq!(
        out, want,
        "post-failover token streams diverged from direct"
    );
    for &sid in &sessions {
        assert_eq!(engine.session_tokens(sid), Some(n as u64 - 1));
        assert!(engine.close_session(sid));
    }
    let summary = engine.finish().unwrap();
    assert_eq!(summary.failovers, 1, "exactly shard 0 lost its worker");
    check_summary(&summary, &prompts, n, "chaos");
}
