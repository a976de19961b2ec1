//! Continuous batching demo: eight decoding sessions generate
//! concurrently through one [`ServeEngine`], their per-token decode
//! steps coalescing into shared-weight GEMM groups — then the same
//! workload runs one session at a time, and the report counts the
//! difference.
//!
//! ```sh
//! cargo run --release --example continuous_batching
//! ```
//!
//! Three things are asserted, not just printed:
//!
//! * both schedules produce **bit-identical** token streams, equal to
//!   the no-cache recompute-from-scratch reference
//!   ([`TinyCausalLm::generate_direct`]) — scheduling changes *when*
//!   work runs, never *what* it computes;
//! * continuous batching needs **at least 2× fewer GEMM kernel groups**
//!   than sequential serving (it lands at 8× here, 520 against 65:
//!   eight sessions' steps share every weight-stationary load; each
//!   layer's attention is one op that runs per session, and the
//!   unmasked decode steps share its softmax passes);
//! * the session table ends the run clean — every session closed,
//!   nothing orphaned.

use onesa_core::serve::{
    AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, ServeSummary, SessionId, Ticket,
};
use onesa_core::{Parallelism, Program};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::TinyCausalLm;
use onesa_sim::ArrayConfig;
use onesa_tensor::stats;

const TOKENS: usize = 5;

fn argmax(logits: &[f32]) -> usize {
    stats::argmax(logits).expect("non-empty vocabulary")
}

fn engine(window: usize) -> ServeEngine {
    ServeEngine::start(
        ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window })
            .with_routing(RoutePolicy::WeightAffinity),
    )
    .expect("pool starts")
}

fn prefill(
    engine: &ServeEngine,
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    p: &[usize],
) -> (SessionId, Ticket) {
    let sid = engine.open_session();
    let program = Program::clone(&lm.compiled_prefill(mode, p.len()));
    let t = engine
        .submit_prefill(sid, program, vec![TinyCausalLm::ids_tensor(p)], p.len())
        .expect("prefill submits");
    (sid, t)
}

fn decode_step(
    engine: &ServeEngine,
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    sid: SessionId,
    tok: usize,
) -> Ticket {
    let ctx = engine.session_context_rows(sid).expect("session live");
    let program = Program::clone(&lm.compiled_decode(mode, ctx));
    engine
        .submit_decode(sid, program, vec![TinyCausalLm::ids_tensor(&[tok])])
        .expect("decode submits")
}

/// Continuous batching: every round submits one step for *all* sessions
/// before waiting any, so each admission window carries eight decode
/// steps whose GEMMs against the shared model weights coalesce.
fn serve_batched(
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    prompts: &[Vec<usize>],
) -> (Vec<Vec<usize>>, ServeSummary) {
    let pool = engine(2 * prompts.len());
    // Each wave is staged behind `pause()` so it lands in a single
    // admission window — the decode steps of a round only exist once
    // the previous round's outputs are in, so without staging the
    // admitter's greedy fill would dispatch them one by one.
    pool.pause();
    let waves: Vec<(SessionId, Ticket)> = prompts
        .iter()
        .map(|p| prefill(&pool, lm, mode, p))
        .collect();
    pool.resume();
    let mut sessions = Vec::new();
    let mut next = Vec::new();
    for (sid, t) in waves {
        sessions.push(sid);
        next.push(argmax(&t.wait().expect("prefill serves").output.into_vec()));
    }
    let mut out: Vec<Vec<usize>> = next.iter().map(|&t| vec![t]).collect();
    for _ in 1..TOKENS {
        pool.pause();
        let tickets: Vec<Ticket> = sessions
            .iter()
            .zip(&next)
            .map(|(&sid, &tok)| decode_step(&pool, lm, mode, sid, tok))
            .collect();
        pool.resume();
        for (i, t) in tickets.into_iter().enumerate() {
            next[i] = argmax(&t.wait().expect("decode serves").output.into_vec());
            out[i].push(next[i]);
        }
    }
    for &sid in &sessions {
        assert!(pool.close_session(sid));
    }
    (out, pool.finish().expect("pool drains"))
}

/// The contrast schedule: one session runs to completion before the
/// next opens, every window holds a single step — zero cross-session
/// coalescing, same math.
fn serve_sequential(
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    prompts: &[Vec<usize>],
) -> (Vec<Vec<usize>>, ServeSummary) {
    let pool = engine(1);
    let mut out = Vec::new();
    for p in prompts {
        let (sid, t) = prefill(&pool, lm, mode, p);
        let mut tok = argmax(&t.wait().expect("prefill serves").output.into_vec());
        let mut stream = vec![tok];
        for _ in 1..TOKENS {
            let t = decode_step(&pool, lm, mode, sid, tok);
            tok = argmax(&t.wait().expect("decode serves").output.into_vec());
            stream.push(tok);
        }
        assert!(pool.close_session(sid));
        out.push(stream);
    }
    (out, pool.finish().expect("pool drains"))
}

fn main() {
    let lm = TinyCausalLm::new(5, 24, 16, 2, true);
    let mode = InferenceMode::cpwl(0.25).expect("paper granularity");
    // Equal-length prompts keep each round's decode programs identical
    // across sessions (same context), which is what lets their stages
    // share one GEMM group per weight. Eight sessions, because the
    // attention GEMMs (scores, att x V — per-session data on both
    // sides) can never coalesce: with w shared-weight and d
    // data-dependent GEMM stages per step, the group ratio is
    // N(w+d) / (w+Nd), and this model shape (w=13, d=8 at 2 layers x
    // 2 heads) needs N >= 8 concurrent sessions to clear 2x.
    let prompts: Vec<Vec<usize>> = vec![
        vec![3, 1, 4],
        vec![2, 7, 9],
        vec![5, 9, 2],
        vec![8, 0, 6],
        vec![1, 2, 3],
        vec![9, 8, 7],
        vec![4, 4, 4],
        vec![6, 0, 2],
    ];
    let reference: Vec<Vec<usize>> = prompts
        .iter()
        .map(|p| lm.generate_direct(p, TOKENS, &mode))
        .collect();

    let (batched_out, batched) = serve_batched(&lm, &mode, &prompts);
    let (sequential_out, sequential) = serve_sequential(&lm, &mode, &prompts);
    assert_eq!(
        batched_out, reference,
        "batched decoding must be bit-identical"
    );
    assert_eq!(
        sequential_out, reference,
        "sequential decoding must be bit-identical"
    );

    for (p, stream) in prompts.iter().zip(&batched_out) {
        println!("prompt {p:?} -> {stream:?}");
    }
    println!();

    let (b, s) = (batched.report.gemm_groups, sequential.report.gemm_groups);
    let ratio = s as f64 / b as f64;
    println!("GEMM kernel groups: {s} sequential vs {b} continuous-batched ({ratio:.1}x fewer)");
    println!(
        "decode p50/p95 latency: {:.1} us / {:.1} us over {} steps",
        batched.decode.latency_percentile(50.0) * 1e6,
        batched.decode.latency_percentile(95.0) * 1e6,
        batched.decode.requests,
    );
    println!(
        "modeled decode throughput: {:.0} tokens/s (vs {:.0} sequential)",
        batched.decode.tokens as f64 / batched.report.batched_seconds,
        sequential.decode.tokens as f64 / sequential.report.batched_seconds,
    );
    println!("sessions: {:?}", batched.sessions);

    assert!(
        s >= 2 * b,
        "continuous batching must coalesce at least 2x fewer GEMM groups \
         ({s} sequential vs {b} batched)"
    );
    assert_eq!(batched.sessions.live, 0, "no orphaned sessions");
    assert_eq!(
        batched.sessions.opened, batched.sessions.closed,
        "every session closed"
    );
    println!("\ncontinuous batching OK: bit-identical streams, {ratio:.1}x fewer GEMM groups");
}
