//! `serve_decode`: 8 concurrent `TinyCausalLm` sessions driven in
//! lockstep rounds through an in-process `ServeEngine` — prompt 8,
//! generate 24, close, reopen — with host-resident KV caches.
//!
//! Each session waits for its token before asking for the next, so the
//! loop is closed by nature. The layers are the ones `serve_mix` uses
//! (`core.serve`, `core.batch`, `plan.exec`) used differently: stateful,
//! session-pinned, 68-op programs over `M ≤ 8, K = 32` GEMMs. Kernels
//! are negligible here; what a token costs is host overhead — KV
//! checkout and write-back, the per-step `compiled_decode` lookup and
//! `Program::clone`, window and ticket wakes.
//!
//! Every round is staged behind `pause()` / `resume()`, the way the
//! repo's own continuous-batching driver does it, so a round's eight
//! steps land in one admission window. Unstaged, the round races the
//! admitter's wake-up: on the 2-vCPU sandbox the same code then settles
//! into either ~3.4 or ~7.6 requests per window for many minutes at a
//! time, and throughput, latency *and the modeled makespan* move by
//! 35–40 % between the two — a host mood, not a property of the code.

use super::{
    array, cpwl_mode, finish_traced, max_abs_diff, median_setup, peak_rss_mb, sample, timed, Onion,
    RunArgs, RunOutput,
};
use crate::kernels::{cpwl_melem_s, per_call_us_p50, Family, KernelPlan, KernelTimes, PAR};
use crate::loadgen::Budget;
use crate::probes;
use crate::stats::{Fnv, Samples};
use crate::trace::Recorder;
use onesa_core::serve::{
    AdmissionPolicy, ServeConfig, ServeEngine, ServeSummary, ServedOutcome, SessionId, Ticket,
};
use onesa_core::{BatchEngine, OneSa, Request};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::TinyCausalLm;
use onesa_plan::{Compile, Op, OptLevel, Program, TableCache};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::stats::argmax;
use onesa_tensor::Tensor;
use std::time::Instant;

/// Concurrent sessions.
pub const SESSIONS: usize = 8;
/// Prompt length.
pub const PROMPT: usize = 8;
/// Tokens generated per session before it closes and reopens (the first
/// comes from the prefill, the rest from decode steps).
pub const GENERATE: usize = 24;
/// Distinct seeded prompts; sessions draw them in order.
const PROMPTS: usize = 64;
const VOCAB: usize = 64;
const MAX_LEN: usize = PROMPT + GENERATE;
const WINDOW: usize = 16;
const PROBE_SEED: u64 = 0x0E5A;
const PROBE_PROMPTS: usize = 4;

fn model() -> TinyCausalLm {
    // Fixed weights: the program under test does not follow `--seed`.
    TinyCausalLm::new(2027, VOCAB, MAX_LEN, 2, true)
}

fn prompts(seed: u64, n: usize) -> Vec<Vec<usize>> {
    let mut rng = Pcg32::seed_with_stream(seed, 0xDEC0);
    (0..n)
        .map(|_| {
            (0..PROMPT)
                .map(|_| rng.below(VOCAB as u32) as usize)
                .collect()
        })
        .collect()
}

fn start_engine() -> ServeEngine {
    ServeEngine::start(
        ServeConfig::uniform(1, array(), PAR)
            .with_admission(AdmissionPolicy::Fifo { window: WINDOW }),
    )
    .expect("serve pool starts")
}

fn submit_prefill(
    engine: &ServeEngine,
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    sid: SessionId,
    prompt: &[usize],
) -> Ticket {
    let program = Program::clone(&lm.compiled_prefill(mode, prompt.len()));
    engine
        .submit_prefill(
            sid,
            program,
            vec![TinyCausalLm::ids_tensor(prompt)],
            prompt.len(),
        )
        .expect("prefill submits")
}

/// One decode step the way a client writes it: read the session's
/// context length, look the step program up, clone it, submit.
fn submit_decode(
    engine: &ServeEngine,
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    sid: SessionId,
    token: usize,
) -> Ticket {
    let ctx = engine.session_context_rows(sid).expect("session live");
    let program = Program::clone(&lm.compiled_decode(mode, ctx));
    engine
        .submit_decode(sid, program, vec![TinyCausalLm::ids_tensor(&[token])])
        .expect("decode submits")
}

fn next_token(outcome: &ServedOutcome) -> usize {
    argmax(outcome.output.as_slice()).expect("non-empty vocabulary")
}

/// What a lockstep drive observed.
#[derive(Debug, Default)]
struct Driven {
    /// Tokens produced (prefill firsts + decode steps).
    tokens: u64,
    prefills: u64,
    decodes: u64,
    elapsed_s: f64,
    /// Submit → token latency of every decode step (inter-token).
    step_latency: Samples,
    /// `submit_prefill` → first token.
    ttft: Samples,
    /// `ServedOutcome::queue_seconds` of every request.
    queue: Samples,
    /// Summed solo modeled cycles of every request.
    unbatched_cycles: u64,
    /// Every generation started: (prompt index, tokens so far).
    streams: Vec<(usize, Vec<usize>)>,
    /// Requests that errored or were degraded.
    errors: u64,
}

/// Drives [`SESSIONS`] sessions in lockstep rounds until `budget` is
/// spent (checked between rounds): every round stages one step per
/// session behind the admission gate, opens it, then waits the steps in
/// order. A finished generation closes its session and reopens on the
/// next prompt.
fn drive(
    engine: &ServeEngine,
    lm: &TinyCausalLm,
    mode: &InferenceMode,
    prompts: &[Vec<usize>],
    budget: Budget,
) -> Driven {
    struct Session {
        sid: SessionId,
        stream: usize,
        last: usize,
    }
    let mut d = Driven::default();
    let mut next_prompt = 0usize;
    let mut open = |d: &mut Driven| {
        let stream = d.streams.len();
        d.streams.push((next_prompt % prompts.len(), Vec::new()));
        next_prompt += 1;
        Session {
            sid: engine.open_session(),
            stream,
            last: 0,
        }
    };
    let mut sessions: Vec<Session> = (0..SESSIONS).map(|_| open(&mut d)).collect();
    let start = Instant::now();
    loop {
        let spent = match budget {
            Budget::For(duration) => start.elapsed() >= duration,
            Budget::Ops(tokens) => d.tokens >= tokens as u64,
        };
        if spent {
            break;
        }
        engine.pause();
        let tickets: Vec<(Instant, bool, Ticket)> = sessions
            .iter()
            .map(|s| {
                let (prompt, stream) = &d.streams[s.stream];
                let t0 = Instant::now();
                if stream.is_empty() {
                    (
                        t0,
                        true,
                        submit_prefill(engine, lm, mode, s.sid, &prompts[*prompt]),
                    )
                } else {
                    (t0, false, submit_decode(engine, lm, mode, s.sid, s.last))
                }
            })
            .collect();
        engine.resume();
        for (i, (t0, prefill, ticket)) in tickets.into_iter().enumerate() {
            let outcome = ticket.wait();
            let token = outcome.as_ref().map(next_token).unwrap_or(0);
            let dt = t0.elapsed().as_secs_f64();
            if prefill {
                d.prefills += 1;
                d.ttft.push(dt);
            } else {
                d.decodes += 1;
                d.step_latency.push(dt);
            }
            match &outcome {
                Ok(o) if o.degrade.is_none() => {
                    d.queue.push(o.queue_seconds);
                    d.unbatched_cycles += o.stats.cycles();
                }
                _ => d.errors += 1,
            }
            d.tokens += 1;
            sessions[i].last = token;
            d.streams[sessions[i].stream].1.push(token);
        }
        for session in &mut sessions {
            if d.streams[session.stream].1.len() == GENERATE {
                engine.close_session(session.sid);
                *session = open(&mut d);
            }
        }
    }
    d.elapsed_s = start.elapsed().as_secs_f64();
    for s in &sessions {
        engine.close_session(s.sid);
    }
    d
}

impl Driven {
    /// Tokens that differ from `generate_direct` (a stream cut short by
    /// the budget is checked as a prefix).
    fn wrong_tokens(&self, lm: &TinyCausalLm, mode: &InferenceMode, prompts: &[Vec<usize>]) -> u64 {
        let mut reference: Vec<Option<Vec<usize>>> = vec![None; prompts.len()];
        let mut wrong = 0u64;
        for (prompt, stream) in &self.streams {
            let want = reference[*prompt]
                .get_or_insert_with(|| lm.generate_direct(&prompts[*prompt], GENERATE, mode));
            wrong += stream
                .iter()
                .zip(want.iter())
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        wrong
    }

    fn stream_fnv(&self) -> u64 {
        let mut fnv = Fnv::default();
        for (_, stream) in &self.streams {
            for &t in stream {
                fnv.word(t as u32);
            }
        }
        fnv.finish()
    }
}

struct Ctx {
    lm: TinyCausalLm,
    mode: InferenceMode,
    prompts: Vec<Vec<usize>>,
    engine: ServeEngine,
    warm: Driven,
}

/// Workload start to first timed token: prompts, the model, CPWL tables,
/// pool start, and one full generation per session as the fixed-count
/// warm-up — which is the cold compile + optimize of the prefill program
/// and of all 23 decode-step programs.
fn setup(seed: u64) -> Ctx {
    let mode = cpwl_mode();
    let lm = model();
    let prompts = prompts(seed, PROMPTS);
    let engine = start_engine();
    let warm = drive(
        &engine,
        &lm,
        &mode,
        &prompts,
        Budget::Ops(SESSIONS * GENERATE),
    );
    Ctx {
        lm,
        mode,
        prompts,
        engine,
        warm,
    }
}

/// Max |CPWL − Exact| over next-token logits, teacher-forced along the
/// CPWL token stream of a fixed probe prompt set.
fn cpwl_error(lm: &TinyCausalLm, mode: &InferenceMode) -> f64 {
    let mut worst = 0.0f64;
    for prompt in prompts(PROBE_SEED, PROBE_PROMPTS) {
        let stream = lm.generate_direct(&prompt, GENERATE, mode);
        let mut seq = prompt;
        for token in stream {
            let approx = lm.next_logits_direct(&seq, mode);
            let exact = lm.next_logits_direct(&seq, &InferenceMode::Exact);
            worst = worst.max(max_abs_diff(&approx, &exact));
            seq.push(token);
        }
    }
    worst
}

fn note_drive(out: &mut RunOutput, d: &Driven, summary: &ServeSummary) {
    out.note(format!(
        "  {} tokens ({} prefills + {} decode steps) in {:.3} s over {} generations; inter-token p50 {:.3} p90 {:.3} ms ({} samples); ttft p50 {:.3} ms ({} samples)",
        d.tokens,
        d.prefills,
        d.decodes,
        d.elapsed_s,
        d.streams.len(),
        d.step_latency.p50() * 1e3,
        d.step_latency.percentile(90.0) * 1e3,
        d.step_latency.len(),
        d.ttft.p50() * 1e3,
        d.ttft.len(),
    ));
    out.note(format!(
        "  {} windows ({:.2} requests/window), {} GEMM groups, modeled makespan {:.3} ms, sessions {:?}",
        summary.windows,
        summary.report.requests as f64 / summary.windows.max(1) as f64,
        summary.report.gemm_groups,
        summary.report.batched_seconds * 1e3,
        summary.sessions
    ));
}

/// The end-to-end run.
pub fn run(args: RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let (ctx, setup_s) = median_setup(|| setup(args.seed), |old| drop(old.engine.finish()));
    let Ctx {
        lm,
        mode,
        prompts,
        engine,
        warm,
    } = ctx;
    drop(engine.finish());

    // A fresh engine, so the summary covers the timed tokens only.
    let engine = start_engine();
    let budget = Budget::For(std::time::Duration::from_secs_f64(args.seconds));
    let d = drive(&engine, &lm, &mode, &prompts, budget);
    let summary = engine.finish().expect("pool drains");

    out.attempted = d.tokens;
    let wrong = d.wrong_tokens(&lm, &mode, &prompts) + warm.wrong_tokens(&lm, &mode, &prompts);
    // `errors` already holds every expired or degraded step (its ticket
    // came back as an error or with `degrade` set).
    out.failed = (d.errors + warm.errors + wrong).min(out.attempted);
    if summary.sessions.live != 0 {
        out.problems
            .push(format!("{} sessions left open", summary.sessions.live));
    }

    out.set("setup_s", setup_s);
    out.set("throughput_ops_s", d.tokens as f64 / d.elapsed_s);
    out.set_gated("latency_p50_ms", &d.step_latency, 50.0, 1e3);
    out.set_gated("ttft_p50_ms", &d.ttft, 50.0, 1e3);
    out.set(
        "modeled_ops_s",
        d.tokens as f64 / summary.report.batched_seconds,
    );
    out.set(
        "modeled_uj_per_op",
        summary.modeled_joules_per_request() * 1e6,
    );
    out.set("cpwl_max_abs_err", cpwl_error(&lm, &mode));
    out.set("peak_rss_mb", peak_rss_mb(&[]));

    out.exact("warmup.tokens", warm.tokens);
    out.exact("warmup.unbatched_cycles", warm.unbatched_cycles);
    out.exact("warmup.stream_fnv", format!("{:016x}", warm.stream_fnv()));
    note_drive(&mut out, &d, &summary);
    out.note(format!(
        "  {wrong} tokens differ from generate_direct; failed {} of {}",
        out.failed, out.attempted
    ));
    out
}

fn gemm_nodes(p: &Program) -> usize {
    p.nodes()
        .iter()
        .filter(|n| matches!(n.op, Op::Gemm { .. }))
        .count()
}

/// The traced run: the onion for prefills and decode steps, a loaded
/// lockstep pass for the queue / window / coalescing counters, and the
/// per-call probes of this path.
pub fn run_traced(args: RunArgs) -> (RunOutput, Recorder) {
    let mut out = RunOutput::default();
    let cfg = array();
    let onion_ops = probes::onion_ops(args.seconds);

    // Cold compile, measured on a model of its own.
    let mode = cpwl_mode();
    {
        let cold = model();
        let t0 = Instant::now();
        std::hint::black_box(cold.compiled_prefill(&mode, PROMPT));
        for ctx in PROMPT..MAX_LEN - 1 {
            std::hint::black_box(cold.compiled_decode(&mode, ctx));
        }
        // Compile + optimize of every program one generation needs.
        out.set("nn.compile_us", t0.elapsed().as_secs_f64() * 1e6);
        let raw = cold.compile((&mode, PROMPT)).expect("prefill compiles");
        out.set(
            "plan.opt.optimize_us",
            sample(5, || raw.optimize(OptLevel::default())).p50() * 1e6,
        );
    }

    let Ctx {
        lm,
        prompts,
        engine,
        ..
    } = setup(args.seed);
    let tables = mode.shared_table_set().expect("CPWL mode carries tables");
    let mut table_cache = TableCache::new();
    table_cache.seed_shared(tables.clone());
    let mut batch = BatchEngine::new(OneSa::with_parallelism(cfg.clone(), PAR), 0.25)
        .expect("0.25 is a valid granularity");
    let prefill_program = lm.compiled_prefill(&mode, PROMPT);
    let prefill_plan = KernelPlan::of_program(&prefill_program, tables.clone(), args.seed);
    let decode_plans: Vec<KernelPlan> = (PROMPT..MAX_LEN - 1)
        .map(|ctx| {
            KernelPlan::of_program(&lm.compiled_decode(&mode, ctx), tables.clone(), args.seed)
        })
        .collect();

    // ---- the onion, one level at a time over the same operations so
    // that each level runs in its own steady state. The serving level
    // goes first because it is what produces the operations: every
    // decode step's inputs (token, KV tensors) are captured just before
    // the engine serves it, and the inner levels replay exactly those.
    struct Step {
        token: usize,
        kv: Vec<Tensor>,
    }
    let levels = ["kernel", "plan.exec", "core.batch", "core.serve"];
    let mut rec = Recorder::new(true);
    let mut prefill_onion = Onion::new("prefill", &levels);
    let mut decode_onion = Onion::new("decode_step", &levels);
    let mut prefills: Vec<(usize, f64, f64)> = Vec::new(); // prompt, serve s, modeled s
    let mut steps: Vec<(Step, f64, f64)> = Vec::new();
    let mut submit_s = Samples::new();
    let mut kv_bytes = Samples::new();
    let (mut cycles, mut macs) = (0u64, 0u64);
    while prefills.len() < onion_ops {
        let prompt = prefills.len() % prompts.len();
        let sid = engine.open_session();
        let op = prefills.len() as u64;
        let (served, d) = rec.time(op, "core.serve", None, || {
            submit_prefill(&engine, &lm, &mode, sid, &prompts[prompt])
                .wait()
                .expect("prefill serves")
        });
        prefills.push((prompt, d, served.stats.seconds()));
        cycles += served.stats.cycles();
        macs += served.stats.macs;
        let mut token = next_token(&served);
        while steps.len() < onion_ops
            && engine.session_context_rows(sid).expect("session live") < MAX_LEN - 1
        {
            let kv = engine.session_kv(sid).expect("session live");
            kv_bytes.push(kv.iter().map(|t| 4.0 * t.len() as f64).sum());
            let op = (onion_ops + steps.len()) as u64;
            let mut submitted = 0.0;
            let (served, d) = rec.time(op, "core.serve", None, || {
                let t0 = Instant::now();
                let ticket = submit_decode(&engine, &lm, &mode, sid, token);
                submitted = t0.elapsed().as_secs_f64();
                ticket.wait().expect("decode serves")
            });
            submit_s.push(submitted);
            steps.push((Step { token, kv }, d, served.stats.seconds()));
            cycles += served.stats.cycles();
            macs += served.stats.macs;
            token = next_token(&served);
        }
        engine.close_session(sid);
    }
    let step_program = |s: &Step| lm.compiled_decode(&mode, s.kv[0].dims()[0]);
    let step_inputs = |s: &Step| -> Vec<Tensor> {
        std::iter::once(TinyCausalLm::ids_tensor(&[s.token]))
            .chain(s.kv.iter().cloned())
            .collect()
    };

    let mut kernel_times: Vec<KernelTimes> = Vec::new();
    let mut inner = vec![[0.0f64; 3]; prefills.len() + steps.len()];
    for (op, _) in prefills.iter().enumerate() {
        inner[op][0] = rec
            .time(op as u64, "kernel", Some("plan.exec"), || {
                prefill_plan.replay()
            })
            .1;
    }
    for (n, (step, ..)) in steps.iter().enumerate() {
        let op = onion_ops + n;
        let plan = &decode_plans[step.kv[0].dims()[0] - PROMPT];
        let (kt, d) = rec.time(op as u64, "kernel", Some("plan.exec"), || plan.replay());
        kernel_times.push(kt);
        inner[prefills.len() + n][0] = d;
    }
    for (op, (prompt, ..)) in prefills.iter().enumerate() {
        let ids = TinyCausalLm::ids_tensor(&prompts[*prompt]);
        inner[op][1] = rec
            .time(op as u64, "plan.exec", Some("core.batch"), || {
                prefill_program
                    .run(std::slice::from_ref(&ids), PAR, &mut table_cache)
                    .expect("prefill runs")
            })
            .1;
    }
    for (n, (step, ..)) in steps.iter().enumerate() {
        let (program, inputs) = (step_program(step), step_inputs(step));
        inner[prefills.len() + n][1] = rec
            .time(
                (onion_ops + n) as u64,
                "plan.exec",
                Some("core.batch"),
                || {
                    program
                        .run(&inputs, PAR, &mut table_cache)
                        .expect("decode step runs")
                },
            )
            .1;
    }
    for (op, (prompt, ..)) in prefills.iter().enumerate() {
        let ids = TinyCausalLm::ids_tensor(&prompts[*prompt]);
        let request = Request::program(Program::clone(&prefill_program), vec![ids]);
        inner[op][2] = rec
            .time(op as u64, "core.batch", Some("core.serve"), || {
                batch.submit_checked(request).expect("request validates");
                batch.run().expect("batch runs")
            })
            .1;
    }
    let mut request_clone = Samples::new();
    for (n, (step, ..)) in steps.iter().enumerate() {
        let request = Request::program(Program::clone(&step_program(step)), step_inputs(step));
        request_clone.push(timed(|| request.clone()));
        inner[prefills.len() + n][2] = rec
            .time(
                (onion_ops + n) as u64,
                "core.batch",
                Some("core.serve"),
                || {
                    batch.submit_checked(request).expect("request validates");
                    batch.run().expect("batch runs")
                },
            )
            .1;
    }
    for (op, &(_, serve_s, modeled_s)) in prefills.iter().enumerate() {
        let [k, e, b] = inner[op];
        prefill_onion.push(&[k, e, b, serve_s], modeled_s);
    }
    for (n, (_, serve_s, modeled_s)) in steps.iter().enumerate() {
        let [k, e, b] = inner[prefills.len() + n];
        decode_onion.push(&[k, e, b, *serve_s], *modeled_s);
    }

    // The client-side work of a step, call by call, and the direct
    // (no engine) decode step the served one is compared with.
    let mut direct_step = Samples::new();
    let mut cache_hit = Samples::new();
    let mut program_clone = Samples::new();
    let mut validate = Samples::new();
    let mut cost = Samples::new();
    for (step, ..) in &steps {
        let ctx = step.kv[0].dims()[0];
        let t0 = Instant::now();
        let shared = lm.compiled_decode(&mode, ctx);
        cache_hit.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let program = Program::clone(&shared);
        program_clone.push(t0.elapsed().as_secs_f64());
        validate.push(timed(|| program.validate()));
        cost.push(timed(|| program.op_stats(&cfg)));
    }
    for (step, ..) in &steps {
        direct_step.push(timed(|| lm.decode_step(step.token, &step.kv, &mode)));
    }
    let session_self: Samples = steps
        .iter()
        .zip(direct_step.values())
        .map(|((_, serve_s, _), direct)| serve_s - direct)
        .collect();
    let onion_requests = (prefills.len() + steps.len()) as u64;
    out.attempted = onion_requests;

    // ---- tracing overhead: unloaded served decode steps (one long-
    // lived session per 23 steps), recorder on vs off.
    let mut session: Option<(SessionId, usize)> = None;
    let overhead = probes::trace_overhead(onion_ops / 2, |_| {
        let (sid, token) = match session.take() {
            Some(live)
                if engine.session_context_rows(live.0).expect("session live") < MAX_LEN - 1 =>
            {
                live
            }
            stale => {
                if let Some((sid, _)) = stale {
                    engine.close_session(sid);
                }
                let sid = engine.open_session();
                let first = submit_prefill(&engine, &lm, &mode, sid, &prompts[0])
                    .wait()
                    .expect("prefill serves");
                (sid, next_token(&first))
            }
        };
        let served = submit_decode(&engine, &lm, &mode, sid, token)
            .wait()
            .expect("decode serves");
        session = Some((sid, next_token(&served)));
    });
    out.set("trace.overhead_frac", overhead);
    drop(engine.finish());

    // ---- loaded pass: the lockstep drive itself, for the counters.
    let engine = start_engine();
    let budget = Budget::For(std::time::Duration::from_secs_f64(args.seconds / 2.0));
    let d = drive(&engine, &lm, &mode, &prompts, budget);
    let summary = engine.finish().expect("pool drains");
    out.attempted += d.tokens;
    out.failed += d.errors + d.wrong_tokens(&lm, &mode, &prompts);
    let windows = summary.windows.max(1) as f64;
    let groups = (summary.report.gemm_groups + summary.report.nonlinear_groups) as f64;
    let requests = summary.report.requests as f64;
    let gemm_ops = d.prefills as f64 * gemm_nodes(&prefill_program) as f64
        + d.decodes as f64 * gemm_nodes(&lm.compiled_decode(&mode, PROMPT)) as f64;
    out.set("plan.exec.groups_per_window", groups / windows);
    out.set(
        "plan.exec.coalesce_ratio",
        gemm_ops / summary.report.gemm_groups as f64,
    );
    out.set("core.batch.requests_per_group", requests / groups);
    out.set("core.serve.queue_us_p50", d.queue.p50() * 1e6);
    out.set("core.serve.queue_us_p90", d.queue.percentile(90.0) * 1e6);
    out.set(
        "core.serve.latency_p90_ms",
        d.step_latency.percentile(90.0) * 1e3,
    );
    out.set(
        "core.serve.latency_p99_ms",
        d.step_latency.percentile(99.0) * 1e3,
    );
    out.set("core.serve.requests_per_window", requests / windows);
    out.set("core.serve.shard_occupancy", summary.shards[0].occupancy);
    out.set(
        "core.serve.peak_queue_depth",
        summary.peak_queue_depth as f64,
    );
    out.set("core.serve.expired", summary.expired as f64);
    out.set("core.serve.degraded", summary.degraded as f64);
    out.set("loadgen.sent", d.tokens as f64);
    out.set("loadgen.completed", (d.tokens - d.errors) as f64);

    // ---- per-layer figures out of the onion and the per-call probes.
    out.set(
        "tensor.matmul_decode_us_p50",
        per_call_us_p50(&kernel_times, Family::Gemm),
    );
    out.set(
        "tensor.mhp_us_p50",
        per_call_us_p50(&kernel_times, Family::Mhp),
    );
    out.set(
        "tensor.quant_us_p50",
        per_call_us_p50(&kernel_times, Family::Quant),
    );
    out.set(
        "cpwl.ipf_us_p50",
        per_call_us_p50(&kernel_times, Family::Ipf),
    );
    out.set("cpwl.eval_melem_s", cpwl_melem_s(&kernel_times));
    out.set("cpwl.table_build_us", probes::table_build_us());
    out.set("tensor.macs_per_op", macs as f64 / onion_requests as f64);
    let plan_bytes: u64 =
        prefill_plan.bytes() + decode_plans.iter().map(KernelPlan::bytes).sum::<u64>();
    out.set(
        "tensor.bytes_per_op",
        plan_bytes as f64 / (1 + decode_plans.len()) as f64,
    );
    out.set("sim.cost_us_p50", cost.p50() * 1e6);
    out.set(
        "sim.modeled_cycles_per_op",
        cycles as f64 / onion_requests as f64,
    );
    out.set(
        "sim.array_utilization",
        macs as f64 / (cycles as f64 * cfg.peak_macs_per_cycle() as f64),
    );
    let mut shapes = prefill_plan.gemm_shapes();
    shapes.extend(decode_plans.last().expect("23 decode plans").gemm_shapes());
    probes::sim_error(&mut out, &shapes, (1, 64), args.seed);

    let exec = 1;
    out.set(
        "plan.exec.solo_us_p50",
        decode_onion.durations[exec].p50() * 1e6,
    );
    out.set(
        "plan.exec.self_us_p50",
        decode_onion.selfs[exec].p50() * 1e6,
    );
    out.set(
        "plan.exec.self_us_per_node",
        decode_onion.selfs[exec].mean() / lm.compiled_decode(&mode, PROMPT).nodes().len() as f64
            * 1e6,
    );
    out.set("plan.cache.hit_us_p50", cache_hit.p50() * 1e6);
    let cache = lm.compile_cache();
    out.set(
        "plan.cache.hit_ratio",
        cache.hits() as f64 / (cache.hits() + cache.misses()) as f64,
    );
    out.set("plan.program.clone_us_p50", program_clone.p50() * 1e6);
    out.set("plan.program.validate_us_p50", validate.p50() * 1e6);
    out.set("nn.decode_step_direct_us_p50", direct_step.p50() * 1e6);
    out.set(
        "core.batch.run_us_p50",
        decode_onion.durations[2].p50() * 1e6,
    );
    out.set("core.batch.self_us_p50", decode_onion.selfs[2].p50() * 1e6);
    out.set("core.batch.request_clone_us_p50", request_clone.p50() * 1e6);
    out.set("core.serve.submit_us_p50", submit_s.p50() * 1e6);
    out.set("core.serve.self_us_p50", decode_onion.selfs[3].p50() * 1e6);
    out.set(
        "core.serve.unloaded_ms_p50",
        decode_onion.durations[3].p50() * 1e3,
    );
    out.set(
        "core.serve.session_step_self_us_p50",
        session_self.p50() * 1e6,
    );
    out.set("core.serve.kv_bytes_per_step", kv_bytes.mean());

    note_drive(&mut out, &d, &summary);
    finish_traced(&mut out, &[&prefill_onion, &decode_onion], args.workload);
    (out, rec)
}
