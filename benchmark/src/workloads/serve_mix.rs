//! `serve_mix` and `serve_remote`: one stateless traffic mix through a
//! one-shard `ServeEngine` (`Fifo { window: 16 }`) — in-process, or
//! through one worker process over a Unix socket.
//!
//! Per 8 requests: 5 shared-weight GEMMs (`[16..80,256]·[256,{64,96,
//! 128}]`), 2 CPWL nonlinears (GELU / sigmoid over `[32..80,64]`) and 1
//! compiled `SmallCnn` 16×16 program. A **paced** phase (open loop,
//! Poisson, latency from the due time) gives the latency metrics; a
//! **capacity** phase (closed loop, 32 in flight) gives throughput and
//! the modeled makespan.
//!
//! In-process this is the kernel-bound workload (`parallel::matmul` is
//! most of a GEMM request's host time). Remote is the same traffic and
//! the only workload that crosses `core.net` / `plan.wire` — GEMM
//! requests ship both operands in full on every frame while program
//! requests ride fingerprint refs after the first send, so a codec
//! change that helps one and costs the other shows. `serve_mix` is its
//! like-for-like control.

use super::{
    array, cpwl_mode, finish_traced, max_abs_diff, median_setup, peak_rss_mb, same_bits, sample,
    timed, Onion, RunArgs, RunOutput, Workload,
};
use crate::kernels::{cpwl_melem_s, per_call_us_p50, Family, KernelPlan, KernelTimes, PAR};
use crate::loadgen::{self, Budget, ClosedResult, PacedResult};
use crate::probes;
use crate::stats::{Fnv, Samples};
use crate::trace::Recorder;
use onesa_core::net::WorkerHandle;
use onesa_core::serve::{
    AdmissionPolicy, ServeConfig, ServeEngine, ServeSummary, ServedOutcome, ShardBackend, Ticket,
};
use onesa_core::{BatchEngine, OneSa, ProcessConfig, Request, Transport};
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::SmallCnn;
use onesa_plan::{wire, Compile, OptLevel, Program, TableCache};
use onesa_sim::analytic;
use onesa_tensor::parallel;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests generated per seed; the phases cycle through them.
pub const POOL: usize = 256;
/// Arrival rate of the paced phase. Fixed (not tuned per host) so two
/// commits are compared at the same offered load: about a fifth of the
/// process backend's capacity on the 2-vCPU reference box, which leaves
/// room for the host's stalls without the phase reading `saturated`.
pub const PACED_RATE_HZ: f64 = 500.0;
/// Requests outstanding in the capacity phase.
pub const IN_FLIGHT: usize = 32;
/// Seed of the probe pool `cpwl_max_abs_err` is taken over.
const PROBE_SEED: u64 = 0x0E5A;
/// Seed of the stream that fixes each pool position's shape.
const SHAPE_SEED: u64 = 0x5A4E;
const WINDOW: usize = 16;
const K: usize = 256;
const WEIGHT_COLS: [usize; 3] = [64, 96, 128];
const CNN_HW: usize = 16;

/// Op class of pool position `i`: the 5 : 2 : 1 pattern, spread so a
/// 16-request window sees every class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Shared-weight GEMM.
    Gemm,
    /// CPWL nonlinear.
    Nonlinear,
    /// Compiled CNN program.
    Cnn,
}

const PATTERN: [Class; 8] = [
    Class::Gemm,
    Class::Gemm,
    Class::Nonlinear,
    Class::Gemm,
    Class::Gemm,
    Class::Nonlinear,
    Class::Gemm,
    Class::Cnn,
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Gemm => "gemm",
            Class::Nonlinear => "nonlinear",
            Class::Cnn => "cnn16",
        }
    }
}

/// One generated request, before it is turned into a `Request`.
#[derive(Debug)]
enum MixOp {
    Gemm { a: Tensor, weight: usize },
    Nonlinear { func: NonlinearFn, x: Tensor },
    Cnn { x: Tensor },
}

/// The generated traffic: weights, the compiled CNN and the op pool.
#[derive(Debug)]
pub struct Mix {
    weights: Vec<Tensor>,
    cnn: Program,
    ops: Vec<MixOp>,
    tables: Arc<TableSet>,
}

impl Mix {
    /// Generates the pool. `seed` fills every tensor; the *shape* and
    /// function of each pool position come from a fixed stream, so the
    /// modeled work (and the host work, up to data) is the same for
    /// every seed. Row counts are any value in their range, not a few
    /// sizes, so the service times spread over many small clusters and
    /// not five large ones. The CNN's weights are fixed too: the program
    /// under test does not change with the inputs.
    pub fn generate(seed: u64) -> Mix {
        let mode = cpwl_mode();
        let mut rng = Pcg32::seed_with_stream(seed, 0x313C);
        let mut shape = Pcg32::seed_with_stream(SHAPE_SEED, 0x313C);
        let weights: Vec<Tensor> = WEIGHT_COLS
            .iter()
            .map(|&n| rng.randn(&[K, n], 0.1))
            .collect();
        let cnn = SmallCnn::new(11, 3, 10)
            .compile_optimized((&mode, (CNN_HW, CNN_HW)), OptLevel::default())
            .expect("CNN compiles");
        let ops = (0..POOL)
            .map(|i| match PATTERN[i % 8] {
                Class::Gemm => {
                    let rows = 16 + shape.below(65) as usize;
                    MixOp::Gemm {
                        a: rng.randn(&[rows, K], 1.0),
                        weight: shape.below(3) as usize,
                    }
                }
                Class::Nonlinear => {
                    let func = if shape.below(2) == 0 {
                        NonlinearFn::Gelu
                    } else {
                        NonlinearFn::Sigmoid
                    };
                    let rows = 32 + shape.below(49) as usize;
                    MixOp::Nonlinear {
                        func,
                        x: rng.randn(&[rows, 64], 1.5),
                    }
                }
                Class::Cnn => MixOp::Cnn {
                    x: rng.randn(&[3, CNN_HW, CNN_HW], 1.0),
                },
            })
            .collect();
        Mix {
            weights,
            cnn,
            ops,
            tables: mode.shared_table_set().expect("CPWL mode carries tables"),
        }
    }

    fn class(i: usize) -> Class {
        PATTERN[i % 8]
    }

    /// Request `i` of the stream (the pool, cycled). Owns its tensors,
    /// as the serving API requires.
    pub fn request(&self, i: usize) -> Request {
        match &self.ops[i % POOL] {
            MixOp::Gemm { a, weight } => Request::gemm(a.clone(), self.weights[*weight].clone()),
            MixOp::Nonlinear { func, x } => Request::nonlinear(*func, x.clone()),
            MixOp::Cnn { x } => Request::program(self.cnn.clone(), vec![x.clone()]),
        }
    }

    /// The solo reference output of pool op `i`: `parallel::matmul`,
    /// the table's own IPF + MHP, or `Program::run`.
    fn reference(&self, i: usize, cache: &mut TableCache) -> Tensor {
        match &self.ops[i] {
            MixOp::Gemm { a, weight } => {
                parallel::matmul(a, &self.weights[*weight], PAR).expect("shapes agree")
            }
            MixOp::Nonlinear { func, x } => self
                .tables
                .table(*func)
                .expect("function in table set")
                .eval_tensor(x)
                .expect("same shape"),
            MixOp::Cnn { x } => {
                self.cnn
                    .run(std::slice::from_ref(x), PAR, cache)
                    .expect("compiled program runs")
                    .output
            }
        }
    }

    fn references(&self) -> Vec<Tensor> {
        let mut cache = TableCache::new();
        cache.seed_shared(self.tables.clone());
        (0..POOL).map(|i| self.reference(i, &mut cache)).collect()
    }

    /// The kernel calls pool op `i` reduces to.
    fn kernel_plan(&self, i: usize, seed: u64) -> KernelPlan {
        match &self.ops[i] {
            MixOp::Gemm { a, weight } => {
                KernelPlan::of_gemm(a, &self.weights[*weight], self.tables.clone())
            }
            MixOp::Nonlinear { func, x } => KernelPlan::of_nonlinear(*func, x, self.tables.clone()),
            MixOp::Cnn { .. } => KernelPlan::of_program(&self.cnn, self.tables.clone(), seed),
        }
    }

    /// Modeled MACs and operand + result bytes of pool op `i`, from
    /// shapes alone.
    fn macs_and_bytes(&self, i: usize) -> (u64, u64) {
        match &self.ops[i] {
            MixOp::Gemm { a, weight } => {
                let (m, n) = (a.dims()[0], self.weights[*weight].dims()[1]);
                ((m * K * n) as u64, 4 * (m * K + K * n + m * n) as u64)
            }
            MixOp::Nonlinear { x, .. } => (x.len() as u64, 8 * x.len() as u64),
            MixOp::Cnn { x } => (self.cnn.modeled_macs(), 4 * (x.len() + 10) as u64),
        }
    }

    /// Modeled solo `(cycles, MACs)` of pool op `i` — the cost call the
    /// admission path makes per request.
    fn modeled(&self, i: usize, cfg: &onesa_sim::ArrayConfig) -> (u64, u64) {
        let stats = match &self.ops[i] {
            MixOp::Gemm { a, weight } => {
                vec![analytic::gemm_stats(
                    cfg,
                    a.dims()[0],
                    K,
                    self.weights[*weight].dims()[1],
                )]
            }
            MixOp::Nonlinear { x, .. } => {
                vec![analytic::nonlinear_stats(cfg, x.dims()[0], x.dims()[1])]
            }
            MixOp::Cnn { .. } => self.cnn.op_stats(cfg).expect("compiled program validates"),
        };
        stats
            .iter()
            .fold((0, 0), |(c, m), s| (c + s.cycles(), m + s.macs))
    }

    /// Bytes pool op `i` puts on the socket in steady state, computed
    /// with the public tensor encoder: every operand and the result as
    /// tensor frames; a program request rides an 8-byte fingerprint ref
    /// after its first full send.
    fn wire_bytes(&self, i: usize, result: &Tensor) -> u64 {
        let frame = |t: &Tensor| wire::encode_tensor(t).len() as u64;
        frame(result)
            + match &self.ops[i] {
                MixOp::Gemm { a, weight } => frame(a) + frame(&self.weights[*weight]),
                MixOp::Nonlinear { x, .. } => frame(x),
                MixOp::Cnn { x } => frame(x) + 8,
            }
    }
}

/// The process backend, with this very binary as the shard worker (its
/// `main` hands `--connect …` to `onesa_core::net::worker_main`, which
/// is all the repo's `onesa-shard-worker` does).
fn worker_exe() -> PathBuf {
    std::env::current_exe().expect("the benchmark knows its own path")
}

fn backend(workload: Workload) -> ShardBackend {
    match workload {
        Workload::ServeRemote => ShardBackend::Process(ProcessConfig {
            transport: Transport::Unix,
            worker: Some(worker_exe()),
        }),
        _ => ShardBackend::InProcess,
    }
}

fn start_engine(backend: &ShardBackend) -> ServeEngine {
    ServeEngine::start(
        ServeConfig::uniform(1, array(), PAR)
            .with_admission(AdmissionPolicy::Fifo { window: WINDOW })
            .with_backend(backend.clone()),
    )
    .expect("serve pool starts")
}

/// What the collector keeps of one served request.
#[derive(Debug, Clone, Copy)]
struct Served {
    ok: bool,
    queue_s: f64,
}

fn collect(outcome: Result<ServedOutcome, onesa_core::ServeError>, want: &Tensor) -> Served {
    match outcome {
        Ok(o) => Served {
            ok: o.degrade.is_none() && same_bits(o.output.as_slice(), want.as_slice()),
            queue_s: o.queue_seconds,
        },
        Err(_) => Served {
            ok: false,
            queue_s: 0.0,
        },
    }
}

/// The fixed-count warm-up: pool ops `0..POOL` once each, closed loop.
/// Every seed serves the same 256 requests here however long the timed
/// phases are, so its output checksum and summed solo modeled cycles
/// are the workload's `exact` block.
#[derive(Debug, Clone, Copy)]
struct WarmUp {
    output_fnv: u64,
    unbatched_cycles: u64,
    errors: u64,
}

fn warm_up(engine: &ServeEngine, mix: &Mix, ops: usize) -> WarmUp {
    let mut fnv = Fnv::default();
    let mut warm = WarmUp {
        output_fnv: 0,
        unbatched_cycles: 0,
        errors: 0,
    };
    loadgen::run_closed(
        Budget::Ops(ops),
        IN_FLIGHT,
        |i| engine.submit(mix.request(i)).expect("queue open"),
        |_, ticket: Ticket| match ticket.wait() {
            Ok(o) => {
                fnv.floats(o.output.as_slice());
                warm.unbatched_cycles += o.stats.cycles();
            }
            Err(_) => warm.errors += 1,
        },
    );
    warm.output_fnv = fnv.finish();
    warm
}

/// Everything a run sets up before its first timed request.
struct Ctx {
    mix: Mix,
    engine: ServeEngine,
    warm: WarmUp,
}

/// Workload start to first timed op: traffic pool and weights, the CNN's
/// cold compile + optimize, CPWL tables, pool start (worker spawn +
/// handshake on the process backend) and the fixed-count warm-up.
fn setup(seed: u64, backend: &ShardBackend) -> Ctx {
    let mix = Mix::generate(seed);
    let engine = start_engine(backend);
    let warm = warm_up(&engine, &mix, POOL);
    Ctx { mix, engine, warm }
}

fn workers_rss_mb(engine: &ServeEngine) -> f64 {
    engine
        .worker_pids()
        .iter()
        .filter_map(|&pid| crate::host::peak_rss_mb(pid))
        .sum()
}

/// The two timed phases and what the engine reported for each.
struct Loaded {
    paced: PacedResult<Served>,
    paced_summary: ServeSummary,
    capacity: ClosedResult<Served>,
    capacity_summary: ServeSummary,
    workers_rss_mb: f64,
}

/// Rounds a run alternates between its two phases, so that both sample
/// the same stretch of host time (a short run gets fewer, of 3 s each).
/// The samples of all rounds are pooled.
fn rounds(total_s: f64) -> usize {
    ((total_s / 3.0) as usize).clamp(1, 5)
}

/// The paced phase on `engine` (already warm) and the capacity phase on
/// a second engine of the same configuration — so each phase has its
/// own `ServeSummary` — in alternating rounds.
fn load_phases(
    engine: ServeEngine,
    mix: &Mix,
    references: &[Tensor],
    backend: &ShardBackend,
    seed: u64,
    paced_s: f64,
    capacity_s: f64,
) -> Loaded {
    loadgen::assert_generator_fits();
    let capacity_engine = start_engine(backend);
    let _ = warm_up(&capacity_engine, mix, 2 * IN_FLIGHT);
    let rounds = rounds(paced_s + capacity_s);
    let mut paced: Option<PacedResult<Served>> = None;
    let mut capacity: Option<ClosedResult<Served>> = None;
    for round in 0..rounds {
        let first = paced.as_ref().map_or(0, |p| p.sent);
        let schedule =
            loadgen::poisson_schedule(seed + round as u64, PACED_RATE_HZ, paced_s / rounds as f64);
        let next = loadgen::run_paced(
            &schedule,
            |i| engine.submit(mix.request(first + i)).expect("queue open"),
            |i, ticket: Ticket| collect(ticket.wait(), &references[(first + i) % POOL]),
        );
        match &mut paced {
            Some(p) => p.absorb(next),
            None => paced = Some(next),
        }
        let first = capacity.as_ref().map_or(0, |c| c.completed);
        let next = loadgen::run_closed(
            Budget::For(Duration::from_secs_f64(capacity_s / rounds as f64)),
            IN_FLIGHT,
            |i| {
                capacity_engine
                    .submit(mix.request(first + i))
                    .expect("queue open")
            },
            |i, ticket: Ticket| collect(ticket.wait(), &references[(first + i) % POOL]),
        );
        match &mut capacity {
            Some(c) => c.absorb(next),
            None => capacity = Some(next),
        }
    }
    let workers_rss = workers_rss_mb(&engine) + workers_rss_mb(&capacity_engine);
    Loaded {
        paced: paced.expect("at least one round"),
        paced_summary: engine.finish().expect("pool drains"),
        capacity: capacity.expect("at least one round"),
        capacity_summary: capacity_engine.finish().expect("pool drains"),
        workers_rss_mb: workers_rss,
    }
}

impl Loaded {
    /// Requests offered in the two timed phases.
    fn attempted(&self) -> u64 {
        (self.paced.sent + self.capacity.completed) as u64
    }

    /// Requests that errored, were degraded or expired, or whose output
    /// is not bit-identical to the solo reference.
    fn failed(&self) -> u64 {
        let bad = |rs: &[Served]| rs.iter().filter(|r| !r.ok).count() as u64;
        bad(&self.paced.records) + bad(&self.capacity.records)
    }

    /// Requests of the capacity phase only (its engine also served a
    /// short warm-up, which the summary includes).
    fn capacity_requests(&self) -> f64 {
        self.capacity_summary.report.requests as f64
    }

    fn note_phases(&self, out: &mut RunOutput) {
        let p = &self.paced;
        out.note(format!(
            "  paced    {:.0} ops/s Poisson: sent {} completed {} backlog at end {}{}; latency per-request median, averaged {:.3} ms; pooled p50 {:.3} p90 {:.3} p99 {:.3} ms ({} samples); lateness p99 {:.3} ms",
            PACED_RATE_HZ,
            p.sent,
            p.completed,
            p.backlog_at_end,
            if p.saturated { " SATURATED" } else { "" },
            per_request_median(&p.latencies) * 1e3,
            p.latencies.p50() * 1e3,
            p.latencies.percentile(90.0) * 1e3,
            p.latencies.percentile(99.0) * 1e3,
            p.latencies.len(),
            p.lateness.percentile(99.0) * 1e3,
        ));
        let c = &self.capacity;
        out.note(format!(
            "  capacity {} in flight: {} ops in {:.3} s; latency p50 {:.3} ms; shard busy {:.3} of it; {:.2} requests/window",
            IN_FLIGHT,
            c.completed,
            c.elapsed_s,
            c.latencies.p50() * 1e3,
            self.capacity_summary.shards[0].busy_seconds / c.elapsed_s,
            self.capacity_requests() / self.capacity_summary.windows.max(1) as f64,
        ));
        if self.paced.saturated {
            out.problems.push(format!(
                "paced phase saturated: {} of {} replies outstanding at the last send; its latencies describe a growing queue",
                self.paced.backlog_at_end, self.paced.sent
            ));
        }
    }
}

/// Max |CPWL − Exact| over a fixed probe pool: the nonlinear requests
/// against the scalar function, the CNN program against its exact-mode
/// compilation.
fn cpwl_error() -> f64 {
    let probe = Mix::generate(PROBE_SEED);
    let exact_cnn = SmallCnn::new(11, 3, 10)
        .compile_optimized(
            (&InferenceMode::Exact, (CNN_HW, CNN_HW)),
            OptLevel::default(),
        )
        .expect("CNN compiles");
    let mut cache = TableCache::new();
    cache.seed_shared(probe.tables.clone());
    let mut worst = 0.0f64;
    for (i, op) in probe.ops.iter().enumerate().take(64) {
        match op {
            MixOp::Gemm { .. } => {}
            MixOp::Nonlinear { func, x } => {
                let approx = probe.reference(i, &mut cache);
                let exact = x.map(|v| func.eval(v));
                worst = worst.max(max_abs_diff(approx.as_slice(), exact.as_slice()));
            }
            MixOp::Cnn { x } => {
                let approx = probe.reference(i, &mut cache);
                let exact = exact_cnn
                    .run(std::slice::from_ref(x), PAR, &mut cache)
                    .expect("exact program runs")
                    .output;
                worst = worst.max(max_abs_diff(approx.as_slice(), exact.as_slice()));
            }
        }
    }
    worst
}

/// The gated latency figure of the paced phase: the median latency of
/// each pool position's own requests, averaged over the pool — which is
/// over the traffic, every position being sent equally often (`latencies`
/// is in send order and request `i` is pool op `i % POOL`). The same
/// definition as `infer_library`'s.
///
/// Not the pooled median: GEMM service times fall into some fifty
/// clusters (the kernel's 4-row steps × 3 weight widths), the pooled p50
/// sits on the edge between two of them 10 % apart, and which one it
/// read flipped between runs of one seed on a quiet host (0.172 / 0.188
/// ms) while this figure stayed within 2.5 %. The pooled percentiles are
/// printed beside it.
fn per_request_median(latencies: &Samples) -> f64 {
    let mut by_position = vec![Samples::new(); POOL];
    for (i, &latency) in latencies.values().iter().enumerate() {
        by_position[i % POOL].push(latency);
    }
    by_position
        .iter()
        .filter(|s| !s.is_empty())
        .map(Samples::p50)
        .collect::<Samples>()
        .mean()
}

fn references_fnv(references: &[Tensor]) -> u64 {
    let mut fnv = Fnv::default();
    for r in references {
        fnv.floats(r.as_slice());
    }
    fnv.finish()
}

/// The end-to-end run of `serve_mix` / `serve_remote`.
pub fn run(args: RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let backend = backend(args.workload);
    let (ctx, setup_s) = median_setup(
        || setup(args.seed, &backend),
        |old| drop(old.engine.finish()),
    );
    let Ctx { mix, engine, warm } = ctx;

    // Solo references for every pool op (not part of set-up: a user
    // does not compute them).
    let references = mix.references();
    let warm_ok = warm.errors == 0 && warm.output_fnv == references_fnv(&references);
    if !warm_ok {
        out.problems
            .push("warm-up outputs differ from the solo references".to_string());
    }

    // Two thirds of the run go to the paced phase: a lone request on an
    // otherwise idle engine feels every second-scale swing of the host's
    // speed, and its median needs the longer sample more than the
    // capacity phase's throughput does.
    let (paced_s, capacity_s) = (args.seconds * 2.0 / 3.0, args.seconds / 3.0);
    let loaded = load_phases(
        engine,
        &mix,
        &references,
        &backend,
        args.seed,
        paced_s,
        capacity_s,
    );

    // Expired and degraded requests are already in `failed()`: their
    // tickets came back as an error or with `degrade` set.
    out.attempted = loaded.attempted();
    out.failed = loaded.failed();

    out.set("setup_s", setup_s);
    out.set("throughput_ops_s", loaded.capacity.throughput());
    if let Err(why) = loaded.paced.latencies.gated_percentile(50.0) {
        out.problems.push(format!("latency_p50_ms: {why}"));
    }
    let latency_ms = per_request_median(&loaded.paced.latencies) * 1e3;
    out.set("latency_p50_ms", latency_ms);
    // Stateless requests stream nothing: first output = only output.
    out.set("ttft_p50_ms", latency_ms);
    out.set(
        "modeled_ops_s",
        loaded.capacity_requests() / loaded.capacity_summary.report.batched_seconds,
    );
    out.set(
        "modeled_uj_per_op",
        loaded.capacity_summary.modeled_joules_per_request() * 1e6,
    );
    out.set("cpwl_max_abs_err", cpwl_error());
    out.set("peak_rss_mb", peak_rss_mb(&[]) + loaded.workers_rss_mb);

    out.exact("warmup.ops", POOL);
    out.exact("warmup.unbatched_cycles", warm.unbatched_cycles);
    out.exact("warmup.output_fnv", format!("{:016x}", warm.output_fnv));
    loaded.note_phases(&mut out);
    out.note(format!(
        "  modeled makespan at capacity {:.3} ms over {} requests ({:.2}x coalescing); failed {} of {}",
        loaded.capacity_summary.report.batched_seconds * 1e3,
        loaded.capacity_summary.report.requests,
        loaded.capacity_summary.modeled_speedup(),
        out.failed,
        out.attempted
    ));
    out
}

/// Levels of the onion for one op class on this backend, innermost
/// first.
fn levels(class: Class, remote: bool) -> Vec<&'static str> {
    let mut l = vec!["kernel"];
    if class == Class::Cnn {
        l.push("plan.exec");
    }
    l.push("core.batch");
    if remote {
        l.push("core.net");
    }
    l.push("core.serve");
    l
}

/// The traced run: the onion per op class, a loaded pass for the queue
/// and window counters, and the probes of the layers on this path.
pub fn run_traced(args: RunArgs) -> (RunOutput, Recorder) {
    let mut out = RunOutput::default();
    let remote = args.workload == Workload::ServeRemote;
    let backend = backend(args.workload);
    let cfg = array();
    let onion_ops = probes::onion_ops(args.seconds);

    let Ctx { mix, engine, .. } = setup(args.seed, &backend);
    let references = mix.references();
    let mut batch = BatchEngine::new(OneSa::with_parallelism(cfg.clone(), PAR), 0.25)
        .expect("0.25 is a valid granularity");
    let mut table_cache = TableCache::new();
    table_cache.seed_shared(mix.tables.clone());
    let t0 = Instant::now();
    let mut worker = remote.then(|| {
        WorkerHandle::spawn(0, Transport::Unix, Some(&worker_exe()), &cfg, PAR, 0.25)
            .expect("worker spawns")
    });
    let spawn_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- the onion: every op at every public entry point, one level
    // at a time over the same op sequence, innermost level first, so
    // that each level runs in its own steady state (the levels of one
    // op back to back would hand each outer level warm caches).
    let mut rec = Recorder::new(true);
    let classes = [Class::Gemm, Class::Nonlinear, Class::Cnn];
    let class_of = |i: usize| {
        classes
            .iter()
            .position(|&c| c == Mix::class(i))
            .expect("class listed")
    };
    let mut onions: Vec<Onion> = classes
        .iter()
        .map(|&c| Onion::new(c.name(), &levels(c, remote)))
        .collect();
    // The first `onion_ops` requests of each class, in stream order.
    let mut taken = [0usize; 3];
    let ops: Vec<usize> = (0..POOL)
        .cycle()
        .take(8 * onion_ops)
        .filter(|&i| {
            let c = class_of(i);
            taken[c] += 1;
            taken[c] <= onion_ops
        })
        .collect();
    let parent_of = |i: usize, level: &str| -> Option<&'static str> {
        let l = levels(Mix::class(i), remote);
        l.iter()
            .position(|n| *n == level)
            .and_then(|p| l.get(p + 1).copied())
    };
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let mut kernel_times: [Vec<KernelTimes>; 3] = Default::default();
    let cnn_plan = KernelPlan::of_program(&mix.cnn, mix.tables.clone(), args.seed);

    for (op, &i) in ops.iter().enumerate() {
        let plan = match Mix::class(i) {
            Class::Cnn => None,
            _ => Some(mix.kernel_plan(i, args.seed)),
        };
        let plan = plan.as_ref().unwrap_or(&cnn_plan);
        let (kt, d) = rec.time(op as u64, "kernel", parent_of(i, "kernel"), || {
            plan.replay()
        });
        kernel_times[class_of(i)].push(kt);
        durations[op].push(d);
    }
    for (op, &i) in ops.iter().enumerate() {
        if let MixOp::Cnn { x } = &mix.ops[i] {
            let (_, d) = rec.time(op as u64, "plan.exec", parent_of(i, "plan.exec"), || {
                mix.cnn
                    .run(std::slice::from_ref(x), PAR, &mut table_cache)
                    .expect("compiled program runs")
            });
            durations[op].push(d);
        }
    }
    for (op, &i) in ops.iter().enumerate() {
        let request = mix.request(i);
        let (_, d) = rec.time(op as u64, "core.batch", parent_of(i, "core.batch"), || {
            batch.submit_checked(request).expect("request validates");
            batch.run().expect("batch runs")
        });
        durations[op].push(d);
    }
    if let Some(w) = worker.as_mut() {
        for (op, &i) in ops.iter().enumerate() {
            let request = mix.request(i);
            let (_, d) = rec.time(op as u64, "core.net", parent_of(i, "core.net"), || {
                w.run_window(&[(op as u64, &request)])
                    .expect("worker answers")
            });
            durations[op].push(d);
        }
    }
    let mut submit_s = Samples::new();
    for (op, &i) in ops.iter().enumerate() {
        let request = mix.request(i);
        let mut submitted = 0.0;
        let (served, d) = rec.time(op as u64, "core.serve", None, || {
            let t0 = Instant::now();
            let ticket = engine.submit(request).expect("queue open");
            submitted = t0.elapsed().as_secs_f64();
            ticket.wait().expect("request serves")
        });
        submit_s.push(submitted);
        durations[op].push(d);
        if !same_bits(served.output.as_slice(), references[i].as_slice()) {
            out.failed += 1;
        }
        onions[class_of(i)].push(&durations[op], served.stats.seconds());
    }
    out.attempted = ops.len() as u64;

    // ---- unloaded latency of the mix in stream order (the no-queue
    // baseline of the paced phase), and what span recording adds to it.
    let serve_one = |i: usize| {
        let request = mix.request(i);
        engine.submit(request).expect("queue open").wait()
    };
    let unloaded_p50 = (0..onion_ops)
        .map(|i| timed(|| serve_one(i)))
        .collect::<Samples>()
        .p50();
    out.set(
        "trace.overhead_frac",
        probes::trace_overhead(onion_ops, serve_one),
    );

    // ---- loaded pass: queueing, windows, coalescing, the socket cache.
    let phase_s = args.seconds / 3.0;
    let loaded = load_phases(
        engine,
        &mix,
        &references,
        &backend,
        args.seed,
        phase_s,
        phase_s,
    );
    out.attempted += loaded.attempted();
    out.failed += loaded.failed();
    let paced_p50 = loaded.paced.latencies.p50();
    let queue: Samples = loaded.paced.records.iter().map(|r| r.queue_s).collect();
    let cap = &loaded.capacity_summary;
    let windows = cap.windows.max(1) as f64;
    let groups = (cap.report.gemm_groups + cap.report.nonlinear_groups) as f64;
    // GEMM ops offered per request of the mix: one per GEMM request plus
    // the CNN program's GEMM nodes, weighted 5 : 1 over 8 requests.
    let cnn_gemms = mix
        .cnn
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, onesa_plan::Op::Gemm { .. }))
        .count() as f64;
    let gemm_ops = loaded.capacity_requests() * (5.0 + cnn_gemms) / 8.0;
    out.set("plan.exec.groups_per_window", groups / windows);
    out.set(
        "plan.exec.coalesce_ratio",
        gemm_ops / cap.report.gemm_groups as f64,
    );
    out.set(
        "core.batch.requests_per_group",
        loaded.capacity_requests() / groups,
    );
    out.set("core.serve.queue_us_p50", queue.p50() * 1e6);
    out.set("core.serve.queue_us_p90", queue.percentile(90.0) * 1e6);
    out.set(
        "core.serve.latency_p90_ms",
        loaded.paced.latencies.percentile(90.0) * 1e3,
    );
    out.set(
        "core.serve.latency_p99_ms",
        loaded.paced.latencies.percentile(99.0) * 1e3,
    );
    out.set(
        "core.serve.requests_per_window",
        loaded.capacity_requests() / windows,
    );
    // Busy share of the capacity rounds alone (the engine idles while
    // the paced rounds run, which `ShardStats::occupancy` would count).
    out.set(
        "core.serve.shard_occupancy",
        cap.shards[0].busy_seconds / loaded.capacity.elapsed_s,
    );
    out.set("core.serve.peak_queue_depth", cap.peak_queue_depth as f64);
    let both = [&loaded.paced_summary, &loaded.capacity_summary];
    out.set(
        "core.serve.expired",
        both.iter().map(|s| s.expired).sum::<usize>() as f64,
    );
    out.set(
        "core.serve.degraded",
        both.iter().map(|s| s.degraded).sum::<usize>() as f64,
    );
    out.set("loadgen.sent", loaded.attempted() as f64);
    out.set(
        "loadgen.completed",
        (loaded.paced.completed + loaded.capacity.completed) as f64,
    );
    out.set(
        "loadgen.lateness_p99_ms",
        loaded.paced.lateness.percentile(99.0) * 1e3,
    );
    out.set("loadgen.backlog_at_end", loaded.paced.backlog_at_end as f64);
    out.set("trace.unloaded_over_paced_p50", unloaded_p50 / paced_p50);

    // ---- per-layer figures out of the onion.
    let pooled = |name: &str, selfs: bool| -> Samples {
        onions
            .iter()
            .filter_map(|o| {
                o.level(name)
                    .map(|l| if selfs { &o.selfs[l] } else { &o.durations[l] })
            })
            .flat_map(|s| s.values().iter().copied())
            .collect()
    };
    let [gemm_times, nonlinear_times, cnn_times] = &kernel_times;
    out.set(
        "tensor.matmul_mix_us_p50",
        per_call_us_p50(gemm_times, Family::Gemm),
    );
    let (macs, gemm_s) = gemm_times
        .iter()
        .fold((0u64, 0.0), |(m, s), t| (m + t.macs, s + t.gemm_s));
    out.set("tensor.matmul_mix_gflops", 2.0 * macs as f64 / gemm_s / 1e9);
    out.set(
        "tensor.matmul_im2col_us_p50",
        per_call_us_p50(cnn_times, Family::Gemm),
    );
    out.set(
        "tensor.mhp_us_p50",
        per_call_us_p50(nonlinear_times, Family::Mhp),
    );
    out.set(
        "tensor.quant_us_p50",
        per_call_us_p50(cnn_times, Family::Quant),
    );
    out.set(
        "tensor.im2col_us_p50",
        per_call_us_p50(cnn_times, Family::Im2col),
    );
    out.set(
        "cpwl.ipf_us_p50",
        per_call_us_p50(nonlinear_times, Family::Ipf),
    );
    out.set(
        "cpwl.eval_melem_s",
        cpwl_melem_s(kernel_times.iter().flatten()),
    );
    out.set("cpwl.table_build_us", probes::table_build_us());
    let (macs, bytes) = (0..POOL)
        .map(|i| mix.macs_and_bytes(i))
        .fold((0u64, 0u64), |(m, b), (dm, db)| (m + dm, b + db));
    out.set("tensor.macs_per_op", macs as f64 / POOL as f64);
    out.set("tensor.bytes_per_op", bytes as f64 / POOL as f64);

    let exec = onions[2]
        .level("plan.exec")
        .expect("cnn onion has plan.exec");
    out.set(
        "plan.exec.solo_us_p50",
        onions[2].durations[exec].p50() * 1e6,
    );
    out.set("plan.exec.self_us_p50", onions[2].selfs[exec].p50() * 1e6);
    out.set(
        "plan.exec.self_us_per_node",
        onions[2].selfs[exec].mean() / mix.cnn.nodes().len() as f64 * 1e6,
    );
    out.set(
        "core.batch.run_us_p50",
        pooled("core.batch", false).p50() * 1e6,
    );
    out.set(
        "core.batch.self_us_p50",
        pooled("core.batch", true).p50() * 1e6,
    );
    out.set("core.serve.submit_us_p50", submit_s.p50() * 1e6);
    out.set(
        "core.serve.self_us_p50",
        pooled("core.serve", true).p50() * 1e6,
    );
    out.set("core.serve.unloaded_ms_p50", unloaded_p50 * 1e3);

    // ---- probes of single calls on this path.
    let any_request = |i: usize| mix.request(i);
    out.set(
        "core.batch.request_clone_us_p50",
        (0..POOL)
            .map(|i| {
                let r = any_request(i);
                timed(|| r.clone())
            })
            .collect::<Samples>()
            .p50()
            * 1e6,
    );
    out.set(
        "plan.program.clone_us_p50",
        sample(256, || mix.cnn.clone()).p50() * 1e6,
    );
    out.set(
        "plan.program.validate_us_p50",
        sample(256, || mix.cnn.validate()).p50() * 1e6,
    );
    let mode = cpwl_mode();
    let model = SmallCnn::new(11, 3, 10);
    let t0 = Instant::now();
    let raw = model
        .compile((&mode, (CNN_HW, CNN_HW)))
        .expect("CNN compiles");
    out.set("nn.compile_us", t0.elapsed().as_secs_f64() * 1e6);
    out.set(
        "plan.opt.optimize_us",
        sample(5, || raw.optimize(OptLevel::default())).p50() * 1e6,
    );

    // sim: the admission path costs every request once.
    let mut cost = Samples::new();
    let mut cycles = 0u64;
    let mut modeled_macs = 0u64;
    for i in 0..POOL {
        let t0 = Instant::now();
        let (op_cycles, op_macs) = mix.modeled(i, &cfg);
        cost.push(t0.elapsed().as_secs_f64());
        cycles += op_cycles;
        modeled_macs += op_macs;
    }
    out.set("sim.cost_us_p50", cost.p50() * 1e6);
    out.set("sim.modeled_cycles_per_op", cycles as f64 / POOL as f64);
    out.set(
        "sim.array_utilization",
        modeled_macs as f64 / (cycles as f64 * cfg.peak_macs_per_cycle() as f64),
    );
    let mut shapes: Vec<(usize, usize, usize)> = mix
        .ops
        .iter()
        .filter_map(|op| match op {
            MixOp::Gemm { a, weight } => Some((a.dims()[0], K, mix.weights[*weight].dims()[1])),
            _ => None,
        })
        .collect();
    shapes.extend(cnn_plan.gemm_shapes());
    probes::sim_error(&mut out, &shapes, (48, 64), args.seed);

    // core.net / plan.wire: only the process backend crosses them.
    if let Some(mut w) = worker.take() {
        out.set("core.net.spawn_ms", spawn_ms);
        out.set(
            "core.net.ping_us_p50",
            sample(256, || {
                w.ping(Duration::from_secs(5)).expect("worker answers")
            })
            .p50()
                * 1e6,
        );
        out.set(
            "core.net.run_window_us_p50",
            pooled("core.net", false).p50() * 1e6,
        );
        out.set("core.net.self_us_p50", pooled("core.net", true).p50() * 1e6);
        let wire_bytes: u64 = (0..POOL).map(|i| mix.wire_bytes(i, &references[i])).sum();
        out.set(
            "core.net.wire_bytes_per_op",
            wire_bytes as f64 / POOL as f64,
        );
        let all = [&loaded.paced_summary, &loaded.capacity_summary];
        let full: usize = all.iter().map(|s| s.wire_cache.full_sends).sum();
        let refs: usize = all.iter().map(|s| s.wire_cache.ref_sends).sum();
        out.set("core.net.full_sends", full as f64);
        out.set("core.net.ref_sends", refs as f64);
        out.set(
            "core.net.cache_hit_ratio",
            refs as f64 / (full + refs).max(1) as f64,
        );
        out.set(
            "core.net.failovers",
            all.iter().map(|s| s.failovers).sum::<usize>() as f64,
        );
        w.shutdown();

        let program_bytes = wire::encode_program(&mix.cnn);
        out.set(
            "plan.wire.encode_program_us_p50",
            sample(64, || wire::encode_program(&mix.cnn)).p50() * 1e6,
        );
        out.set(
            "plan.wire.decode_program_us_p50",
            sample(64, || {
                wire::decode_program(&program_bytes).expect("round trip")
            })
            .p50()
                * 1e6,
        );
        let tensor = &mix.weights[2];
        let tensor_bytes = wire::encode_tensor(tensor);
        let mb = tensor_bytes.len() as f64 / 1e6;
        out.set(
            "plan.wire.encode_tensor_mb_s",
            mb / sample(256, || wire::encode_tensor(tensor)).p50(),
        );
        out.set(
            "plan.wire.decode_tensor_mb_s",
            mb / sample(256, || {
                wire::decode_tensor(&tensor_bytes).expect("round trip")
            })
            .p50(),
        );

        // The control: the same capacity phase in-process, same seed.
        let local = start_engine(&ShardBackend::InProcess);
        let _ = warm_up(&local, &mix, 2 * IN_FLIGHT);
        let control = loadgen::run_closed(
            Budget::For(Duration::from_secs_f64(phase_s)),
            IN_FLIGHT,
            |i| local.submit(mix.request(i)).expect("queue open"),
            |i, ticket: Ticket| collect(ticket.wait(), &references[i % POOL]),
        );
        drop(local.finish());
        let local_tput = control.throughput();
        let remote_tput = loaded.capacity.throughput();
        out.set("core.net.wire_overhead_x", local_tput / remote_tput);
        out.note(format!(
            "  capacity in-process {local_tput:.0} ops/s vs through the worker {remote_tput:.0} ops/s"
        ));
    }

    loaded.note_phases(&mut out);
    out.note(format!(
        "  paced p50 {:.1} us = unloaded p50 {:.1} us + {:.1} us, of which queueing (core.serve.queue_us_p50) {:.1} us and generator lateness p50 {:.1} us (latency counts from the due time)",
        paced_p50 * 1e6,
        unloaded_p50 * 1e6,
        (paced_p50 - unloaded_p50) * 1e6,
        queue.p50() * 1e6,
        loaded.paced.lateness.p50() * 1e6
    ));
    finish_traced(&mut out, &onions.iter().collect::<Vec<_>>(), args.workload);
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_figure_is_each_positions_median_averaged() {
        // Three cycles through the pool. Position 0 reads 1, 2, 90 (an
        // outlier its median ignores), every other position reads 4.
        let mut latencies = Samples::new();
        for cycle in 0..3 {
            for position in 0..POOL {
                latencies.push(match (position, cycle) {
                    (0, 0) => 1.0,
                    (0, 1) => 2.0,
                    (0, _) => 90.0,
                    _ => 4.0,
                });
            }
        }
        let want = (2.0 + 4.0 * (POOL - 1) as f64) / POOL as f64;
        assert!((per_request_median(&latencies) - want).abs() < 1e-12);
        // A run shorter than one cycle averages the positions it reached.
        let short: Samples = [3.0, 5.0].into_iter().collect();
        assert_eq!(per_request_median(&short), 4.0);
    }
}
