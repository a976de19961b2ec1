//! Batched serving on top of the [`OneSa`] engine.
//!
//! A deployed accelerator rarely sees one request at a time. The
//! [`BatchEngine`] accepts a queue of independent inference requests
//! and serves the whole queue at once.
//!
//! # One request kind
//!
//! ONE-SA runs the linear and the nonlinear work on one array, and the
//! host that feeds it has one request kind to match: a compiled
//! [`Program`] — an operator graph emitted by `onesa_nn`'s models via
//! [`crate::plan::Compile`], or built by hand — plus its input tensors.
//! [`Request::gemm`] and [`Request::nonlinear`] are shorthands for the
//! two smallest programs there are, and [`Request::lower`] turns them
//! into exactly that at the front door of every engine
//! ([`BatchEngine::run`], the admission thread of [`crate::serve`],
//! [`crate::net::WorkerHandle::run_window`]):
//!
//! * `Request::gemm(a, W)` → an [`EvalMode::Exact`] program whose one
//!   op is `input · W`, with `W` a constant on the caller's storage (a
//!   [`Tensor`] clone shares its buffer, so a weight sent again is never
//!   copied; it is hashed once when the program is built — the request's
//!   one weight hash, whose 64 independent lanes run at about memory
//!   speed: ~5 µs for a `[256, 128]` weight, a fraction of even a 16-row
//!   GEMM against it — and a group member on its leader's buffer joins
//!   the group without a second read);
//! * `Request::nonlinear(f, x)` → an [`EvalMode::Cpwl`] program at the
//!   engine's granularity whose one op is `f(input)`.
//!
//! Past the front door nothing asks what a request used to be. Its
//! admission weight is its program's `modeled_macs`, its affinity key
//! its program's `fingerprint`, its validation its program's, and on
//! the wire it travels as a program.
//!
//! # Serving a queue
//!
//! 1. **Coalescing.** The queue's programs execute **stage by stage**
//!    through [`crate::plan::run_staged`], which applies two rules at
//!    *every* stage. GEMMs that multiply against the *same* constant
//!    matrix are stacked into one GEMM — row-wise for a shared right
//!    operand (classic serving-time batching: many activations, one
//!    weight load), column-wise for a shared left one (a GCN's Â).
//!    Nonlinear / softmax / layer-norm ops that share a function,
//!    granularity and parameters are concatenated into a single
//!    IPF + MHP pass, amortizing Intermediate Parameter Fetching. A
//!    lowered GEMM or nonlinear is a stage-0 op like any other: bare
//!    requests coalesce with each other *and* with the first layer of
//!    whole networks that share their weights or function.
//! 2. **Execution.** Each coalesced group runs through the host backend
//!    ([`onesa_tensor::parallel`]) on the calling thread.
//! 3. **Accounting.** Every request gets back its own output tensor
//!    and the [`ExecStats`] of its program run alone
//!    ([`RequestOutcome::stats`]; the per-op split is the program's own
//!    [`Program::op_stats`]); per-stage
//!    accounting lands in [`BatchRun::program_stages`]; the whole run
//!    is summarized in a [`ServingReport`] with aggregate throughput
//!    and latency percentiles, including the cycles the array saves by
//!    batching (fewer wavefront fills, drains and IPF passes). For one
//!    run, [`ServingReport::gemm_groups`] is the number of distinct
//!    (stage, weight matrix) pairs in the queue and
//!    [`ServingReport::nonlinear_groups`] the number of distinct
//!    (stage, function, granularity) ones — for a queue of bare
//!    requests, its distinct weights and its distinct functions.
//!
//! Coalescing is transparent: each request's rows/elements go through
//! exactly the same floating-point op sequence as a solo run, so outputs
//! are bit-identical to serving the queue one request at a time.
//!
//! For asynchronous admission (submitting while a batch executes) and
//! sharding a queue across several simulated arrays, see
//! [`crate::serve`], which runs one `BatchEngine` per shard.
//!
//! # Example
//!
//! ```
//! use onesa_core::{BatchEngine, OneSa, Request};
//! use onesa_cpwl::NonlinearFn;
//! use onesa_sim::ArrayConfig;
//! use onesa_tensor::rng::Pcg32;
//!
//! let mut rng = Pcg32::seed_from_u64(1);
//! let weights = rng.randn(&[16, 8], 1.0);
//! let mut serving = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25)?;
//! for _ in 0..3 {
//!     serving.submit(Request::gemm(rng.randn(&[4, 16], 1.0), weights.clone()));
//! }
//! serving.submit(Request::nonlinear(NonlinearFn::Gelu, rng.randn(&[4, 8], 1.0)));
//! let run = serving.run()?;
//! assert_eq!(run.outcomes.len(), 4);
//! assert!(run.report.batching_speedup() > 1.0); // 3 GEMMs shared one pass
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```
//!
//! # A worked coalescing example
//!
//! Row stacking and concatenation are literal: the engine executes the
//! stacked operands as one kernel call and slices each request's share
//! back out. The doctest below spells the transformation out by hand and
//! checks it against the engine, for both coalescing rules.
//!
//! ```
//! use onesa_core::{BatchEngine, OneSa, Request};
//! use onesa_cpwl::ops::TableSet;
//! use onesa_cpwl::NonlinearFn;
//! use onesa_sim::ArrayConfig;
//! use onesa_tensor::{gemm, rng::Pcg32, Tensor};
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let w = rng.randn(&[6, 4], 1.0);             // shared [K=6, N=4] weights
//! let a0 = rng.randn(&[2, 6], 1.0);            // request 0: 2 activation rows
//! let a1 = rng.randn(&[3, 6], 1.0);            // request 1: 3 activation rows
//!
//! // Shared-weight row stacking: the engine runs ONE [5, 6] x [6, 4]
//! // GEMM instead of a [2, 6] and a [3, 6] one...
//! let mut stacked = a0.as_slice().to_vec();
//! stacked.extend_from_slice(a1.as_slice());
//! let tall = Tensor::from_vec(stacked, &[5, 6])?;
//! let product = gemm::matmul(&tall, &w)?;
//!
//! // ...and each request gets its own rows back, bit-identical to solo.
//! let mut serving = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25)?;
//! serving.submit(Request::gemm(a0.clone(), w.clone()));
//! serving.submit(Request::gemm(a1.clone(), w.clone()));
//! // Same-function concatenation: both GELU requests share one IPF + MHP
//! // pass over their concatenated elements.
//! let x0 = rng.randn(&[1, 3], 1.0);
//! let x1 = rng.randn(&[2, 2], 1.0);
//! serving.submit(Request::nonlinear(NonlinearFn::Gelu, x0.clone()));
//! serving.submit(Request::nonlinear(NonlinearFn::Gelu, x1.clone()));
//!
//! let run = serving.run()?;
//! assert_eq!(run.report.gemm_groups, 1);        // 2 GEMMs -> 1 kernel call
//! assert_eq!(run.report.nonlinear_groups, 1);   // 2 GELUs -> 1 IPF + MHP
//! assert_eq!(run.outcomes[0].output.as_slice(), &product.as_slice()[..8]);
//! assert_eq!(run.outcomes[1].output.as_slice(), &product.as_slice()[8..]);
//! let tables = TableSet::for_granularity(0.25).unwrap();
//! assert_eq!(run.outcomes[2].output, tables.gelu(&x0).unwrap());
//! assert_eq!(run.outcomes[3].output, tables.gelu(&x1).unwrap());
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::engine::OneSa;
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_plan::{self as plan, EvalMode, Op, Program, StageGroups, TableCache};
use onesa_sim::ExecStats;
use onesa_tensor::{Result, Tensor, TensorError};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Identifier handed back by [`BatchEngine::submit`].
pub type RequestId = usize;

/// One inference request in the serving queue: the work to run plus its
/// input tensors.
///
/// Callers build one with [`Request::gemm`], [`Request::nonlinear`] or
/// [`Request::program`]; the first two are shorthands that
/// [`Request::lower`] turns into one-op programs at the front door of
/// every engine, so past it there is one request kind.
#[derive(Debug, Clone)]
pub struct Request {
    work: Work,
    inputs: Vec<Tensor>,
}

/// What a [`Request`] runs. Only the constructors and
/// [`Request::lower`] look at this.
#[derive(Debug, Clone)]
enum Work {
    /// `inputs[0] · weights`. Lowering registers a clone of the weights
    /// as a program constant, which shares their storage.
    Gemm(Tensor),
    /// A pointwise evaluation of `inputs[0]` through the CPWL tables.
    Nonlinear(NonlinearFn),
    /// A compiled operator graph (boxed to keep the request small).
    Program(Box<Program>),
}

impl Request {
    /// `a · b` — `b` is typically a weight matrix shared across
    /// requests. Lowers to a one-op [`EvalMode::Exact`] program with `b`
    /// as its constant.
    pub fn gemm(a: Tensor, b: Tensor) -> Self {
        Request {
            work: Work::Gemm(b),
            inputs: vec![a],
        }
    }

    /// A pointwise nonlinear evaluation of `x` (any shape) through the
    /// CPWL tables. Lowers to a one-op [`EvalMode::Cpwl`] program at the
    /// serving engine's granularity.
    pub fn nonlinear(func: NonlinearFn, x: Tensor) -> Self {
        Request {
            work: Work::Nonlinear(func),
            inputs: vec![x],
        }
    }

    /// A compiled whole-network request: an operator-graph [`Program`]
    /// plus one tensor per program input slot.
    pub fn program(program: Program, inputs: Vec<Tensor>) -> Self {
        Request {
            work: Work::Program(Box::new(program)),
            inputs,
        }
    }

    /// Lowers the request in place to the one kind the engines execute:
    /// a [`Program`] plus its inputs. A program request is already
    /// there; a GEMM becomes an exact-mode program whose only op
    /// multiplies the input by the weight constant (on the weights'
    /// storage, never copied), and a nonlinear a CPWL-mode program at `granularity`
    /// whose only op evaluates the function. Building the program
    /// validates it and reads a GEMM weight's fingerprint from the
    /// weight's storage, which hashes it once per buffer: a client that
    /// resubmits one weight (a clone sharing its storage) pays the hash
    /// with its first request only, and the packs the kernels read the
    /// weight in are kept there the same way. The scheduler and the wire
    /// cache read the recorded fingerprint afterwards.
    ///
    /// # Errors
    ///
    /// What validation reports for the malformed request — a GEMM whose
    /// operands are not matrices with matching inner dimensions, a
    /// function outside the table set, a zero-sized operand. The
    /// request is left untouched.
    pub fn lower(&mut self, granularity: f32) -> Result<()> {
        let program = match &self.work {
            Work::Program(_) => return Ok(()),
            Work::Gemm(weights) => {
                let mut b = Program::builder("gemm", EvalMode::Exact);
                let a = b.input(self.inputs[0].dims());
                let w = b.constant(weights.clone());
                b.push(
                    Op::Gemm {
                        bias: None,
                        sparsity: None,
                    },
                    &[a, w],
                );
                b.finish()?
            }
            Work::Nonlinear(func) => {
                let mode = EvalMode::Cpwl {
                    granularity,
                    quantize: false,
                };
                let mut b = Program::builder("nonlinear", mode);
                let x = b.input(self.inputs[0].dims());
                b.push(Op::Nonlinear(*func), &[x]);
                b.finish()?
            }
        };
        self.work = Work::Program(Box::new(program));
        Ok(())
    }

    /// The whole admission check, shared by every front door: lower the
    /// request at `granularity`, then check its inputs against its
    /// program's input slots. The program itself needs no second look —
    /// a [`Program`] value is sealed (validated once when it was built,
    /// re-targeted or decoded, and immutable since).
    pub(crate) fn check(&mut self, granularity: f32) -> Result<()> {
        self.lower(granularity)?;
        let (program, inputs) = self.lowered();
        program.check_inputs(inputs)
    }

    /// The program the request runs and its inputs; `None` until
    /// [`Request::lower`] has run (always `Some` for a request built
    /// with [`Request::program`]).
    pub fn as_program(&self) -> Option<(&Program, &[Tensor])> {
        match &self.work {
            Work::Program(program) => Some((program, &self.inputs)),
            _ => None,
        }
    }

    /// [`Request::as_program`] for code behind a front door.
    ///
    /// # Panics
    ///
    /// Panics on a request no front door lowered — a bug in this crate.
    pub(crate) fn lowered(&self) -> (&Program, &[Tensor]) {
        self.as_program()
            .expect("request was lowered at the front door")
    }

    /// The program half of [`Request::lowered`].
    pub(crate) fn lowered_program(&self) -> &Program {
        self.lowered().0
    }

    /// Swaps in a re-compiled program (the degrade ladder's step).
    pub(crate) fn replace_program(&mut self, program: Program) {
        self.work = Work::Program(Box::new(program));
    }
}

/// Per-request result of a serving run.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The id [`BatchEngine::submit`] returned.
    pub(crate) id: RequestId,
    /// The request's output tensor (bit-identical to a solo run).
    pub output: Tensor,
    /// Simulated array stats for this request run alone
    /// ([`Program::solo_stats`]).
    pub stats: ExecStats,
    /// Session-state tensors the request's program produced (the grown
    /// per-layer KV caches of a decoder prefill/decode step), in the
    /// program's `session_outputs` order. Empty for stateless programs.
    /// The serving layer ([`crate::serve`]) writes these back into the
    /// session table.
    pub(crate) session_outputs: Vec<Tensor>,
}

/// Aggregate statistics of one [`BatchEngine::run`] (or, aggregated
/// across shards, of one [`crate::serve::ServeEngine`] lifetime).
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Number of requests served. Zero is legal (an empty queue produces
    /// an empty report, and every derived metric stays finite).
    pub requests: usize,
    /// Host wall-clock seconds for the whole run — queue coalescing plus
    /// kernel execution on the host backend. Machine-dependent; the
    /// simulated-seconds fields below are the deterministic quantities.
    pub wall_seconds: f64,
    /// Simulated array seconds for the schedule actually executed: the
    /// coalesced batches, at the array's configured clock. For a sharded
    /// run this is the *makespan* — the busiest shard's total, since the
    /// simulated arrays run concurrently.
    pub batched_seconds: f64,
    /// Simulated array seconds had each request run alone, back to back,
    /// on a single array (the sum of [`RequestOutcome::stats`] times).
    /// The numerator of [`ServingReport::batching_speedup`].
    pub unbatched_seconds: f64,
    /// Total multiply-accumulates across all requests (each MAC is one
    /// paper "operation": a multiply plus an add).
    pub total_macs: u64,
    /// Total CPWL nonlinear evaluations across all requests (0 for a
    /// GEMM-only queue).
    pub total_nonlinear_evals: u64,
    /// Number of coalesced GEMM kernel calls: ops of one stage sharing
    /// a weight matrix count once. For one [`BatchEngine::run`] this
    /// equals the number of distinct (stage, weight matrix) pairs in
    /// the queue — for a queue of bare GEMMs, its distinct weights;
    /// reports aggregated across shards/windows by [`crate::serve`] sum
    /// the groups of every shard-batch, so a weight served by several
    /// shards (or in several windows) counts once per kernel call, not
    /// once overall. Only [`Op::Gemm`] groups count: an [`Op::Attention`]
    /// group's per-head GEMMs are each member's own and never coalesce,
    /// so they are charged in [`ServingReport::batched_seconds`] but not
    /// counted here.
    pub gemm_groups: usize,
    /// Number of coalesced IPF + MHP passes of the single-op nonlinear
    /// stages ([`Op::Nonlinear`], [`Op::Softmax`], [`Op::LayerNorm`]):
    /// ops of one stage sharing a function and granularity count once
    /// (per run, with the same aggregation caveat as
    /// [`ServingReport::gemm_groups`]). An unmasked [`Op::Attention`]
    /// group runs one coalesced softmax pass per head, which
    /// [`ServingReport::batched_seconds`] charges but this count leaves
    /// out: it counts groups, and an attention group is a group of
    /// neither kind.
    pub nonlinear_groups: usize,
    /// Per-request simulated latencies in seconds, as a multiset over the
    /// served requests (serve-aggregated reports omit rejected ones; each
    /// request's own latency is its outcome's `stats`).
    pub latencies: Latencies,
}

impl ServingReport {
    /// Requests per second against host wall-clock time.
    pub(crate) fn wall_rps(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.requests as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Sustained GOPS of the simulated array over the batched schedule.
    pub(crate) fn batched_gops(&self) -> f64 {
        if self.batched_seconds > 0.0 {
            self.total_macs as f64 / self.batched_seconds / 1e9
        } else {
            0.0
        }
    }

    /// How much array time coalescing saved (`unbatched / batched`).
    pub fn batching_speedup(&self) -> f64 {
        if self.batched_seconds > 0.0 {
            self.unbatched_seconds / self.batched_seconds
        } else {
            1.0
        }
    }

    /// Simulated per-request latency percentile (`q` in `0..=100`),
    /// nearest-rank over the served queue.
    pub(crate) fn latency_percentile(&self, q: f64) -> f64 {
        self.latencies.percentile(q)
    }
}

/// Simulated per-request latencies as an exact multiset: each distinct
/// value — by bit pattern — held once with the number of requests that
/// took it, ordered as [`f64::total_cmp`] orders them. A modeled latency
/// is a deterministic function of a program's shapes, so an engine
/// serving a few shapes holds a few entries however many requests it
/// serves, and the nearest-rank percentiles are still those of the full
/// list. The order is total: a NaN (the values are whatever a caller or a
/// worker's decoded reply put there) ranks above every number.
#[derive(Clone, Default, PartialEq)]
pub struct Latencies(BTreeMap<i64, u64>);

/// The bits of an `f64` as a key that sorts as [`f64::total_cmp`] sorts
/// the values — a negative value's magnitude bits flipped, the map
/// `total_cmp` itself applies — and back: the map is its own inverse.
fn total_order(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl Latencies {
    /// Counts `count` more requests of `seconds`.
    fn add(&mut self, seconds: f64, count: u64) {
        *self
            .0
            .entry(total_order(seconds.to_bits() as i64))
            .or_default() += count;
    }

    /// Each distinct value and its count, in ascending order.
    fn entries(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let value = |key: i64| f64::from_bits(total_order(key) as u64);
        self.0.iter().map(move |(&key, &count)| (value(key), count))
    }

    /// Counts one request of `seconds`.
    pub(crate) fn push(&mut self, seconds: f64) {
        self.add(seconds, 1);
    }

    /// Counts every request `other` counts.
    pub(crate) fn merge(&mut self, other: &Latencies) {
        for (seconds, count) in other.entries() {
            self.add(seconds, count);
        }
    }

    /// Requests counted.
    pub fn len(&self) -> usize {
        self.0.values().map(|&count| count as usize).sum()
    }

    /// Whether no request is counted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Distinct values held: the multiset's size in memory.
    pub fn distinct(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile (`q` in `0..=100`) of the counted
    /// latencies: the value at rank `⌈q/100 · len⌉` (at least 1) of their
    /// ascending list; 0.0 when none is counted.
    pub fn percentile(&self, q: f64) -> f64 {
        let len = self.len();
        let rank = (((q / 100.0) * len as f64).ceil() as usize).clamp(1, len.max(1));
        let mut seen = 0;
        for (seconds, count) in self.entries() {
            seen += count as usize;
            if seen >= rank {
                return seconds;
            }
        }
        0.0
    }

    /// The counted latencies' sum: each distinct value times its count,
    /// added in ascending order.
    pub(crate) fn total(&self) -> f64 {
        self.entries().map(|(v, count)| v * count as f64).sum()
    }
}

impl fmt::Debug for Latencies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

impl FromIterator<f64> for Latencies {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut latencies = Latencies::default();
        for seconds in iter {
            latencies.push(seconds);
        }
        latencies
    }
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} requests in {:.3} ms wall ({:.0} req/s)",
            self.requests,
            self.wall_seconds * 1e3,
            self.wall_rps()
        )?;
        writeln!(
            f,
            "array: {:.3} ms batched vs {:.3} ms unbatched ({:.2}x from coalescing), {:.1} GOPS",
            self.batched_seconds * 1e3,
            self.unbatched_seconds * 1e3,
            self.batching_speedup(),
            self.batched_gops()
        )?;
        write!(
            f,
            "latency p50/p95/p99: {:.1} / {:.1} / {:.1} us",
            self.latency_percentile(50.0) * 1e6,
            self.latency_percentile(95.0) * 1e6,
            self.latency_percentile(99.0) * 1e6
        )
    }
}

/// Everything a serving run produces.
#[derive(Debug, Clone)]
#[must_use = "a BatchRun carries every request's output — dropping it discards results"]
pub struct BatchRun {
    /// Per-request outputs and stats, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Aggregate throughput/latency summary.
    pub report: ServingReport,
    /// Per-stage coalescing accounting of the run: how many ops
    /// executed at each stage and how many kernel groups they collapsed
    /// into (lowered GEMMs and nonlinears are stage-0 ops).
    pub program_stages: Vec<StageGroups>,
}

/// A request queue in front of a [`OneSa`] engine.
#[derive(Debug, Clone)]
pub struct BatchEngine {
    engine: OneSa,
    /// The granularity nonlinear requests lower to.
    granularity: f32,
    /// Table sets keyed by granularity (programs may be compiled at
    /// granularities other than the engine's own, whose set seeds the
    /// cache). **Persistent across runs**: a granularity is built at
    /// most once per engine lifetime, however many batches it serves —
    /// `onesa_core::serve`'s shard workers keep one engine alive across
    /// all admission windows.
    plan_tables: TableCache,
    queue: Vec<Request>,
}

impl BatchEngine {
    /// Wraps an engine, building the CPWL table set every nonlinear
    /// request evaluates through at `granularity`.
    ///
    /// # Errors
    ///
    /// Propagates table-construction failures as
    /// [`TensorError::InvalidArgument`].
    pub fn new(engine: OneSa, granularity: f32) -> Result<Self> {
        let tables = TableSet::for_granularity(granularity)
            .map_err(|_| TensorError::InvalidArgument("invalid CPWL granularity"))?;
        let mut plan_tables = TableCache::new();
        plan_tables.seed(tables);
        Ok(BatchEngine {
            engine,
            granularity,
            plan_tables,
            queue: Vec::new(),
        })
    }

    /// Number of requests waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request, returning its id (its submission index).
    ///
    /// The admission check runs in [`BatchEngine::run`]; use
    /// [`BatchEngine::submit_checked`] to reject malformed requests at
    /// the queue instead.
    pub fn submit(&mut self, request: Request) -> RequestId {
        self.queue.push(request);
        self.queue.len() - 1
    }

    /// Checks eagerly, then enqueues: a malformed request is turned
    /// away at the queue instead of poisoning the whole batch at
    /// [`BatchEngine::run`] time.
    ///
    /// # Errors
    ///
    /// The admission errors [`BatchEngine::run`] would report for this
    /// request; the queue is untouched on error.
    pub fn submit_checked(&mut self, mut request: Request) -> Result<RequestId> {
        self.validate(&mut request)?;
        Ok(self.submit(request))
    }

    /// Validates and enqueues a compiled whole-network request.
    ///
    /// # Errors
    ///
    /// As for [`BatchEngine::submit_checked`].
    pub fn submit_program(&mut self, program: Program, inputs: Vec<Tensor>) -> Result<RequestId> {
        self.submit_checked(Request::program(program, inputs))
    }

    /// Drops every pending request, returning how many were discarded.
    /// The serving layer uses this to recover a shard after rejecting a
    /// malformed batch without replaying its queue.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        n
    }

    /// The admission check, without touching the queue. A GEMM or
    /// nonlinear request is lowered at the engine's granularity
    /// ([`Request::lower`]): building its one-op program *is* its
    /// validation. A program request arrives sealed — a [`Program`]
    /// value was validated once, when it was built, re-targeted or
    /// decoded, and is immutable — so all that is left to check is the
    /// caller's part: the inputs against the program's input shapes
    /// ([`Program::check_inputs`]).
    ///
    /// # Errors
    ///
    /// The same errors [`BatchEngine::run`] would report for the
    /// request. A request that fails to lower is left as it was.
    pub(crate) fn validate(&self, request: &mut Request) -> Result<()> {
        request.check(self.granularity)
    }

    /// Serves the whole queue: lowers every request to a program, runs
    /// them stage by stage through [`plan::run_staged`] — which
    /// coalesces compatible ops across requests at every stage and
    /// executes each group through the host backend — and drains
    /// the queue.
    ///
    /// # Errors
    ///
    /// Shape errors from malformed requests (non-matrix GEMM operands,
    /// mismatched inner dimensions). On error the queue is left intact —
    /// no request is lost; remove or fix the offending request and call
    /// `run` again.
    pub fn run(&mut self) -> Result<BatchRun> {
        // One malformed request must not discard the others: every
        // entry passes the front door before the queue drains.
        let mut queue = std::mem::take(&mut self.queue);
        let granularity = self.granularity;
        let run = queue
            .iter_mut()
            .try_for_each(|entry| entry.check(granularity))
            .and_then(|()| self.run_lowered(&queue.iter().collect::<Vec<_>>()));
        if run.is_err() {
            self.queue = queue;
        }
        run
    }

    /// [`BatchEngine::run`] over requests that stay with their owner and
    /// already passed a front door ([`Request::check`]) — how a
    /// `serve` shard executes a window.
    pub(crate) fn run_lowered(&mut self, requests: &[&Request]) -> Result<BatchRun> {
        // The rest of the front door: every request's table set. A
        // granularity the table builder rejects (a sealed program's is
        // only known to be positive and finite) must fail here, before
        // anything runs. The cache is persistent, so across runs each
        // granularity is built at most once.
        for request in requests {
            if let Some(g) = request.lowered_program().mode().granularity() {
                self.plan_tables.get(g)?;
            }
        }
        let start = Instant::now();
        let cfg = self.engine.config().clone();
        let idle = ExecStats::new(&cfg, Default::default(), 0, 0);

        let jobs: Vec<(&Program, &[Tensor])> = requests.iter().map(|r| r.lowered()).collect();
        let staged = plan::run_staged(&jobs, &cfg, &mut self.plan_tables)?;
        let outcomes = staged
            .runs
            .into_iter()
            .zip(&jobs)
            .enumerate()
            .map(|(id, (run, (program, _)))| {
                Ok(RequestOutcome {
                    id,
                    output: run.output,
                    stats: program.solo_stats(&cfg)?,
                    session_outputs: run.session_outputs,
                })
            })
            .collect::<Result<Vec<_>>>()?;

        let wall_seconds = start.elapsed().as_secs_f64();
        let unbatched = outcomes.iter().fold(idle, |acc, o| acc.merged(&o.stats));
        let report = ServingReport {
            requests: outcomes.len(),
            wall_seconds,
            batched_seconds: staged.batched.seconds(),
            unbatched_seconds: unbatched.seconds(),
            total_macs: unbatched.macs,
            total_nonlinear_evals: unbatched.nonlinear_evals,
            gemm_groups: staged.gemm_groups,
            nonlinear_groups: staged.nonlinear_groups,
            latencies: outcomes.iter().map(|o| o.stats.seconds()).collect(),
        };
        Ok(BatchRun {
            outcomes,
            report,
            program_stages: staged.stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_sim::ArrayConfig;
    use onesa_tensor::gemm;
    use onesa_tensor::parallel::Parallelism;
    use onesa_tensor::rng::Pcg32;
    use std::sync::Arc;

    fn engine() -> OneSa {
        OneSa::new(ArrayConfig::new(8, 16))
    }

    #[test]
    fn coalesced_gemms_match_solo_runs() {
        let mut rng = Pcg32::seed_from_u64(1);
        let w = rng.randn(&[12, 10], 1.0);
        let other = rng.randn(&[12, 10], 1.0);
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        let inputs: Vec<Tensor> = (0..4).map(|_| rng.randn(&[5, 12], 1.0)).collect();
        for a in &inputs {
            serving.submit(Request::gemm(a.clone(), w.clone()));
        }
        serving.submit(Request::gemm(inputs[0].clone(), other.clone()));
        assert_eq!(serving.pending(), 5);
        let run = serving.run().unwrap();
        assert_eq!(serving.pending(), 0);
        for (i, a) in inputs.iter().enumerate() {
            assert_eq!(run.outcomes[i].output, gemm::matmul(a, &w).unwrap());
        }
        assert_eq!(
            run.outcomes[4].output,
            gemm::matmul(&inputs[0], &other).unwrap()
        );
        // Four requests shared one weight load: the batched schedule must
        // beat five solo schedules.
        assert!(run.report.batching_speedup() > 1.0);
    }

    #[test]
    fn coalesced_nonlinears_match_solo_runs() {
        let mut rng = Pcg32::seed_from_u64(2);
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        let xs: Vec<Tensor> = (0..3).map(|i| rng.randn(&[2 + i, 7], 1.5)).collect();
        for x in &xs {
            serving.submit(Request::nonlinear(NonlinearFn::Gelu, x.clone()));
        }
        let tables = TableSet::for_granularity(0.25).unwrap();
        let run = serving.run().unwrap();
        for (o, x) in run.outcomes.iter().zip(&xs) {
            assert_eq!(o.output, tables.gelu(x).unwrap());
            assert_eq!(o.output.dims(), x.dims());
        }
        assert_eq!(
            run.report.total_nonlinear_evals,
            xs.iter().map(|x| x.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn report_percentiles_and_throughput() {
        let mut rng = Pcg32::seed_from_u64(3);
        let w = rng.randn(&[16, 16], 1.0);
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        for m in [2usize, 4, 8, 64] {
            serving.submit(Request::gemm(rng.randn(&[m, 16], 1.0), w.clone()));
        }
        let run = serving.run().unwrap();
        let r = &run.report;
        assert_eq!(r.requests, 4);
        assert!(r.wall_seconds > 0.0);
        assert!(r.wall_rps() > 0.0);
        let p50 = r.latency_percentile(50.0);
        let p99 = r.latency_percentile(99.0);
        assert!(p50 > 0.0 && p99 >= p50);
        // The 64-row request dominates the tail.
        assert_eq!(p99, run.outcomes[3].stats.seconds());
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn empty_queue_report_is_sane() {
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        let run = serving.run().unwrap();
        let r = &run.report;
        assert!(run.outcomes.is_empty());
        assert_eq!(r.requests, 0);
        assert_eq!((r.gemm_groups, r.nonlinear_groups), (0, 0));
        // Every derived metric must stay finite on the empty report — no
        // NaN, no divide-by-zero.
        assert_eq!(r.batching_speedup(), 1.0);
        assert_eq!(r.batched_gops(), 0.0);
        assert_eq!(r.latency_percentile(50.0), 0.0);
        assert_eq!(r.latency_percentile(99.0), 0.0);
        assert!(r.wall_rps().is_finite());
        assert!(!format!("{r}").contains("NaN"));
    }

    #[test]
    fn a_nan_latency_ranks_last_instead_of_panicking() {
        // Both public latency sets accept any f64 (a worker's reply
        // rebuilds them from wire bytes); a NaN sorts above every number.
        let latencies: Latencies = [f64::NAN, 1.0, 2.0].into_iter().collect();
        let mut report = BatchEngine::new(engine(), 0.25)
            .unwrap()
            .run()
            .unwrap()
            .report;
        report.latencies = latencies.clone();
        let phase = crate::serve::PhaseStats {
            latencies,
            ..Default::default()
        };
        let qs = [0.0, 50.0, 100.0];
        for [p0, p50, p100] in [
            qs.map(|q| report.latency_percentile(q)),
            qs.map(|q| phase.latency_percentile(q)),
        ] {
            assert_eq!((p0, p50), (1.0, 2.0));
            assert!(p100.is_nan());
        }
    }

    #[test]
    fn latencies_rank_as_a_sorted_list_of_every_request_would() {
        // Signed zeros, negatives, infinities, a NaN and repeats: each
        // percentile is the full list's nearest rank, bit for bit.
        let list = [
            2.0,
            -0.0,
            f64::NAN,
            -1.0,
            0.0,
            2.0,
            f64::NEG_INFINITY,
            2.0,
            0.5,
        ];
        let latencies: Latencies = list.into_iter().collect();
        assert_eq!((latencies.len(), latencies.distinct()), (9, 7));
        let mut sorted = list.to_vec();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 10.0, 25.0, 50.0, 66.0, 67.0, 90.0, 100.0] {
            let rank = ((q / 100.0) * 9.0_f64).ceil() as usize;
            let want = sorted[rank.clamp(1, 9) - 1];
            assert_eq!(latencies.percentile(q).to_bits(), want.to_bits(), "p{q}");
        }
    }

    #[test]
    fn single_request_batch_has_unit_speedup() {
        let mut rng = Pcg32::seed_from_u64(11);
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        let a = rng.randn(&[5, 12], 1.0);
        let w = rng.randn(&[12, 7], 1.0);
        serving.submit(Request::gemm(a.clone(), w.clone()));
        let run = serving.run().unwrap();
        let r = &run.report;
        // A batch of one coalesces with nothing: the batched schedule IS
        // the solo schedule.
        assert_eq!(r.requests, 1);
        assert_eq!(r.gemm_groups, 1);
        assert!((r.batching_speedup() - 1.0).abs() < 1e-12);
        assert_eq!(r.latencies.len(), 1);
        assert_eq!(r.latency_percentile(50.0), run.outcomes[0].stats.seconds());
        assert_eq!(run.outcomes[0].output, gemm::matmul(&a, &w).unwrap());
    }

    #[test]
    fn fully_uncoalescable_gemm_queue_has_unit_speedup() {
        let mut rng = Pcg32::seed_from_u64(12);
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        // Three GEMMs with three distinct weight matrices: no two
        // requests coalesce, so each "group" is one solo schedule and
        // batched == unbatched exactly.
        for _ in 0..3 {
            serving.submit(Request::gemm(
                rng.randn(&[4, 8], 1.0),
                rng.randn(&[8, 6], 1.0),
            ));
        }
        let run = serving.run().unwrap();
        let r = &run.report;
        assert_eq!(r.requests, 3);
        assert_eq!((r.gemm_groups, r.nonlinear_groups), (3, 0));
        assert!((r.batching_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_uncoalescable_mixed_queue_report_is_sane() {
        let mut rng = Pcg32::seed_from_u64(12);
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        // Distinct weights and distinct functions: nothing coalesces.
        // (A singleton nonlinear "group" still runs as its concatenated
        // [1, len] row pass, whose skew/drain differ slightly from the
        // request's own [m, n] shape — so speedup is near, not exactly,
        // 1.0 here; the GEMM-only test above pins the exact case.)
        for _ in 0..3 {
            serving.submit(Request::gemm(
                rng.randn(&[4, 8], 1.0),
                rng.randn(&[8, 6], 1.0),
            ));
        }
        serving.submit(Request::nonlinear(
            NonlinearFn::Gelu,
            rng.randn(&[3, 5], 1.0),
        ));
        serving.submit(Request::nonlinear(
            NonlinearFn::Tanh,
            rng.randn(&[2, 5], 1.0),
        ));
        let run = serving.run().unwrap();
        let r = &run.report;
        assert_eq!(r.requests, 5);
        assert_eq!((r.gemm_groups, r.nonlinear_groups), (3, 2));
        let speedup = r.batching_speedup();
        assert!(speedup.is_finite() && speedup > 0.5 && speedup < 2.0);
        let p50 = r.latency_percentile(50.0);
        let p95 = r.latency_percentile(95.0);
        assert!(p50.is_finite() && p95.is_finite() && p95 >= p50 && p50 > 0.0);
        assert!(r.wall_rps().is_finite() && r.batched_gops().is_finite());
        assert!(!format!("{r}").contains("NaN"));
    }

    /// Lowers a request the way every front door does, returning its
    /// program's admission weight and affinity key.
    fn lowered_weight_and_key(mut request: Request) -> (u64, u64) {
        request.lower(0.25).unwrap();
        let program = request.lowered_program();
        (program.modeled_macs(), program.fingerprint())
    }

    #[test]
    fn modeled_macs_and_affinity_keys() {
        let mut rng = Pcg32::seed_from_u64(13);
        let w = rng.randn(&[8, 6], 1.0);
        let (g_macs, g_key) =
            lowered_weight_and_key(Request::gemm(rng.randn(&[4, 8], 1.0), w.clone()));
        assert_eq!(g_macs, 4 * 8 * 6);
        // A nonlinear weighs what any CPWL program does: its op's MACs
        // (the cost model's two per element) plus its table preload.
        let gelu = Request::nonlinear(NonlinearFn::Gelu, rng.randn(&[3, 5], 1.0));
        let (nl_macs, nl_key) = lowered_weight_and_key(gelu);
        let preload = TableSet::preload_segments(NonlinearFn::Gelu, 0.25).unwrap() as u64 * 2;
        assert_eq!(nl_macs, 2 * 15 + preload);
        // Shared weights agree on the affinity key whatever the row
        // count; same function too.
        let g2 = Request::gemm(rng.randn(&[9, 8], 1.0), w.clone());
        assert_eq!(g_key, lowered_weight_and_key(g2).1);
        let nl2 = Request::nonlinear(NonlinearFn::Gelu, rng.randn(&[1, 2], 1.0));
        assert_eq!(nl_key, lowered_weight_and_key(nl2).1);
        let tanh = Request::nonlinear(NonlinearFn::Tanh, rng.randn(&[1, 2], 1.0));
        assert_ne!(lowered_weight_and_key(tanh).1, nl_key);
    }

    #[test]
    fn lowering_is_in_place_idempotent_and_shares_the_weights() {
        let mut rng = Pcg32::seed_from_u64(14);
        let (a, w) = (rng.randn(&[4, 8], 1.0), rng.randn(&[8, 6], 1.0));
        let mut request = Request::gemm(a.clone(), w.clone());
        assert!(request.as_program().is_none());
        request.lower(0.25).unwrap();
        let (program, inputs) = request.as_program().unwrap();
        assert_eq!(program.mode(), EvalMode::Exact);
        assert_eq!(program.stages(), 1);
        assert_eq!(program.consts()[0].as_ref(), &w);
        assert_eq!(inputs, std::slice::from_ref(&a));
        // Lowering twice (or lowering a program request) changes nothing,
        // and a clone of the lowered request shares the weight constant.
        let weights = Arc::clone(&program.consts()[0]);
        let fingerprint = program.fingerprint();
        request.lower(0.5).unwrap();
        let program = request.lowered_program();
        assert_eq!(program.fingerprint(), fingerprint);
        assert!(Arc::ptr_eq(&program.consts()[0], &weights));
        let clone = request.clone();
        assert!(Arc::ptr_eq(&clone.lowered_program().consts()[0], &weights));

        // A nonlinear lowers at the granularity it is given.
        let mut nl = Request::nonlinear(NonlinearFn::Tanh, rng.randn(&[2, 3, 4], 1.0));
        nl.lower(0.5).unwrap();
        assert_eq!(nl.lowered_program().mode().granularity(), Some(0.5));
        assert_eq!(nl.lowered_program().output_shape(), vec![2, 3, 4]);

        // A malformed request fails to lower and is left as it was.
        let mut bad = Request::gemm(Tensor::zeros(&[2, 3]), Tensor::zeros(&[4, 5]));
        assert!(matches!(
            bad.lower(0.25),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(bad.as_program().is_none());
        let mut unknown = Request::nonlinear(NonlinearFn::Elu(1.0), Tensor::zeros(&[2, 2]));
        assert!(unknown.lower(0.25).is_err());
    }

    #[test]
    fn equal_weights_in_distinct_allocations_share_one_gemm_group() {
        // The weights span one full 64-value hash chunk and a tail; the
        // two copies are equal bit for bit but never one buffer, so only
        // the lowered fingerprint and the exact compare behind it can put
        // them in one group. A copy one bit off is its own group.
        let mut rng = Pcg32::seed_from_u64(15);
        let w = rng.randn(&[12, 10], 1.0);
        let mut off = w.clone();
        off.as_mut_slice()[100] = f32::from_bits(off.as_slice()[100].to_bits() ^ 1);
        let mut lowered = |w: &Tensor| {
            let copy = Tensor::from_vec(w.as_slice().to_vec(), w.dims()).unwrap();
            let mut r = Request::gemm(rng.randn(&[3, 12], 1.0), copy);
            r.lower(0.25).unwrap();
            r
        };
        let (a, b, c) = (lowered(&w), lowered(&w), lowered(&off));
        let (pa, pb) = (a.lowered_program(), b.lowered_program());
        assert!(!pa.consts()[0].shares_storage(&pb.consts()[0]));
        assert_eq!(pa.fingerprint(), pb.fingerprint());
        assert_ne!(pa.fingerprint(), c.lowered_program().fingerprint());
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        serving.submit(a);
        serving.submit(b);
        assert_eq!(serving.run().unwrap().report.gemm_groups, 1);
        serving.submit(lowered(&w));
        serving.submit(c);
        assert_eq!(serving.run().unwrap().report.gemm_groups, 2);
    }

    #[test]
    fn clones_of_one_weight_lower_onto_its_storage_and_run_as_one_gemm_group() {
        let mut rng = Pcg32::seed_from_u64(16);
        let w = rng.randn(&[12, 10], 1.0);
        let mut lowered = || {
            let mut r = Request::gemm(rng.randn(&[3, 12], 1.0), w.clone());
            r.lower(0.25).unwrap();
            r
        };
        let (a, b) = (lowered(), lowered());
        let (wa, wb) = (
            &a.lowered_program().consts()[0],
            &b.lowered_program().consts()[0],
        );
        assert!(wa.shares_storage(wb) && wa.shares_storage(&w));
        assert_eq!(wa.as_slice().as_ptr(), w.as_slice().as_ptr());
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        serving.submit(a);
        serving.submit(b);
        assert_eq!(serving.run().unwrap().report.gemm_groups, 1);
    }

    #[test]
    fn validate_and_clear() {
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        assert_eq!(serving.granularity, 0.25);
        let mut good = Request::gemm(Tensor::zeros(&[2, 3]), Tensor::zeros(&[3, 5]));
        let mut bad = Request::gemm(Tensor::zeros(&[2, 3]), Tensor::zeros(&[4, 5]));
        assert!(serving.validate(&mut good).is_ok());
        assert!(serving.validate(&mut bad).is_err());
        serving.submit(good);
        serving.submit(bad);
        assert_eq!(serving.clear(), 2);
        assert_eq!(serving.pending(), 0);
        // After clearing, the engine serves an empty run cleanly.
        assert_eq!(serving.run().unwrap().report.requests, 0);
    }

    fn mlp_program(w1: &Tensor, w2: &Tensor) -> Program {
        use onesa_plan::{EvalMode, Op};
        let mut b = Program::builder(
            "mlp",
            EvalMode::Cpwl {
                granularity: 0.25,
                quantize: false,
            },
        );
        let x = b.input(&[2, 6]);
        let (w1, w2) = (b.constant(w1.clone()), b.constant(w2.clone()));
        let h = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w1],
        );
        let g = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[h]);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[g, w2],
        );
        b.finish().unwrap()
    }

    #[test]
    fn concurrent_programs_coalesce_at_every_stage() {
        let mut rng = Pcg32::seed_from_u64(21);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let program = mlp_program(&w1, &w2);
        let xs: Vec<Tensor> = (0..3).map(|_| rng.randn(&[2, 6], 1.0)).collect();

        // Solo references through the plan executor.
        let solos: Vec<Tensor> = xs
            .iter()
            .map(|x| {
                program
                    .run(
                        std::slice::from_ref(x),
                        Parallelism::Sequential,
                        &mut onesa_plan::TableCache::new(),
                    )
                    .unwrap()
                    .output
            })
            .collect();

        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        for x in &xs {
            serving
                .submit_program(program.clone(), vec![x.clone()])
                .unwrap();
        }
        // Mixed queue: a bare GEMM against w1 — the programs' stage-0
        // weight — and one against a weight of its own.
        let a = rng.randn(&[5, 6], 1.0);
        let other = rng.randn(&[6, 7], 1.0);
        serving.submit(Request::gemm(a.clone(), w1.clone()));
        serving.submit(Request::gemm(a.clone(), other.clone()));
        let run = serving.run().unwrap();
        let solo_stats = program.solo_stats(serving.engine.config()).unwrap();
        for (i, solo) in solos.iter().enumerate() {
            assert_eq!(&run.outcomes[i].output, solo);
            assert_eq!(run.outcomes[i].stats, solo_stats);
        }
        assert_eq!(run.outcomes[3].output, gemm::matmul(&a, &w1).unwrap());
        assert_eq!(run.outcomes[4].output, gemm::matmul(&a, &other).unwrap());
        // The bare GEMM is a one-op program, so it shares the kernel
        // group of the three programs' stage-0 GEMMs against w1; the
        // other weight is a group of its own. The later stages collapse
        // the three programs' ops into one group each.
        assert_eq!(run.program_stages.len(), 3);
        let s0 = run.program_stages[0];
        assert_eq!((s0.ops, s0.groups, s0.gemm_groups), (5, 2, 2));
        for s in &run.program_stages[1..] {
            assert_eq!((s.ops, s.groups), (3, 1), "stage {}", s.stage);
        }
        assert_eq!(run.report.gemm_groups, 3);
        assert_eq!(run.report.nonlinear_groups, 1);
        assert!(run.report.batching_speedup() > 1.0);
    }

    #[test]
    fn submit_checked_rejects_malformed_requests_at_the_queue() {
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        let bad = Request::gemm(Tensor::zeros(&[2, 3]), Tensor::zeros(&[4, 5]));
        assert!(serving.submit_checked(bad).is_err());
        assert_eq!(serving.pending(), 0);
        let good = Request::gemm(Tensor::zeros(&[2, 3]), Tensor::zeros(&[3, 5]));
        assert_eq!(serving.submit_checked(good).unwrap(), 0);
        assert_eq!(serving.pending(), 1);

        // Program with wrong input shape is rejected eagerly too.
        let mut rng = Pcg32::seed_from_u64(22);
        let program = mlp_program(&rng.randn(&[6, 4], 1.0), &rng.randn(&[4, 3], 1.0));
        let wrong = vec![rng.randn(&[5, 6], 1.0)];
        assert!(serving.submit_program(program.clone(), wrong).is_err());
        assert!(serving
            .submit_program(program, vec![rng.randn(&[2, 6], 1.0)])
            .is_ok());
        assert_eq!(serving.pending(), 2);
        let run = serving.run().unwrap();
        assert_eq!(run.report.requests, 2);
    }

    #[test]
    fn program_request_accounting() {
        let mut rng = Pcg32::seed_from_u64(23);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let program = mlp_program(&w1, &w2);
        // A program request is already lowered: its admission weight
        // and affinity key are the program's own.
        let req = Request::program(program.clone(), vec![rng.randn(&[2, 6], 1.0)]);
        assert_eq!(
            lowered_weight_and_key(req),
            (program.modeled_macs(), program.fingerprint())
        );
        assert!(program.modeled_macs() > 0);
        let other = mlp_program(&rng.randn(&[6, 4], 1.0), &w2);
        assert_ne!(program.fingerprint(), other.fingerprint());
    }

    #[test]
    fn program_table_sets_are_built_once_across_runs() {
        let mut rng = Pcg32::seed_from_u64(42);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        // Programs at a granularity (0.5) the engine (0.25) did not
        // pre-build: the first run builds the set, later runs reuse it.
        let program = {
            use onesa_plan::{EvalMode, Op};
            let mut b = Program::builder(
                "mlp-0.5",
                EvalMode::Cpwl {
                    granularity: 0.5,
                    quantize: false,
                },
            );
            let x = b.input(&[2, 6]);
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
        };
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        assert_eq!(serving.plan_tables.builds(), 0); // engine set was seeded
        for _ in 0..3 {
            serving
                .submit_program(program.clone(), vec![rng.randn(&[2, 6], 1.0)])
                .unwrap();
            let _ = serving.run().unwrap();
        }
        assert_eq!(
            serving.plan_tables.builds(),
            1,
            "per-granularity tables must persist across runs"
        );
        assert_eq!(serving.plan_tables.len(), 2); // 0.25 seeded + 0.5 built
    }

    #[test]
    fn mismatched_gemm_is_rejected_and_queue_preserved() {
        let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
        serving.submit(Request::gemm(
            Tensor::zeros(&[2, 3]),
            Tensor::zeros(&[3, 5]),
        ));
        serving.submit(Request::gemm(
            Tensor::zeros(&[2, 3]),
            Tensor::zeros(&[4, 5]),
        ));
        assert!(serving.run().is_err());
        // The valid request was not lost with the bad one.
        assert_eq!(serving.pending(), 2);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random mixed queues of all three constructors: every output
        /// equals its reference kernel, and the group counts are the
        /// distinct-weight / distinct-function counts the module docs
        /// promise — with a bare GEMM against a program's stage-0
        /// weight counted once, in that program's group.
        #[test]
        fn mixed_queues_match_reference_kernels_and_group_counts(
            kinds in proptest::collection::vec(0usize..8, 1..12),
            seed in 0u64..10_000,
        ) {
            let mut rng = Pcg32::seed_from_u64(seed);
            let weights: Vec<Tensor> = (0..3).map(|_| rng.randn(&[6, 4], 1.0)).collect();
            let funcs = [NonlinearFn::Gelu, NonlinearFn::Tanh, NonlinearFn::Sigmoid];
            // The program's first GEMM multiplies by weights[0], its
            // second by a weight no bare request uses.
            let program = mlp_program(&weights[0], &rng.randn(&[4, 3], 1.0));
            let tables = TableSet::for_granularity(0.25).unwrap();

            let mut serving = BatchEngine::new(engine(), 0.25).unwrap();
            let mut expected = Vec::new();
            let (mut stage0_weights, mut stage0_funcs, mut programs) = ([false; 3], [false; 3], 0);
            for kind in kinds {
                match kind {
                    0..=2 => {
                        let rows = 1 + rng.below(5) as usize;
                        let a = rng.randn(&[rows, 6], 1.0);
                        expected.push(gemm::matmul(&a, &weights[kind]).unwrap());
                        serving.submit(Request::gemm(a, weights[kind].clone()));
                        stage0_weights[kind] = true;
                    }
                    3..=5 => {
                        let (m, n) = (1 + rng.below(4) as usize, 1 + rng.below(6) as usize);
                        let x = rng.randn(&[m, n], 1.5);
                        let table = tables.table(funcs[kind - 3]).unwrap();
                        expected.push(table.eval_tensor(&x).unwrap());
                        serving.submit(Request::nonlinear(funcs[kind - 3], x));
                        stage0_funcs[kind - 3] = true;
                    }
                    _ => {
                        let x = rng.randn(&[2, 6], 1.0);
                        let solo = program
                            .run(std::slice::from_ref(&x), Parallelism::Sequential, &mut TableCache::new())
                            .unwrap();
                        expected.push(solo.output);
                        serving.submit(Request::program(program.clone(), vec![x]));
                        stage0_weights[0] = true;
                        programs += 1;
                    }
                }
            }
            let run = serving.run().unwrap();
            prop_assert_eq!(run.outcomes.len(), expected.len());
            for (o, want) in run.outcomes.iter().zip(&expected) {
                prop_assert_eq!(&o.output, want);
            }
            let distinct = |seen: &[bool]| seen.iter().filter(|s| **s).count();
            let later_stages = usize::from(programs > 0);
            prop_assert_eq!(run.report.gemm_groups, distinct(&stage0_weights) + later_stages);
            prop_assert_eq!(run.report.nonlinear_groups, distinct(&stage0_funcs) + later_stages);
        }
    }
}
