//! Asynchronous request admission and multi-array sharded serving.
//!
//! [`BatchEngine`] serves a queue it already holds;
//! this module puts a *live* front door on top of it. A [`ServeEngine`]
//! owns a bounded multi-producer submission queue that keeps **accepting
//! requests while batches execute**, an admission thread that closes
//! batching windows under a configurable [`AdmissionPolicy`], and a
//! shard pool of `N` worker shards — each one a `(OneSa, BatchEngine,
//! Parallelism)` triple standing in for one simulated systolic array —
//! fed through a pluggable [`RoutePolicy`]: one workload, many arrays,
//! in the spirit of FlexSA's sub-array partitioning and ArrayFlex's
//! per-workload reconfiguration.
//!
//! # Modules
//!
//! Each decision of the serving path has one owner; this file holds the
//! public configuration and reporting types, the engine's submission
//! methods, its start / finish, and the `Job` record every hop carries:
//!
//! * `session` — the host-resident session table (KV tensors, pinning,
//!   eviction) and [`Phase`].
//! * `admit` — [`AdmissionPolicy`] (when a window closes), deadline
//!   expiry, the [`DegradePolicy`] ladder, and the `Admitter`: a state
//!   machine with no thread, channel or clock that takes one event at a
//!   time and returns the windows to dispatch, orchestrating the other
//!   modules. The admission thread is a shell around it.
//! * `inbox` — the one thing the admission thread blocks on: the
//!   bounded submission queue, the shards' pickup and completion events,
//!   the pause flag and close, under one lock.
//! * `route` — [`RoutePolicy`] and the `Router` state machine: one
//!   `pick` per request (pinned session, then the policy over the
//!   powered shards).
//! * `power` — [`PoolPolicy`] and the `PowerStates` state machine
//!   (wake, scale-up, settle) together with the modeled energy
//!   accounting ([`PowerSummary`]), which folds each window once every
//!   shard it was routed to has reported it.
//! * `shard` — where a window executes (in-process engine or worker
//!   process, with failover) and the per-shard thread that answers
//!   tickets ([`ShardStats`]).
//!
//! # Request lifecycle
//!
//! ```text
//!  client threads            the inbox (one lock)          admission thread
//!  ──────────────            ────────────────────          ────────────────
//!  submit(Request) ──► bounded submission queue ─┐    Admitter::on(event):
//!   = one Job         (submit blocks when full;  ├──► Submit: lower to a Program,
//!        │             paused: none taken)       │     validate, fill the window
//!  pause / resume ──►  pause flag                │    Idle: close it unless every
//!        │            shard events (never wait) ─┘     shard has one queued
//!        ▼              ▲              ▲                     │
//!     Ticket            │ ShardTook(i) │ ShardDone       Router::pick over
//!        │              │ on pickup    │ {window, shard,  PowerStates
//!        │              │              │  seconds, MACs}     │
//!        │            shard threads ◄── per-shard channel ◄──┘
//!        │            ShardExec::run_window: the BatchEngine
//!        │            here, or in the shard's worker process
//!        ▼                     │
//!  Ticket::wait ◄── the Job's reply channel
//!
//!  finish() ──► closes the inbox (the admitter drains the backlog and
//!               waits for every window's report), joins every worker,
//!               aggregates the shards into a ServingReport + per-shard
//!               ShardStats
//! ```
//!
//! A client may submit a GEMM, a nonlinear evaluation or a compiled
//! program; the admission thread's first act on a request is to lower
//! it ([`Request::lower`]) — a GEMM to a one-op exact-mode program, a
//! nonlinear to a one-op CPWL program at the pool's
//! [`ServeConfig::granularity`]. From there on **every request is a
//! program**: the window budget and the load-aware routers weigh it by
//! `Program::modeled_macs`, the affinity router keys on
//! `Program::fingerprint`, the degrade ladder reads `Program::mode`,
//! the process backend ships it through the weight-cache protocol, and
//! one shard loop answers its ticket whichever backend ran it. Two
//! consequences are deliberate:
//!
//! * a bare nonlinear's admission weight is its program's
//!   `modeled_macs` — its op's MACs (two per element in the cost model)
//!   plus the table preload;
//! * under a configured [`DegradePolicy`] a bare nonlinear is
//!   degradable like any other CPWL program. Bare GEMMs are exact-mode
//!   programs and stay non-degradable: under drop-on-expiry they are the
//!   requests that can still expire.
//!
//! # Guarantees
//!
//! * **Bit-identicality.** Outputs are bit-identical to running every
//!   request alone on one sequential array, for every shard count,
//!   admission policy and routing policy — coalescing never changes a
//!   request's floating-point op sequence (see [`crate::BatchEngine`]), and
//!   sharding only changes *which* engine runs it.
//! * **Per-ticket ordering.** Ticket ids are assigned in submission
//!   order and every [`ServedOutcome`] carries the id of the request it
//!   answers; a window is dispatched in submission order unless the
//!   deadline policy deliberately reorders it (observable through
//!   [`ServedOutcome::dispatch_seq`]).
//! * **Backpressure.** The submission queue is bounded:
//!   [`ServeEngine::submit`] blocks and [`ServeEngine::try_submit`]
//!   returns the request back once `queue_capacity` requests are
//!   waiting, so producers can never outrun the pool unboundedly; the
//!   queue counts its depth under its lock, so no more than
//!   `queue_capacity` are ever waiting. The per-shard channels are
//!   bounded too, which stalls admission (not the clients) when one
//!   shard falls behind; a shard's own pickup and completion events
//!   never wait for room, so a stalled admitter is always released.
//!   If the admission thread dies, the queue closes: a `submit` waiting
//!   for room returns [`ServeError::QueueClosed`].
//! * **Early rejection.** The admission thread lowers every request
//!   and checks its inputs against its program (the same checks as
//!   `BatchEngine::submit_checked`) before routing: a malformed
//!   request's ticket resolves with the validation error at the queue,
//!   and never reaches a shard's batch. A `Program` value is sealed:
//!   built, re-targeted or decoded, it was validated once and is
//!   immutable — so no layer of the stack walks its graph again; what
//!   each front door re-checks is only the caller's inputs. Under
//!   [`AdmissionPolicy::Deadline`] with `drop_expired`, requests
//!   already past their deadline at window close resolve with
//!   [`ServeError::DeadlineExpired`] instead of dispatching (counted in
//!   [`ServeSummary::expired`]).
//!
//! # Whole-network program tickets
//!
//! Compiled [`crate::Program`]s are what every ticket carries
//! ([`ServeEngine::submit_program`] submits one directly): an entire
//! network — convolutions, attention, CPWL nonlinears, quantization
//! boundaries — flows through the admission window and shard pool as
//! one ticket, and concurrent programs on a shard — lowered GEMMs and
//! nonlinears among them — coalesce **at every stage** through
//! `BatchEngine`'s staged scheduler (shared-weight row-stacking and
//! shared-table concatenation per layer). [`ServedOutcome::stats`]
//! returns the request's solo [`ExecStats`], which roll into the
//! summary's [`ServingReport`] totals.
//!
//! # Example
//!
//! ```
//! use onesa_core::serve::{ServeConfig, ServeEngine};
//! use onesa_core::{Parallelism, Request};
//! use onesa_sim::ArrayConfig;
//! use onesa_tensor::{gemm, rng::Pcg32};
//!
//! let mut rng = Pcg32::seed_from_u64(5);
//! let w = rng.randn(&[16, 8], 1.0);
//! let pool = ServeEngine::start(ServeConfig::uniform(
//!     2,
//!     ArrayConfig::new(8, 16),
//!     Parallelism::Sequential,
//! ))?;
//! let a = rng.randn(&[4, 16], 1.0);
//! let ticket = pool.submit(Request::gemm(a.clone(), w.clone())).unwrap();
//! let served = ticket.wait().unwrap();
//! assert_eq!(served.output, gemm::matmul(&a, &w)?);
//! let summary = pool.finish().unwrap();
//! assert_eq!(summary.report.requests, 1);
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

mod admit;
mod inbox;
mod power;
mod route;
mod session;
mod shard;

pub use admit::{AdmissionPolicy, DegradeInfo, DegradePolicy};
pub use power::{PoolPolicy, PowerSummary, ShardPower};
pub use route::RoutePolicy;
pub use session::{Phase, PhaseStats, SessionId, SessionSummary};
pub use shard::ShardStats;

use crate::batch::{BatchEngine, Latencies, Request, ServingReport};
use crate::engine::OneSa;
use crate::net::{self, ProcessConfig, WeightCacheStats};
use admit::{admission_thread, Admitter};
use inbox::Inbox;
use onesa_cpwl::ops::TableSet;
use onesa_sim::{ArrayConfig, ExecStats};
use onesa_tensor::parallel::Parallelism;
use onesa_tensor::{Tensor, TensorError};
use power::PowerStates;
use route::Router;
use session::{SessionState, SessionTable, SessionTag};
use shard::{shard_loop, ShardExec, ShardOut};
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Globally unique, monotonically increasing id of a submitted request.
pub type TicketId = u64;

/// How many dispatched-but-unfinished batches one shard's channel holds
/// before admission stalls on it (bounded backpressure between the
/// admitter and a slow shard).
const SHARD_CHANNEL_DEPTH: usize = 2;

/// One simulated array in the pool: an [`ArrayConfig`] plus the host
/// execution policy its kernels run under.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The simulated array this shard stands in for.
    pub config: ArrayConfig,
    /// Host backend policy for this shard's kernels.
    pub parallelism: Parallelism,
}

/// How the pool's shards execute: as threads in this process, or as
/// spawned worker processes behind the cross-host wire protocol.
///
/// Both backends run the *same* `BatchEngine` per shard and the wire
/// format preserves every `f32` bit, so outputs are bit-identical
/// across backends for every admission × routing policy (locked in by
/// `tests/integration_cross_host.rs`).
#[derive(Debug, Clone, Default)]
pub enum ShardBackend {
    /// One thread per shard inside this process (the default).
    #[default]
    InProcess,
    /// One `onesa-shard-worker` process per shard, connected over a
    /// Unix-domain or TCP socket (see [`crate::net`]). Adds worker-death
    /// failover: a window in flight to a dead worker requeues on a
    /// surviving shard, and [`ServeSummary::failovers`] records the
    /// event.
    Process(ProcessConfig),
}

/// Configuration of a [`ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The shard pool; must be non-empty. Shards may be heterogeneous.
    pub shards: Vec<ShardSpec>,
    /// CPWL granularity for every shard's table set.
    pub granularity: f32,
    /// Bound of the submission queue (`0` is treated as `1`):
    /// submissions beyond it block (or fail, for
    /// [`ServeEngine::try_submit`]) until admission catches up.
    pub queue_capacity: usize,
    /// Window-closing policy of the admission thread.
    pub admission: AdmissionPolicy,
    /// Shard-selection policy.
    pub routing: RoutePolicy,
    /// Start with the admission gate closed: submissions queue up (to
    /// `queue_capacity`) but nothing dispatches until
    /// [`ServeEngine::resume`]. Deterministic tests and benches use this
    /// to pre-load a queue and open the gate in one motion.
    pub paused: bool,
    /// Where shards run: in-process threads or spawned worker processes.
    pub backend: ShardBackend,
    /// Most sessions resident at once (`0` is treated as `1`): opening
    /// one past the cap evicts the least-recently-used idle session,
    /// counted in [`SessionSummary::evicted_overflow`].
    pub session_capacity: usize,
    /// Overload degrade ladder (`None`, the default, disables
    /// degrading; see [`DegradePolicy`]).
    pub degrade: Option<DegradePolicy>,
    /// Shard power management (see [`PoolPolicy`]).
    pub pool: PoolPolicy,
}

impl ServeConfig {
    /// A homogeneous pool: `shards` identical arrays, paper-default 0.25
    /// CPWL granularity, a 256-request queue, FIFO windows of 64 and
    /// round-robin routing.
    pub fn uniform(shards: usize, config: ArrayConfig, parallelism: Parallelism) -> Self {
        ServeConfig {
            shards: (0..shards.max(1))
                .map(|_| ShardSpec {
                    config: config.clone(),
                    parallelism,
                })
                .collect(),
            granularity: 0.25,
            queue_capacity: 256,
            admission: AdmissionPolicy::default(),
            routing: RoutePolicy::default(),
            paused: false,
            backend: ShardBackend::default(),
            session_capacity: 64,
            degrade: None,
            pool: PoolPolicy::default(),
        }
    }

    /// Replaces the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Replaces the routing policy.
    pub fn with_routing(mut self, routing: RoutePolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the submission-queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Starts the engine with the admission gate closed (see
    /// [`ServeConfig::paused`]).
    pub fn start_paused(mut self) -> Self {
        self.paused = true;
        self
    }

    /// Replaces the shard backend (see [`ShardBackend`]).
    pub fn with_backend(mut self, backend: ShardBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the session-table capacity.
    pub fn with_session_capacity(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity;
        self
    }

    /// Installs an overload degrade ladder (see [`DegradePolicy`]).
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = Some(degrade);
        self
    }

    /// Replaces the shard power policy (see [`PoolPolicy`]).
    pub fn with_pool(mut self, pool: PoolPolicy) -> Self {
        self.pool = pool;
        self
    }
}

/// Errors of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The submission queue no longer accepts requests: the admission
    /// thread is gone.
    QueueClosed,
    /// The request failed validation or execution on its shard.
    Exec(TensorError),
    /// The request was already past its deadline when its admission
    /// window closed (only under [`AdmissionPolicy::Deadline`] with
    /// `drop_expired`); it was never dispatched.
    DeadlineExpired {
        /// The deadline the request carried (µs since engine start).
        deadline_us: u64,
        /// The admission clock when the window closed (same epoch).
        now_us: u64,
    },
    /// A worker thread disappeared without answering (it panicked, or —
    /// for a submission racing with `finish()` — the engine tore down
    /// before the reply could be produced).
    WorkerLost,
    /// The session id is not in the table: never opened, closed, or
    /// evicted (deadline expiry / capacity overflow).
    SessionUnknown(SessionId),
    /// The session already has a step queued or executing; a session
    /// admits one step at a time (wait the previous ticket first).
    SessionBusy(SessionId),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueClosed => write!(f, "serve queue is closed"),
            ServeError::Exec(e) => write!(f, "request failed on its shard: {e}"),
            ServeError::DeadlineExpired {
                deadline_us,
                now_us,
            } => write!(
                f,
                "request expired before dispatch (deadline {deadline_us} us, window closed at {now_us} us)"
            ),
            ServeError::WorkerLost => write!(f, "serve worker lost before replying"),
            ServeError::SessionUnknown(id) => {
                write!(f, "session {id} is unknown (never opened, closed, or evicted)")
            }
            ServeError::SessionBusy(id) => {
                write!(f, "session {id} already has a step in flight")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Non-blocking submission failure; both variants hand the request back
/// so the caller can retry, redirect or drop it deliberately.
#[derive(Debug)]
pub enum TrySubmitError {
    /// The bounded queue is at capacity (backpressure).
    Full(Request),
    /// The engine is finished.
    Closed(Request),
}

impl fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySubmitError::Full(_) => write!(f, "serve queue is full"),
            TrySubmitError::Closed(_) => write!(f, "serve queue is closed"),
        }
    }
}

impl std::error::Error for TrySubmitError {}

/// What one request gets back from the pool.
#[derive(Debug, Clone)]
pub struct ServedOutcome {
    /// The ticket this outcome answers.
    pub ticket: TicketId,
    /// Index of the shard that executed the request.
    pub shard: usize,
    /// Global dispatch position: the order in which the admitter handed
    /// requests to shards. Equals submission order under FIFO; the
    /// deadline policy may reorder within a window.
    pub dispatch_seq: u64,
    /// The request's output, bit-identical to a solo sequential run.
    pub output: Tensor,
    /// Simulated array stats of the request run alone (see
    /// [`Program::solo_stats`](onesa_plan::Program::solo_stats)).
    pub stats: ExecStats,
    /// Host seconds between submission and the start of the executing
    /// batch (admission + routing + shard queueing delay).
    pub queue_seconds: f64,
    /// `Some` when the admitter served this request at a coarser CPWL
    /// granularity than submitted (see [`DegradePolicy`]); the output
    /// is bit-identical to a solo run compiled at
    /// [`DegradeInfo::served`].
    pub degrade: Option<DegradeInfo>,
}

/// Handle to one in-flight request (from [`ServeEngine::submit`]).
///
/// Results are buffered: waiting after [`ServeEngine::finish`] still
/// returns the outcome.
#[derive(Debug)]
#[must_use = "a Ticket is the only handle to its request's output — dropping it discards the result"]
pub struct Ticket {
    id: TicketId,
    rx: Receiver<Result<ServedOutcome, ServeError>>,
}

impl Ticket {
    /// The id assigned at submission (monotonic across the engine).
    pub fn id(&self) -> TicketId {
        self.id
    }

    /// Blocks until the request's outcome arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::Exec`] if the request failed on its shard,
    /// [`ServeError::WorkerLost`] if the pool died before answering.
    pub fn wait(self) -> Result<ServedOutcome, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

/// Aggregate result of one [`ServeEngine`] lifetime.
#[derive(Debug, Clone)]
#[must_use = "a ServeSummary is the engine's only aggregate report — dropping it discards the run's accounting"]
pub struct ServeSummary {
    /// Pool-wide totals in the same shape synchronous batching reports:
    /// `batched_seconds` is the **makespan** (busiest shard — the
    /// simulated arrays run concurrently), `unbatched_seconds` the cost
    /// of serving every request alone on a single array, and
    /// `latencies` count the *successfully served* requests (rejected
    /// requests produce no latency), one entry per distinct value however
    /// long the engine runs. The group counts are summed across
    /// shard-batches — see [`ServingReport::gemm_groups`].
    pub report: ServingReport,
    /// Per-shard occupancy, throughput and queue statistics.
    pub shards: Vec<ShardStats>,
    /// Batching windows the admission thread closed.
    pub windows: usize,
    /// Requests dropped at window close because their deadline had
    /// already passed ([`AdmissionPolicy::Deadline`] with
    /// `drop_expired`); their tickets resolved with
    /// [`ServeError::DeadlineExpired`]. With a [`DegradePolicy`]
    /// installed, only requests the ladder could not rescue count here.
    pub expired: usize,
    /// Requests the admitter served at a coarser CPWL granularity than
    /// submitted (their outcomes carry [`ServedOutcome::degrade`]);
    /// every served request is either exact or degraded, never dropped
    /// while the ladder has rungs.
    pub degraded: usize,
    /// Modeled pool energy accounting (see [`PowerSummary`]); all-zero
    /// for a run that dispatched no windows.
    pub power: PowerSummary,
    /// Most requests ever waiting in the submission queue at once: at
    /// most [`ServeConfig::queue_capacity`].
    pub peak_queue_depth: usize,
    /// Process backend only: shards whose worker process died during
    /// the run (each one's in-flight windows requeued on survivors).
    pub failovers: usize,
    /// Process backend only: pool-wide weight-cache accounting (the
    /// per-shard counters merged).
    pub wire_cache: WeightCacheStats,
    /// Latency/throughput accounting of the prompt passes of decoding
    /// sessions (empty for a session-free run).
    pub prefill: PhaseStats,
    /// Latency/throughput accounting of the decode steps of decoding
    /// sessions (empty for a session-free run).
    pub decode: PhaseStats,
    /// Session-table lifetime counters; see [`SessionSummary`] for the
    /// no-orphaned-entries invariant.
    pub sessions: SessionSummary,
}

impl ServeSummary {
    /// Modeled serving speedup of the pool over one array serving the
    /// queue request-at-a-time: `unbatched / makespan`. Combines the
    /// coalescing win (shared weight loads, shared IPF) with the
    /// sharding win (arrays in parallel); deterministic, unlike host
    /// wall-clock. Returns 1.0 for an empty run.
    pub fn modeled_speedup(&self) -> f64 {
        self.report.batching_speedup()
    }

    /// Generated tokens per host wall-clock second across every
    /// session's decode steps (0.0 for a session-free run).
    pub(crate) fn decode_tokens_per_second(&self) -> f64 {
        self.decode.tokens_per_second(self.report.wall_seconds)
    }

    /// Modeled joules per served request (0.0 for an empty run) — the
    /// efficiency number the elastic pool is judged on.
    pub fn modeled_joules_per_request(&self) -> f64 {
        if self.report.requests > 0 {
            self.power.modeled_joules / self.report.requests as f64
        } else {
            0.0
        }
    }

    /// Fraction of served requests that were degraded (0.0 for an
    /// empty run).
    pub fn degraded_fraction(&self) -> f64 {
        if self.report.requests > 0 {
            self.degraded as f64 / self.report.requests as f64
        } else {
            0.0
        }
    }
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} requests over {} shards in {} windows: {:.3} ms wall ({:.0} req/s)",
            self.report.requests,
            self.shards.len(),
            self.windows,
            self.report.wall_seconds * 1e3,
            self.report.wall_rps()
        )?;
        writeln!(
            f,
            "array makespan {:.3} ms vs {:.3} ms solo-on-one-array ({:.2}x modeled), \
             peak queue {}, expired {}, degraded {}",
            self.report.batched_seconds * 1e3,
            self.report.unbatched_seconds * 1e3,
            self.modeled_speedup(),
            self.peak_queue_depth,
            self.expired,
            self.degraded
        )?;
        let p = &self.power;
        if p.active_shard_windows + p.idle_shard_windows + p.off_shard_windows > 0 {
            writeln!(
                f,
                "power: {:.3} mJ modeled ({:.3} mJ/req), shard-windows {} active / {} idle / \
                 {} off, {} power-ups, {} power-downs",
                p.modeled_joules * 1e3,
                self.modeled_joules_per_request() * 1e3,
                p.active_shard_windows,
                p.idle_shard_windows,
                p.off_shard_windows,
                p.power_ups,
                p.power_downs
            )?;
        }
        for s in &self.shards {
            writeln!(
                f,
                "  shard {}: {:>4} req in {:>3} batches ({} gemm + {} nl groups), \
                 {:.3} ms array, occupancy {:.0}%, peak depth {}",
                s.shard,
                s.requests,
                s.batches,
                s.gemm_groups,
                s.nonlinear_groups,
                s.array_seconds * 1e3,
                s.occupancy * 100.0,
                s.peak_queue_depth
            )?;
        }
        if self.failovers > 0 {
            writeln!(
                f,
                "failovers: {} worker(s) lost, in-flight windows requeued on survivors",
                self.failovers
            )?;
        }
        let cache = &self.wire_cache;
        if cache.full_sends + cache.ref_sends > 0 {
            writeln!(
                f,
                "weight cache: {} constants sent / {} named by key ({:.0}% hit), {} const bytes saved",
                cache.full_sends,
                cache.ref_sends,
                cache.hit_ratio() * 100.0,
                cache.const_bytes_saved
            )?;
        }
        if self.sessions.opened > 0 {
            writeln!(
                f,
                "sessions: {} opened, {} closed, {} expired, {} overflowed, {} live",
                self.sessions.opened,
                self.sessions.closed,
                self.sessions.evicted_deadline,
                self.sessions.evicted_overflow,
                self.sessions.live
            )?;
            writeln!(
                f,
                "phases: prefill {} req ({} tokens) p50 {:.1} us | decode {} steps p50 {:.1} us, \
                 {:.0} tokens/s",
                self.prefill.requests,
                self.prefill.tokens,
                self.prefill.latency_percentile(50.0) * 1e6,
                self.decode.requests,
                self.decode.latency_percentile(50.0) * 1e6,
                self.decode_tokens_per_second()
            )?;
        }
        write!(
            f,
            "latency p50/p95/p99: {:.1} / {:.1} / {:.1} us",
            self.report.latency_percentile(50.0) * 1e6,
            self.report.latency_percentile(95.0) * 1e6,
            self.report.latency_percentile(99.0) * 1e6
        )
    }
}

// ---------------------------------------------------------------------
// internal plumbing
// ---------------------------------------------------------------------

/// One request, from submission to its reply: the record the
/// submission queue, the admission window and the shard channel all
/// carry. The submitter fills what it knows, the admitter
/// `dispatch_seq` and `window` at routing (and `degrade` if it re-compiles
/// the request), the shard `queue_seconds` at pickup.
#[derive(Debug)]
struct Job {
    ticket: TicketId,
    deadline: Option<u64>,
    submitted_at: Instant,
    request: Request,
    session: Option<SessionTag>,
    /// Set once the admitter re-compiles the request at a coarser
    /// granularity; later degrades extend it (`requested` is sticky).
    degrade: Option<DegradeInfo>,
    /// Global dispatch position ([`ServedOutcome::dispatch_seq`]).
    dispatch_seq: u64,
    /// Index of the admission window that dispatched the job (the
    /// per-window energy accounting key).
    window: usize,
    /// [`ServedOutcome::queue_seconds`].
    queue_seconds: f64,
    reply: Sender<Result<ServedOutcome, ServeError>>,
}

impl Job {
    /// Resolves the ticket with `error` and reopens the job's session
    /// for its next step (validation rejection, shard failure).
    fn fail(&self, sessions: &SessionTable, error: ServeError) {
        if let Some(tag) = self.session {
            sessions.release(tag.id);
        }
        let _ = self.reply.send(Err(error));
    }
}

// ---------------------------------------------------------------------
// the engine
// ---------------------------------------------------------------------

/// The asynchronous sharded serving engine and its one submission
/// handle: producer threads share it by reference (it is `Send + Sync`;
/// see `std::thread::scope`), so every producer feeds the same bounded
/// queue and ticket sequence. See the [module docs](self).
#[derive(Debug)]
pub struct ServeEngine {
    /// Submissions, shard events, the pause flag and close: everything
    /// the admission thread waits on.
    inbox: Arc<Inbox>,
    sessions: Arc<SessionTable>,
    started: Instant,
    admitter: Option<JoinHandle<Admitter>>,
    workers: Vec<JoinHandle<ShardOut>>,
    /// Process backend: one pid per shard; empty in-process.
    worker_pids: Vec<u32>,
}

impl ServeEngine {
    /// Builds every shard's engine, spawns the admission thread and one
    /// worker per shard, and (unless [`ServeConfig::paused`]) opens the
    /// admission gate.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for an empty shard list or a
    /// granularity the CPWL table builder rejects.
    pub fn start(cfg: ServeConfig) -> Result<ServeEngine, TensorError> {
        if cfg.shards.is_empty() {
            return Err(TensorError::InvalidArgument(
                "serve pool needs at least one shard",
            ));
        }
        // Checked here, before either backend builds anything: behind a
        // worker process it would surface only as a failed spawn.
        TableSet::for_granularity(cfg.granularity)
            .map_err(|_| TensorError::InvalidArgument("invalid CPWL granularity"))?;
        if let Some(policy) = &cfg.degrade {
            if policy.ladder.is_empty() {
                return Err(TensorError::InvalidArgument(
                    "degrade ladder needs at least one rung",
                ));
            }
            let mut prev = 0.0f32;
            for &g in &policy.ladder {
                if !(g.is_finite() && g > prev) {
                    return Err(TensorError::InvalidArgument(
                        "degrade ladder must be finite, positive and strictly coarsening",
                    ));
                }
                prev = g;
            }
        }
        let n = cfg.shards.len();

        let inbox = Arc::new(Inbox::new(cfg.queue_capacity, cfg.paused));
        let sessions = Arc::new(SessionTable::new(cfg.session_capacity));
        let engine_of =
            |spec: &ShardSpec| OneSa::with_parallelism(spec.config.clone(), spec.parallelism);

        let mut worker_pids = Vec::new();
        let execs: Vec<ShardExec> = match &cfg.backend {
            ShardBackend::InProcess => cfg
                .shards
                .iter()
                .map(|spec| {
                    BatchEngine::new(engine_of(spec), cfg.granularity)
                        .map(|engine| ShardExec::Local(Box::new(engine)))
                })
                .collect::<Result<_, _>>()?,
            ShardBackend::Process(pcfg) => {
                // Spawn every worker process and complete its handshake
                // before any thread starts: a missing binary or a
                // version-skewed worker fails `start` instead of
                // surfacing later as a dead shard. A failure here drops
                // the already-spawned handles, which reaps their
                // children.
                let mut conns: Vec<Arc<Mutex<Option<net::WorkerHandle>>>> = Vec::with_capacity(n);
                for (i, spec) in cfg.shards.iter().enumerate() {
                    let handle = net::WorkerHandle::spawn(
                        i,
                        pcfg.transport,
                        pcfg.worker.as_ref(),
                        &spec.config,
                        spec.parallelism,
                        cfg.granularity,
                    )
                    .map_err(|e| {
                        eprintln!("onesa-serve: shard {i} worker spawn failed: {e}");
                        TensorError::InvalidArgument(
                            "failed to spawn a shard worker process (see stderr)",
                        )
                    })?;
                    worker_pids.push(handle.pid());
                    conns.push(Arc::new(Mutex::new(Some(handle))));
                }
                (0..n).map(|_| ShardExec::Remote(conns.clone())).collect()
            }
        };
        // Whichever backend executes, the admitter models each shard's
        // power and energy from an engine of the shard's own design.
        let power = PowerStates::new(cfg.pool, cfg.shards.iter().map(engine_of).collect());
        let router = Router::new(cfg.routing, power.energy_per_mac());
        let mut shard_txs = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for (i, exec) in execs.into_iter().enumerate() {
            let (btx, rx) = mpsc::sync_channel::<Vec<Job>>(SHARD_CHANNEL_DEPTH);
            shard_txs.push(btx);
            let inbox = Arc::clone(&inbox);
            let sessions = Arc::clone(&sessions);
            let handle = thread::Builder::new()
                .name(format!("onesa-shard-{i}"))
                .spawn(move || shard_loop(i, rx, exec, inbox, sessions))
                .expect("spawn shard worker");
            workers.push(handle);
        }

        let admitter = {
            let admitter = Admitter::new(cfg, router, power, Arc::clone(&sessions));
            let inbox = Arc::clone(&inbox);
            let epoch = Instant::now();
            thread::Builder::new()
                .name("onesa-admitter".to_string())
                .spawn(move || admission_thread(admitter, &inbox, shard_txs, epoch))
                .expect("spawn admission thread")
        };

        Ok(ServeEngine {
            inbox,
            sessions,
            started: Instant::now(),
            admitter: Some(admitter),
            workers,
            worker_pids,
        })
    }

    /// Process backend only: the shard workers' process ids, indexed by
    /// shard (empty for [`ShardBackend::InProcess`]). The chaos tests
    /// use these to kill a worker mid-run.
    pub fn worker_pids(&self) -> &[u32] {
        &self.worker_pids
    }

    /// Opens the admission gate of a [`ServeConfig::paused`] engine
    /// (idempotent).
    pub fn resume(&self) {
        self.inbox.set_paused(false);
    }

    /// Closes the admission gate again, so a wave of submissions can be
    /// staged into **one** admission window mid-run: `pause()`, submit
    /// the wave, `resume()`. While paused, the admitter takes no
    /// submission: the wave waits in the queue (to `queue_capacity`),
    /// and the admitter keeps taking its shards' events. A window
    /// already being filled closes as usual (at the next empty inbox, or
    /// once a shard takes up its queued window); one executing is
    /// unaffected. This is how a continuous-batching driver keeps the
    /// decode steps of many sessions coalescing even though each round's
    /// inputs only exist after the previous round's outputs: without the
    /// pause, the admitter's greedy fill would dispatch the first step
    /// of a round alone. [`ServeEngine::finish`] reopens the gate, so a
    /// paused engine still drains.
    pub fn pause(&self) {
        self.inbox.set_paused(true);
    }

    /// Submits a request, blocking while the queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueClosed`] if the admission thread is gone.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        self.submit_tagged(request, None, None)
    }

    /// Submits with a deadline priority key (smaller = more urgent; any
    /// unit, typically µs since an epoch the caller picks). Only the
    /// [`AdmissionPolicy::Deadline`] policy reads it.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::submit`].
    pub fn submit_with_deadline(
        &self,
        request: Request,
        deadline: u64,
    ) -> Result<Ticket, ServeError> {
        self.submit_tagged(request, Some(deadline), None)
    }

    /// Non-blocking submit: fails fast with the request handed back when
    /// the queue is full (backpressure signal) or closed.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::Full`] at capacity, [`TrySubmitError::Closed`]
    /// if the admission thread is gone; both return the request.
    pub fn try_submit(&self, request: Request) -> Result<Ticket, TrySubmitError> {
        match self.enqueue(request, None, None, false) {
            Ok(ticket) => Ok(ticket),
            Err(TrySendError::Full(job)) => Err(TrySubmitError::Full(job.request)),
            Err(TrySendError::Disconnected(job)) => Err(TrySubmitError::Closed(job.request)),
        }
    }

    /// Submits a compiled whole-network program as one request: it
    /// flows through the admission window and shard pool like any
    /// other, coalescing stage by stage with concurrent programs on its
    /// shard (use [`RoutePolicy::WeightAffinity`] to keep same-model
    /// programs together). The ticket's [`ServedOutcome`] carries the
    /// final output plus its solo [`ExecStats`].
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::submit`].
    pub fn submit_program(
        &self,
        program: crate::Program,
        inputs: Vec<Tensor>,
    ) -> Result<Ticket, ServeError> {
        self.submit(Request::program(program, inputs))
    }

    /// Requests currently waiting in the submission queue.
    pub fn pending(&self) -> usize {
        self.inbox.depth().0
    }

    // -- decoding sessions ------------------------------------------------

    /// Opens a decoding session: an entry in the host-resident session
    /// table that will hold the session's KV tensors across admission
    /// windows until [`ServeEngine::close_session`] or eviction. At
    /// [`ServeConfig::session_capacity`] the least-recently-used idle
    /// session is evicted to make room.
    pub fn open_session(&self) -> SessionId {
        self.sessions.open()
    }

    /// Closes a session, freeing its KV tensors. Returns whether the
    /// session was still resident (false: already closed or evicted).
    pub fn close_session(&self, id: SessionId) -> bool {
        self.sessions.close(id)
    }

    /// Submits a session's prompt pass: a session-bearing program (its
    /// session outputs become the cache) over the whole prompt.
    /// `prompt_tokens` is the prompt length, counted into
    /// [`PhaseStats::tokens`]. The session admits one step at a time.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionUnknown`] / [`ServeError::SessionBusy`] at
    /// the table, otherwise as for [`ServeEngine::submit`].
    pub fn submit_prefill(
        &self,
        id: SessionId,
        program: crate::Program,
        inputs: Vec<Tensor>,
        prompt_tokens: usize,
    ) -> Result<Ticket, ServeError> {
        let tokens = prompt_tokens as u64;
        self.submit_step(id, Phase::Prefill, tokens, program, inputs, None)
    }

    /// Submits one decode step: the session's current KV tensors are
    /// bound as the program's session inputs **after** `step_inputs`
    /// (matching `Program::session_input` declaration order), and the
    /// step's session outputs are written back into the table before
    /// the ticket resolves — so a caller that has seen the reply can
    /// immediately submit the next step.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::submit_prefill`].
    pub fn submit_decode(
        &self,
        id: SessionId,
        program: crate::Program,
        step_inputs: Vec<Tensor>,
    ) -> Result<Ticket, ServeError> {
        self.submit_decode_with_deadline(id, program, step_inputs, None)
    }

    /// [`ServeEngine::submit_decode`] with a deadline priority key
    /// (see [`ServeEngine::submit_with_deadline`]; under drop-on-expiry
    /// an expired step evicts the **whole session**).
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::submit_prefill`].
    pub(crate) fn submit_decode_with_deadline(
        &self,
        id: SessionId,
        program: crate::Program,
        step_inputs: Vec<Tensor>,
        deadline: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        self.submit_step(id, Phase::Decode, 1, program, step_inputs, deadline)
    }

    /// The session's current KV tensors (a clone), in the program's
    /// session-output order. `None` if the session is gone; empty before
    /// its prefill completes.
    pub fn session_kv(&self, id: SessionId) -> Option<Vec<Tensor>> {
        self.sessions.peek(id, |s| s.kv.clone())
    }

    /// Rows of the session's first cache tensor — the attended context
    /// length. `None` if the session is gone, 0 before prefill.
    pub fn session_context_rows(&self, id: SessionId) -> Option<usize> {
        let rows = |s: &SessionState| s.kv.first().map_or(0, |t| t.dims()[0]);
        self.sessions.peek(id, rows)
    }

    /// Decode steps the session has completed (tokens generated).
    pub fn session_tokens(&self, id: SessionId) -> Option<u64> {
        self.sessions.peek(id, |s| s.tokens)
    }

    // -- submission plumbing ----------------------------------------------

    /// Queues a new job for `request` (waiting for room if `wait`) and
    /// hands back its ticket; a refused job hands back its request.
    fn enqueue(
        &self,
        request: Request,
        deadline: Option<u64>,
        session: Option<SessionTag>,
        wait: bool,
    ) -> Result<Ticket, TrySendError<Box<Job>>> {
        let (reply, rx) = mpsc::channel();
        let job = Job {
            ticket: 0,
            deadline,
            submitted_at: Instant::now(),
            request,
            session,
            degrade: None,
            dispatch_seq: 0,
            window: 0,
            queue_seconds: 0.0,
            reply,
        };
        let id = self.inbox.submit(job, wait)?;
        Ok(Ticket { id, rx })
    }

    fn submit_tagged(
        &self,
        request: Request,
        deadline: Option<u64>,
        session: Option<SessionTag>,
    ) -> Result<Ticket, ServeError> {
        self.enqueue(request, deadline, session, true).map_err(|_| {
            if let Some(tag) = session {
                self.sessions.release(tag.id);
            }
            ServeError::QueueClosed
        })
    }

    /// One session step of either phase: checks the session out (one
    /// step in flight at a time), binds what the phase binds after the
    /// caller's inputs — the KV cache for a decode step, nothing for a
    /// prefill — and submits the tagged request.
    fn submit_step(
        &self,
        id: SessionId,
        phase: Phase,
        tokens: u64,
        program: crate::Program,
        mut inputs: Vec<Tensor>,
        deadline: Option<u64>,
    ) -> Result<Ticket, ServeError> {
        inputs.extend(self.sessions.checkout(id, phase)?);
        let tag = SessionTag { id, phase, tokens };
        self.submit_tagged(Request::program(program, inputs), deadline, Some(tag))
    }

    /// Closes the queue, dispatches the backlog, joins every worker and
    /// aggregates the run. Unwaited tickets stay valid — their outcomes
    /// are buffered. Closing lifts a pause, so a pre-loaded engine can
    /// be finished directly.
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerLost`] if a worker thread panicked.
    pub fn finish(mut self) -> Result<ServeSummary, ServeError> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<ServeSummary, ServeError> {
        let admitter = self.admitter.take().ok_or(ServeError::QueueClosed)?;
        // The admitter dispatches whatever is still queued, waits for
        // every window's report, and stops. If it is already gone the
        // join below reports it.
        self.inbox.close();
        let admitted = admitter.join().map_err(|_| ServeError::WorkerLost)?;
        let mut plain = Latencies::default();
        let mut shards: Vec<ShardStats> = Vec::with_capacity(self.workers.len());
        let mut prefill = PhaseStats::default();
        let mut decode = PhaseStats::default();
        let mut nonlinear_evals = 0u64;
        for handle in self.workers.drain(..) {
            let out = handle.join().map_err(|_| ServeError::WorkerLost)?;
            prefill.tokens += out.prefill_tokens;
            decode.tokens += out.decode_tokens;
            nonlinear_evals += out.nonlinear_evals;
            let [none, prefills, decodes] = &out.latencies;
            plain.merge(none);
            prefill.latencies.merge(prefills);
            decode.latencies.merge(decodes);
            shards.push(out.stats);
        }
        for (stats, peak) in shards.iter_mut().zip(admitted.peaks) {
            stats.peak_queue_depth = peak;
        }
        let wall_seconds = self.started.elapsed().as_secs_f64();
        prefill.requests = prefill.latencies.len();
        decode.requests = decode.latencies.len();
        let mut latencies = plain;
        latencies.merge(&prefill.latencies);
        latencies.merge(&decode.latencies);

        let mut wire_cache = WeightCacheStats::default();
        let mut failovers = 0usize;
        for s in &mut shards {
            if wall_seconds > 0.0 {
                s.occupancy = s.busy_seconds / wall_seconds;
            }
            wire_cache.merge(&s.wire_cache);
            failovers += usize::from(s.worker_lost);
        }
        let report = ServingReport {
            requests: latencies.len(),
            wall_seconds,
            batched_seconds: shards.iter().map(|s| s.array_seconds).fold(0.0, f64::max),
            unbatched_seconds: latencies.total(),
            total_macs: shards.iter().map(|s| s.macs).sum(),
            total_nonlinear_evals: nonlinear_evals,
            gemm_groups: shards.iter().map(|s| s.gemm_groups).sum(),
            nonlinear_groups: shards.iter().map(|s| s.nonlinear_groups).sum(),
            latencies,
        };
        Ok(ServeSummary {
            report,
            shards,
            windows: admitted.windows,
            expired: admitted.expired,
            degraded: admitted.degraded,
            power: admitted.power.summary(),
            peak_queue_depth: self.inbox.depth().1,
            failovers,
            wire_cache,
            prefill,
            decode,
            sessions: self.sessions.summary(),
        })
    }
}

impl Drop for ServeEngine {
    /// Tears the pool down if [`ServeEngine::finish`] was never called;
    /// in-flight tickets resolve, the summary is discarded.
    fn drop(&mut self) {
        if self.admitter.is_some() {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_cpwl::NonlinearFn;
    use onesa_tensor::gemm;
    use onesa_tensor::rng::Pcg32;
    use std::sync::mpsc::TryRecvError;

    fn pool(shards: usize) -> ServeEngine {
        ServeEngine::start(ServeConfig::uniform(
            shards,
            ArrayConfig::new(8, 16),
            Parallelism::Sequential,
        ))
        .unwrap()
    }

    /// The bit patterns of `tensors`, for `to_bits()`-exact comparison.
    fn bits(tensors: &[Tensor]) -> Vec<u32> {
        let values = tensors.iter().flat_map(|t| t.as_slice());
        values.map(|v| v.to_bits()).collect()
    }

    #[test]
    fn single_request_round_trip() {
        let mut rng = Pcg32::seed_from_u64(1);
        let a = rng.randn(&[3, 10], 1.0);
        let b = rng.randn(&[10, 4], 1.0);
        let engine = pool(2);
        let ticket = engine.submit(Request::gemm(a.clone(), b.clone())).unwrap();
        assert_eq!(ticket.id(), 0);
        let served = ticket.wait().unwrap();
        assert_eq!(served.ticket, 0);
        assert!(served.shard < 2);
        assert_eq!(served.output, gemm::matmul(&a, &b).unwrap());
        assert!(served.queue_seconds >= 0.0);
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 1);
        assert_eq!(summary.shards.len(), 2);
        assert!(summary.windows >= 1);
    }

    #[test]
    fn nonlinear_round_trip_and_try_wait() {
        let mut rng = Pcg32::seed_from_u64(2);
        let x = rng.randn(&[4, 6], 1.5);
        let engine = pool(1);
        let ticket = engine
            .submit(Request::nonlinear(NonlinearFn::Gelu, x.clone()))
            .unwrap();
        // Poll until served (single shard, tiny request).
        let served = loop {
            match ticket.rx.try_recv() {
                Ok(r) => break r.unwrap(),
                Err(TryRecvError::Empty) => thread::yield_now(),
                Err(TryRecvError::Disconnected) => panic!("pool died before answering"),
            }
        };
        let tables = onesa_cpwl::ops::TableSet::for_granularity(0.25).unwrap();
        assert_eq!(served.output, tables.gelu(&x).unwrap());
        let _ = engine.finish().unwrap();
    }

    #[test]
    fn program_tickets_round_trip_with_per_op_stats() {
        use onesa_plan::{EvalMode, Op, Program};
        let mut rng = Pcg32::seed_from_u64(31);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let mut b = Program::builder(
            "mlp",
            EvalMode::Cpwl {
                granularity: 0.25,
                quantize: false,
            },
        );
        let x = b.input(&[2, 6]);
        let (c1, c2) = (b.constant(w1.clone()), b.constant(w2.clone()));
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
        let program = b.finish().unwrap();

        let engine = pool(2);
        let xs: Vec<_> = (0..4).map(|_| rng.randn(&[2, 6], 1.0)).collect();
        let tickets: Vec<Ticket> = xs
            .iter()
            .map(|x| {
                engine
                    .submit_program(program.clone(), vec![x.clone()])
                    .unwrap()
            })
            .collect();
        // MAC counts follow the shapes alone, not the array.
        let op_stats = program.op_stats(&ArrayConfig::default()).unwrap();
        assert_eq!(op_stats.len(), 3);
        let mut executed_macs = 0u64;
        for (t, x) in tickets.into_iter().zip(&xs) {
            let served = t.wait().unwrap();
            let solo = program
                .run(
                    std::slice::from_ref(x),
                    Parallelism::Sequential,
                    &mut onesa_plan::TableCache::new(),
                )
                .unwrap();
            assert_eq!(served.output, solo.output);
            assert_eq!(
                served.stats.macs,
                op_stats.iter().map(|s| s.macs).sum::<u64>()
            );
            executed_macs += served.stats.macs;
        }
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 4);
        assert_eq!(summary.expired, 0);
        assert_eq!(summary.report.total_macs, executed_macs);
    }

    #[test]
    fn malformed_request_is_rejected_at_admission() {
        // The shard never sees the bad request: the admitter's check
        // rejects it, so the shard's batch count stays clean.
        let mut rng = Pcg32::seed_from_u64(32);
        let engine = pool(1);
        let bad = Request::gemm(rng.randn(&[2, 8], 1.0), rng.randn(&[9, 3], 1.0));
        let t = engine.submit(bad).unwrap();
        match t.wait() {
            Err(ServeError::Exec(TensorError::ShapeMismatch { .. })) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 0);
        assert_eq!(summary.shards[0].batches, 0, "shard saw the bad request");
    }

    #[test]
    fn expired_deadlines_drop_instead_of_dispatching() {
        let mut rng = Pcg32::seed_from_u64(33);
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Deadline {
                    window: 8,
                    drop_expired: true,
                })
                .start_paused(),
        )
        .unwrap();
        // Deadline 0 µs is in the past by the time the gate opens; a
        // far-future deadline and a no-deadline request both survive.
        let doomed = engine
            .submit_with_deadline(
                Request::gemm(rng.randn(&[2, 4], 1.0), rng.randn(&[4, 2], 1.0)),
                0,
            )
            .unwrap();
        let urgent_ok = engine
            .submit_with_deadline(
                Request::gemm(rng.randn(&[2, 4], 1.0), rng.randn(&[4, 2], 1.0)),
                u64::MAX - 1,
            )
            .unwrap();
        let no_deadline = engine
            .submit(Request::gemm(
                rng.randn(&[2, 4], 1.0),
                rng.randn(&[4, 2], 1.0),
            ))
            .unwrap();
        // Make sure the admission clock has advanced past deadline 0.
        thread::sleep(std::time::Duration::from_millis(2));
        engine.resume();
        match doomed.wait() {
            Err(ServeError::DeadlineExpired {
                deadline_us: 0,
                now_us,
            }) => assert!(now_us > 0),
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert!(urgent_ok.wait().is_ok());
        assert!(no_deadline.wait().is_ok());
        let summary = engine.finish().unwrap();
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.report.requests, 2);
        assert!(format!("{summary}").contains("expired 1"));
    }

    #[test]
    fn rejected_requests_do_not_consume_the_size_capped_window_budget() {
        let mut rng = Pcg32::seed_from_u64(35);
        // Budget fits all three valid requests (3 x 16 = 48 MACs); the
        // malformed request's 720k modeled MACs must not close the
        // window early and split them.
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::SizeCapped { max_macs: 100 })
                .start_paused(),
        )
        .unwrap();
        let valid =
            |rng: &mut Pcg32| Request::gemm(rng.randn(&[2, 4], 1.0), rng.randn(&[4, 2], 1.0));
        let t1 = engine.submit(valid(&mut rng)).unwrap();
        let bad = engine
            .submit(Request::gemm(
                rng.randn(&[100, 80], 1.0),
                rng.randn(&[81, 90], 1.0),
            ))
            .unwrap();
        let t2 = engine.submit(valid(&mut rng)).unwrap();
        let t3 = engine.submit(valid(&mut rng)).unwrap();
        engine.resume();
        assert!(matches!(bad.wait(), Err(ServeError::Exec(_))));
        for t in [t1, t2, t3] {
            assert!(t.wait().is_ok());
        }
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 3);
        // All three valid requests shared ONE window — before the fix
        // the rejected request's MACs closed the first window early.
        assert_eq!(summary.windows, 1);
    }

    #[test]
    fn deadline_without_drop_keeps_priority_only_semantics() {
        let mut rng = Pcg32::seed_from_u64(34);
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Deadline {
                    window: 4,
                    drop_expired: false,
                })
                .start_paused(),
        )
        .unwrap();
        // Deadline 0 would be expired under drop_expired — without it,
        // the request is merely dispatched first.
        let t = engine
            .submit_with_deadline(
                Request::gemm(rng.randn(&[2, 4], 1.0), rng.randn(&[4, 2], 1.0)),
                0,
            )
            .unwrap();
        engine.resume();
        assert!(t.wait().is_ok());
        let summary = engine.finish().unwrap();
        assert_eq!((summary.expired, summary.report.requests), (0, 1));
    }

    #[test]
    fn malformed_request_fails_only_its_ticket() {
        let mut rng = Pcg32::seed_from_u64(3);
        let engine = pool(1);
        let good = Request::gemm(rng.randn(&[2, 8], 1.0), rng.randn(&[8, 3], 1.0));
        let bad = Request::gemm(rng.randn(&[2, 8], 1.0), rng.randn(&[9, 3], 1.0));
        let t_good = engine.submit(good).unwrap();
        let t_bad = engine.submit(bad).unwrap();
        assert!(t_good.wait().is_ok());
        match t_bad.wait() {
            Err(ServeError::Exec(TensorError::ShapeMismatch { .. })) => {}
            other => panic!("expected shape mismatch, got {other:?}"),
        }
        // The shard survived the rejection.
        let again = engine
            .submit(Request::gemm(
                rng.randn(&[2, 8], 1.0),
                rng.randn(&[8, 3], 1.0),
            ))
            .unwrap();
        assert!(again.wait().is_ok());
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 2); // the bad one never served
    }

    // Producer threads share one engine by reference.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<ServeEngine>();
    };

    #[test]
    fn invalid_granularity_is_rejected_before_any_backend_builds() {
        let in_process = ServeConfig {
            granularity: 0.0,
            ..ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
        };
        // The worker path does not exist: reaching the spawn would fail
        // with a spawn error instead.
        let process = in_process
            .clone()
            .with_backend(ShardBackend::Process(ProcessConfig {
                transport: net::Transport::Unix,
                worker: Some("/nonexistent".into()),
            }));
        for cfg in [in_process, process] {
            assert_eq!(
                ServeEngine::start(cfg).err(),
                Some(TensorError::InvalidArgument("invalid CPWL granularity"))
            );
        }
    }

    #[test]
    fn empty_pool_rejected_and_empty_run_sane() {
        let bad = ServeConfig {
            shards: vec![],
            granularity: 0.25,
            queue_capacity: 4,
            admission: AdmissionPolicy::default(),
            routing: RoutePolicy::default(),
            session_capacity: 64,
            paused: false,
            backend: ShardBackend::InProcess,
            degrade: None,
            pool: PoolPolicy::AlwaysOn,
        };
        assert!(ServeEngine::start(bad).is_err());
        let engine = pool(3);
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 0);
        assert_eq!(summary.modeled_speedup(), 1.0);
        assert!(summary.report.wall_rps().is_finite());
        assert!(!format!("{summary}").contains("NaN"));
    }

    #[test]
    fn display_and_errors_format() {
        assert!(ServeError::QueueClosed.to_string().contains("closed"));
        assert!(ServeError::WorkerLost.to_string().contains("worker"));
        let mut rng = Pcg32::seed_from_u64(5);
        let req = Request::gemm(rng.randn(&[1, 2], 1.0), rng.randn(&[2, 1], 1.0));
        assert!(TrySubmitError::Full(req.clone())
            .to_string()
            .contains("full"));
        assert!(TrySubmitError::Closed(req).to_string().contains("closed"));
    }

    // -- decoding sessions ------------------------------------------------

    /// Minimal session-bearing prefill: doubles the prompt rows and
    /// declares the result as the cache.
    fn cache_prefill(rows: usize, d: usize) -> crate::Program {
        use onesa_plan::{EvalMode, Op, Program};
        let mut b = Program::builder("cache-prefill", EvalMode::Exact);
        let x = b.input(&[rows, d]);
        let cache = b.push(Op::Add, &[x, x]);
        b.mark_session_output(cache);
        b.finish().unwrap()
    }

    /// Matching decode step at context `ctx`: appends one doubled row to
    /// the session cache.
    fn cache_decode(ctx: usize, d: usize) -> crate::Program {
        use onesa_plan::{EvalMode, Op, Program};
        let mut b = Program::builder("cache-decode", EvalMode::Exact);
        let x = b.input(&[1, d]);
        let cache = b.session_input(&[ctx, d]);
        let doubled = b.push(Op::Add, &[x, x]);
        let grown = b.push(Op::ConcatRows, &[cache, doubled]);
        b.mark_session_output(grown);
        b.finish().unwrap()
    }

    #[test]
    fn session_decode_steps_grow_the_cache_and_count_tokens() {
        let mut rng = Pcg32::seed_from_u64(41);
        let d = 4usize;
        let prompt = rng.randn(&[3, d], 1.0);
        let engine = pool(2);

        let id = engine.open_session();
        assert_eq!(engine.sessions.summary().live, 1);
        assert_eq!(engine.session_context_rows(id), Some(0));
        engine
            .submit_prefill(id, cache_prefill(3, d), vec![prompt.clone()], 3)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(engine.session_context_rows(id), Some(3));
        assert_eq!(engine.session_tokens(id), Some(0));

        let mut expect: Vec<f32> = prompt.as_slice().iter().map(|v| 2.0 * v).collect();
        for step in 0..2 {
            let x = rng.randn(&[1, d], 1.0);
            engine
                .submit_decode(id, cache_decode(3 + step, d), vec![x.clone()])
                .unwrap()
                .wait()
                .unwrap();
            expect.extend(x.as_slice().iter().map(|v| 2.0 * v));
            assert_eq!(engine.session_context_rows(id), Some(4 + step));
        }
        assert_eq!(engine.session_tokens(id), Some(2));
        let kv = engine.session_kv(id).unwrap();
        assert_eq!(kv.len(), 1);
        assert_eq!(kv[0].shape().dims(), &[5, d]);
        assert_eq!(kv[0].as_slice(), &expect[..]);

        assert!(engine.close_session(id));
        assert!(!engine.close_session(id));
        assert_eq!(engine.sessions.summary().live, 0);

        let summary = engine.finish().unwrap();
        assert_eq!(summary.sessions.opened, 1);
        assert_eq!(summary.sessions.closed, 1);
        assert_eq!(summary.sessions.live, 0);
        assert_eq!(summary.prefill.requests, 1);
        assert_eq!(summary.prefill.tokens, 3);
        assert_eq!(summary.decode.requests, 2);
        assert_eq!(summary.decode.tokens, 2);
        assert_eq!(summary.decode.latencies.len(), 2);
        assert!(summary.decode.latency_percentile(50.0) > 0.0);
        assert!(summary.decode_tokens_per_second().is_finite());
        assert!(format!("{summary}").contains("sessions"));
    }

    /// Satellite regression: under drop-on-expiry, an expired step must
    /// evict the *whole session* — KV tensors freed, no orphaned table
    /// entry — not just the in-flight step.
    #[test]
    fn deadline_expiry_evicts_the_whole_session() {
        let mut rng = Pcg32::seed_from_u64(42);
        let d = 4usize;
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Deadline {
                    window: 1,
                    drop_expired: true,
                }),
        )
        .unwrap();

        let id = engine.open_session();
        engine
            .submit_prefill(id, cache_prefill(2, d), vec![rng.randn(&[2, d], 1.0)], 2)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(engine.session_context_rows(id), Some(2));

        // Deadline 0 µs is already past when the window closes.
        let t = engine
            .submit_decode_with_deadline(
                id,
                cache_decode(2, d),
                vec![rng.randn(&[1, d], 1.0)],
                Some(0),
            )
            .unwrap();
        match t.wait() {
            Err(ServeError::DeadlineExpired { .. }) => {}
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert!(engine.session_kv(id).is_none(), "session must be evicted");
        assert_eq!(engine.sessions.summary().live, 0);
        match engine.submit_decode(id, cache_decode(2, d), vec![rng.randn(&[1, d], 1.0)]) {
            Err(ServeError::SessionUnknown(evicted)) => assert_eq!(evicted, id),
            other => panic!("expected SessionUnknown, got {other:?}"),
        }

        let summary = engine.finish().unwrap();
        assert_eq!(summary.expired, 1);
        assert_eq!(summary.sessions.opened, 1);
        assert_eq!(summary.sessions.evicted_deadline, 1);
        assert_eq!(summary.sessions.closed, 0);
        assert_eq!(summary.sessions.live, 0);
        // No orphaned cache entries: every opened session is accounted
        // for by close/eviction/live.
        assert_eq!(
            summary.sessions.opened,
            summary.sessions.closed
                + summary.sessions.evicted_deadline
                + summary.sessions.evicted_overflow
                + summary.sessions.live
        );
        // The expired step never ran, so it counts into no phase.
        assert_eq!(summary.decode.requests, 0);
    }

    #[test]
    fn session_overflow_evicts_least_recently_used_idle() {
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_session_capacity(2),
        )
        .unwrap();
        let a = engine.open_session();
        let b = engine.open_session();
        let c = engine.open_session();
        assert_eq!(engine.sessions.summary().live, 2);
        assert!(
            engine.session_kv(a).is_none(),
            "oldest idle session evicted"
        );
        assert!(engine.session_kv(b).is_some());
        assert!(engine.session_kv(c).is_some());
        let summary = engine.finish().unwrap();
        assert_eq!(summary.sessions.opened, 3);
        assert_eq!(summary.sessions.evicted_overflow, 1);
        assert_eq!(summary.sessions.live, 2);
    }

    #[test]
    fn busy_and_unknown_sessions_are_rejected() {
        let mut rng = Pcg32::seed_from_u64(43);
        let d = 4usize;
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .start_paused(),
        )
        .unwrap();
        match engine.submit_prefill(7, cache_prefill(2, d), vec![rng.randn(&[2, d], 1.0)], 2) {
            Err(ServeError::SessionUnknown(7)) => {}
            other => panic!("expected SessionUnknown, got {other:?}"),
        }
        let id = engine.open_session();
        let t = engine
            .submit_prefill(id, cache_prefill(2, d), vec![rng.randn(&[2, d], 1.0)], 2)
            .unwrap();
        // The first step is still queued behind the paused gate: the
        // session admits one step at a time.
        match engine.submit_prefill(id, cache_prefill(2, d), vec![rng.randn(&[2, d], 1.0)], 2) {
            Err(ServeError::SessionBusy(busy)) => assert_eq!(busy, id),
            other => panic!("expected SessionBusy, got {other:?}"),
        }
        engine.resume();
        t.wait().unwrap();
        assert_eq!(engine.session_context_rows(id), Some(2));
        let _ = engine.finish().unwrap();
    }

    #[test]
    fn pause_stages_a_mid_run_wave_into_one_window() {
        // Two waves of two shared-weight GEMMs, each staged behind a
        // mid-run pause: every wave must land in a single admission
        // window and coalesce to one GEMM group, even though the second
        // wave is only submitted after the first completes (the
        // continuous-batching round structure).
        let mut rng = Pcg32::seed_from_u64(41);
        let w = rng.randn(&[4, 3], 1.0);
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(4, 4), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 8 }),
        )
        .unwrap();
        for _ in 0..2 {
            engine.pause();
            let tickets: Vec<Ticket> = (0..2)
                .map(|_| {
                    engine
                        .submit(Request::gemm(rng.randn(&[2, 4], 1.0), w.clone()))
                        .unwrap()
                })
                .collect();
            engine.resume();
            for t in tickets {
                t.wait().unwrap();
            }
        }
        let summary = engine.finish().unwrap();
        assert_eq!(summary.windows, 2, "one window per staged wave");
        assert_eq!(
            summary.report.gemm_groups, 2,
            "each wave's shared-weight GEMMs coalesce into one group"
        );
    }

    #[test]
    fn a_window_stays_open_while_every_shard_has_one_queued() {
        // One shard, kept busy by a large GEMM (a quarter second or more
        // on one thread in either build). A second request's window then
        // waits in the shard's channel, so the four requests that follow
        // are held in one window, which closes full: three windows in
        // all, where closing at each momentarily empty queue would cut
        // the four apart.
        let mut rng = Pcg32::seed_from_u64(43);
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(4, 4), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 4 }),
        )
        .unwrap();
        let n = if cfg!(debug_assertions) { 320 } else { 2048 };
        let big = rng.randn(&[n, n], 1.0);
        let settle = || std::thread::sleep(std::time::Duration::from_millis(50));
        let mut tickets = vec![engine.submit(Request::gemm(big.clone(), big)).unwrap()];
        settle(); // the shard is running the large GEMM
        let w = rng.randn(&[4, 3], 1.0);
        let mut small = || Request::gemm(rng.randn(&[2, 4], 1.0), w.clone());
        tickets.push(engine.submit(small()).unwrap());
        settle(); // its window waits in the shard's channel
        for _ in 0..4 {
            tickets.push(engine.submit(small()).unwrap());
        }
        for t in tickets {
            t.wait().unwrap();
        }
        let summary = engine.finish().unwrap();
        assert_eq!(
            summary.windows, 3,
            "the four held requests share one window"
        );
        assert_eq!(summary.report.gemm_groups, 3);
    }

    #[test]
    fn backpressure_with_pause_flips_mid_burst_does_not_deadlock() {
        // One shard behind a one-request queue. The large GEMM of the
        // test above keeps the shard busy while windows of one fill its
        // channel, so the admitter blocks handing the next one over, and
        // four producers block in `submit` while the pool is paused and
        // resumed under them. Only the shard's pickup, which never waits,
        // can release the admitter.
        let mut rng = Pcg32::seed_from_u64(44);
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(4, 4), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 1 })
                .with_queue_capacity(1),
        )
        .unwrap();
        let n = if cfg!(debug_assertions) { 320 } else { 2048 };
        let big = rng.randn(&[n, n], 1.0);
        let first = engine.submit(Request::gemm(big.clone(), big)).unwrap();
        let w = rng.randn(&[4, 3], 1.0);
        let bursts: Vec<Vec<Request>> = (0..4)
            .map(|_| {
                let mut gemm = || Request::gemm(rng.randn(&[2, 4], 1.0), w.clone());
                (0..6).map(|_| gemm()).collect()
            })
            .collect();
        let tickets: Vec<Ticket> = thread::scope(|scope| {
            let engine = &engine;
            let producers: Vec<_> = bursts
                .into_iter()
                .map(|burst| {
                    scope.spawn(move || {
                        burst
                            .into_iter()
                            .map(|r| engine.submit(r))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for _ in 0..3 {
                thread::sleep(std::time::Duration::from_millis(10));
                engine.pause();
                thread::sleep(std::time::Duration::from_millis(10));
                engine.resume();
            }
            let submitted = producers.into_iter().flat_map(|p| p.join().unwrap());
            submitted.map(Result::unwrap).collect()
        });
        first.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        let summary = engine.finish().unwrap();
        assert_eq!(summary.report.requests, 25);
        assert_eq!(
            summary.peak_queue_depth, 1,
            "the queue never held more than its bound"
        );
    }

    /// A tiny CPWL MLP (GEMM → Gelu → GEMM) for the degrade tests, plus
    /// one input batch. Deterministic for a given seed.
    fn mlp(granularity: f32, seed: u64) -> (crate::Program, Tensor) {
        use onesa_plan::{EvalMode, Op, Program};
        let mut rng = Pcg32::seed_from_u64(seed);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let mut b = Program::builder(
            "mlp",
            EvalMode::Cpwl {
                granularity,
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
        (b.finish().unwrap(), rng.randn(&[2, 6], 1.0))
    }

    #[test]
    fn degrade_ladder_rescues_expired_program_request() {
        // Degrade-don't-drop: a CPWL program request already past its
        // deadline jumps to the coarsest rung and serves, bit-identical
        // to a solo run compiled directly at that rung.
        let (program, x) = mlp(0.25, 50);
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Deadline {
                    window: 8,
                    drop_expired: true,
                })
                .with_degrade(DegradePolicy::new(vec![0.5, 1.0]))
                .start_paused(),
        )
        .unwrap();
        let doomed = engine
            .submit_with_deadline(Request::program(program.clone(), vec![x.clone()]), 0)
            .unwrap();
        thread::sleep(std::time::Duration::from_millis(2));
        engine.resume();
        let served = doomed.wait().expect("rescued, not expired");
        assert_eq!(
            served.degrade,
            Some(DegradeInfo {
                requested: 0.25,
                served: 1.0,
                rungs: 2
            })
        );
        let solo = program
            .with_granularity(1.0)
            .unwrap()
            .run(
                std::slice::from_ref(&x),
                Parallelism::Sequential,
                &mut onesa_plan::TableCache::new(),
            )
            .unwrap();
        assert_eq!(served.output, solo.output, "bit-identical to coarse solo");
        let summary = engine.finish().unwrap();
        assert_eq!(summary.expired, 0);
        assert_eq!(summary.degraded, 1);
        assert!(summary.degraded_fraction() > 0.0);
        assert!(format!("{summary}").contains("degraded 1"));
    }

    #[test]
    fn degrade_memo_keeps_equal_fingerprints_of_different_shapes_apart() {
        // Regression: a stateless program's fingerprint ignores its input
        // shapes, so BERT compiled at 6 and at 8 tokens — and two bare
        // GELUs of different shapes — hash alike. The recompile memo once
        // handed the second the first one's program, and the shape
        // mismatch failed every ticket of the window.
        use onesa_nn::models::{SmallCnn, TinyBert};
        use onesa_plan::Compile;
        let mode = onesa_nn::InferenceMode::cpwl(0.25).unwrap();
        let bert = TinyBert::new(5, 32, 12, 2, 2);
        let [short, long] = [6, 8].map(|n| bert.compile((&mode, n)).unwrap());
        assert_eq!(short.fingerprint(), long.fingerprint());
        let cnn = SmallCnn::new(7, 1, 3).compile((&mode, (8, 8))).unwrap();
        let ids = |n: usize| TinyBert::ids_tensor(&(0..n).collect::<Vec<_>>());
        let mut rng = Pcg32::seed_from_u64(56);
        let requests = [
            Request::program(short, vec![ids(6)]),
            Request::program(long, vec![ids(8)]),
            Request::program(cnn, vec![rng.randn(&[1, 8, 8], 1.0)]),
            Request::nonlinear(NonlinearFn::Gelu, rng.randn(&[2, 3], 1.5)),
            Request::nonlinear(NonlinearFn::Gelu, rng.randn(&[4, 5], 1.5)),
        ];
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_degrade(DegradePolicy::new(vec![0.5, 1.0]).with_depth_threshold(0))
                .start_paused(),
        )
        .unwrap();
        let tickets = requests.clone().map(|r| engine.submit(r).unwrap());
        engine.resume();
        for (i, (ticket, mut request)) in tickets.into_iter().zip(requests).enumerate() {
            let served = ticket.wait().expect("no ticket of the window fails");
            let rung = served.degrade.expect("depth 0 degrades everything").served;
            // The oracle: the request's own program compiled at the
            // served rung, run alone.
            request.lower(0.25).unwrap();
            let (program, inputs) = request.as_program().unwrap();
            let coarse = program.with_granularity(rung).unwrap();
            let mut tables = onesa_plan::TableCache::new();
            let solo = coarse.run(inputs, Parallelism::Sequential, &mut tables);
            assert_eq!(
                bits(&[served.output]),
                bits(&[solo.unwrap().output]),
                "request {i}"
            );
        }
        let summary = engine.finish().unwrap();
        assert_eq!((summary.report.requests, summary.degraded), (5, 5));
    }

    #[test]
    fn size_capped_window_budget_counts_recompiled_macs() {
        // Regression: the window-fill degrade runs *before* budget
        // accounting, so a size-capped window is charged the degraded
        // program's modeled MACs. Budget = one fine program: both
        // degraded (cheaper) requests must share the single window.
        let (program, x) = mlp(0.25, 51);
        let coarse_macs = program.with_granularity(0.5).unwrap().modeled_macs();
        assert!(
            coarse_macs < program.modeled_macs(),
            "coarser rung must model strictly less work"
        );
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::SizeCapped {
                    max_macs: program.modeled_macs(),
                })
                .with_degrade(DegradePolicy::new(vec![0.5]).with_depth_threshold(0))
                .start_paused(),
        )
        .unwrap();
        let t1 = engine
            .submit_program(program.clone(), vec![x.clone()])
            .unwrap();
        let t2 = engine
            .submit_program(program.clone(), vec![x.clone()])
            .unwrap();
        engine.resume();
        let oracle = program
            .with_granularity(0.5)
            .unwrap()
            .run(
                std::slice::from_ref(&x),
                Parallelism::Sequential,
                &mut onesa_plan::TableCache::new(),
            )
            .unwrap();
        for t in [t1, t2] {
            let served = t.wait().unwrap();
            assert_eq!(
                served.degrade,
                Some(DegradeInfo {
                    requested: 0.25,
                    served: 0.5,
                    rungs: 1
                })
            );
            assert_eq!(served.output, oracle.output);
        }
        let summary = engine.finish().unwrap();
        assert_eq!(
            summary.windows, 1,
            "recompiled MACs fit both requests in one size-capped window"
        );
        assert_eq!(summary.degraded, 2);
        assert_eq!(summary.expired, 0);
    }

    #[test]
    fn non_degradable_requests_still_expire_under_ladder() {
        // The ladder only rescues CPWL programs: GEMMs (which lower to
        // exact-mode programs) and exact-mode programs past their
        // deadline still expire. A bare nonlinear lowers to a CPWL
        // program at the pool granularity, so it is rescued like one.
        use onesa_plan::{EvalMode, Op, Program};
        let mut rng = Pcg32::seed_from_u64(52);
        let mut b = Program::builder("exact", EvalMode::Exact);
        let x = b.input(&[2, 4]);
        let c = b.constant(rng.randn(&[4, 2], 1.0));
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, c],
        );
        let exact = b.finish().unwrap();
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Deadline {
                    window: 8,
                    drop_expired: true,
                })
                .with_degrade(DegradePolicy::new(vec![0.5, 1.0]))
                .start_paused(),
        )
        .unwrap();
        let gemm = engine
            .submit_with_deadline(
                Request::gemm(rng.randn(&[2, 4], 1.0), rng.randn(&[4, 2], 1.0)),
                0,
            )
            .unwrap();
        let prog = engine
            .submit_with_deadline(Request::program(exact, vec![rng.randn(&[2, 4], 1.0)]), 0)
            .unwrap();
        let x = rng.randn(&[3, 5], 1.5);
        let nonlinear = engine
            .submit_with_deadline(Request::nonlinear(NonlinearFn::Gelu, x.clone()), 0)
            .unwrap();
        thread::sleep(std::time::Duration::from_millis(2));
        engine.resume();
        for t in [gemm, prog] {
            match t.wait() {
                Err(ServeError::DeadlineExpired { .. }) => {}
                other => panic!("expected DeadlineExpired, got {other:?}"),
            }
        }
        let rescued = nonlinear.wait().unwrap();
        assert_eq!(
            rescued.degrade,
            Some(DegradeInfo {
                requested: 0.25,
                served: 1.0,
                rungs: 2,
            })
        );
        let coarsest = onesa_cpwl::ops::TableSet::for_granularity(1.0).unwrap();
        assert_eq!(rescued.output, coarsest.gelu(&x).unwrap());
        let summary = engine.finish().unwrap();
        assert_eq!(summary.expired, 2);
        assert_eq!(summary.degraded, 1);
    }

    #[test]
    fn degrade_ladder_validated_at_start() {
        let cfg = || ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential);
        for ladder in [
            vec![],
            vec![0.5, 0.5],
            vec![0.5, 0.25],
            vec![-0.25],
            vec![0.0],
            vec![f32::NAN],
        ] {
            assert!(
                ServeEngine::start(cfg().with_degrade(DegradePolicy::new(ladder.clone()))).is_err(),
                "ladder {ladder:?} must be rejected"
            );
        }
        let ok =
            ServeEngine::start(cfg().with_degrade(DegradePolicy::new(vec![0.5, 1.0]))).unwrap();
        let _ = ok.finish().unwrap();
    }

    /// The low-load comparison: twelve CNN requests, one at a time (so
    /// one per window), through a 4-shard energy-aware pool under `policy`.
    fn trickle(policy: PoolPolicy) -> (Vec<Tensor>, ServeSummary) {
        use onesa_plan::Compile;
        let mode = onesa_nn::InferenceMode::cpwl(0.25).unwrap();
        let cnn = onesa_nn::models::SmallCnn::new(7, 1, 4);
        let program = cnn.compile((&mode, (8, 8))).unwrap();
        let mut rng = Pcg32::seed_from_u64(2026);
        let engine = ServeEngine::start(
            ServeConfig::uniform(4, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 2 })
                .with_routing(RoutePolicy::EnergyAware)
                .with_pool(policy),
        )
        .unwrap();
        let outputs = (0..12)
            .map(|_| {
                let x = rng.randn(&[1, 8, 8], 1.0);
                let ticket = engine.submit_program(program.clone(), vec![x]).unwrap();
                ticket.wait().unwrap().output
            })
            .collect();
        (outputs, engine.finish().unwrap())
    }

    /// `[active, idle, off]` shard-windows, then `[power-ups, power-downs]`.
    fn power_counts(p: &PowerSummary) -> ([u64; 3], [u64; 2]) {
        let windows = [
            p.active_shard_windows,
            p.idle_shard_windows,
            p.off_shard_windows,
        ];
        (windows, [p.power_ups, p.power_downs])
    }

    #[test]
    fn elastic_pool_powers_shards_up_and_down() {
        let mut rng = Pcg32::seed_from_u64(53);
        let engine = ServeEngine::start(
            ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::Fifo { window: 2 })
                .with_pool(PoolPolicy::Elastic {
                    min_active: 1,
                    scale_up_depth: 1,
                    idle_windows: 1,
                })
                .start_paused(),
        )
        .unwrap();
        let req = |rng: &mut Pcg32| {
            let a = rng.randn(&[2, 4], 1.0);
            let b = rng.randn(&[4, 2], 1.0);
            let want = gemm::matmul(&a, &b).unwrap();
            (Request::gemm(a, b), want)
        };
        // Burst: a deep backlog behind the first window powers the
        // parked shard up.
        let burst: Vec<_> = (0..6)
            .map(|_| {
                let (r, want) = req(&mut rng);
                (engine.submit(r).unwrap(), want)
            })
            .collect();
        engine.resume();
        for (t, want) in burst {
            assert_eq!(t.wait().unwrap().output, want);
        }
        // Trickle: serial single-request windows leave one shard unused;
        // it drains to Idle and then powers Off.
        for _ in 0..6 {
            let (r, want) = req(&mut rng);
            let t = engine.submit(r).unwrap();
            assert_eq!(t.wait().unwrap().output, want);
        }
        let summary = engine.finish().unwrap();
        assert_eq!(summary.expired, 0);
        assert_eq!(summary.report.requests, 12);
        let p = summary.power;
        assert!(p.power_ups >= 1, "backlog must power the parked shard up");
        assert!(p.power_downs >= 1, "idle shard must drain and power off");
        assert!(p.off_shard_windows >= 1);
        assert!(p.active_shard_windows >= 1);
        assert!(p.modeled_joules > 0.0);
        assert!(format!("{summary}").contains("power-down"));

        // At low load the three shards past `min_active` never power up:
        // 12 active and 36 off shard-windows where the always-on pool
        // pays for 48, a 70.8% energy saving (0.155 mJ against 0.532 mJ)
        // with no output changed.
        let (fixed_out, fixed) = trickle(PoolPolicy::AlwaysOn);
        let (elastic_out, elastic) = trickle(PoolPolicy::Elastic {
            min_active: 1,
            scale_up_depth: 4,
            idle_windows: 1,
        });
        assert_eq!(bits(&elastic_out), bits(&fixed_out));
        let p = elastic.power;
        assert_eq!(power_counts(&p), ([12, 0, 36], [0, 0]));
        assert_eq!(p.modeled_joules, 0.00015531722499771605);
        assert!(p.modeled_joules <= fixed.power.modeled_joules);
    }

    #[test]
    fn always_on_pool_accounts_every_shard_window() {
        let (_, summary) = trickle(PoolPolicy::AlwaysOn);
        assert_eq!(summary.windows, 12);
        let p = summary.power;
        // Always-on: every shard is active for every window.
        assert_eq!(power_counts(&p), ([48, 0, 0], [0, 0]));
        // Which shard serves a request follows host timing (a shard's
        // load is released after its reply), and with it the order a
        // window's terms are summed in: held to 1e-12, not to the bit.
        assert!((p.modeled_joules / 0.0005322134136369481 - 1.0).abs() < 1e-12);
        assert!(summary.modeled_joules_per_request() > 0.0);
        assert!(format!("{summary}").contains("power:"));
    }

    #[test]
    fn energy_aware_routing_splits_a_homogeneous_pool() {
        // On identical shards the energy weight degenerates to least
        // loaded: equal-size requests alternate deterministically.
        let mut rng = Pcg32::seed_from_u64(55);
        let engine = ServeEngine::start(
            ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_routing(RoutePolicy::EnergyAware)
                .start_paused(),
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| {
                engine
                    .submit(Request::gemm(
                        rng.randn(&[2, 4], 1.0),
                        rng.randn(&[4, 2], 1.0),
                    ))
                    .unwrap()
            })
            .collect();
        engine.resume();
        let shards: Vec<usize> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().shard)
            .collect();
        assert_eq!(shards, vec![0, 1, 0, 1]);
        let _ = engine.finish().unwrap();
    }

    /// A one-GEMM exact program over a `[32, 4·PRUNE_BLOCK_COLS]`
    /// weight; `pruned` zeroes the upper half of the columns so
    /// `OptLevel::Standard`'s prune-pack pass attaches the sparsity
    /// attribute (2 of 4 blocks skipped).
    fn credit_program(pruned: bool, seed: u64) -> onesa_plan::Program {
        use onesa_plan::{EvalMode, Op, OptLevel, Program, PRUNE_BLOCK_COLS};
        let (k, n) = (32, 4 * PRUNE_BLOCK_COLS);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut w = rng.randn(&[k, n], 1.0);
        if pruned {
            for r in 0..k {
                for c in n / 2..n {
                    w.as_mut_slice()[r * n + c] = 0.0;
                }
            }
        }
        let mut b = Program::builder(if pruned { "pruned" } else { "dense" }, EvalMode::Exact);
        let x = b.input(&[4, k]);
        let c = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, c],
        );
        b.finish().unwrap().optimize(OptLevel::Standard).unwrap()
    }

    #[test]
    fn sparse_credit_reaches_admission_and_energy_routing() {
        // One source of truth: admission and routing weigh a request by
        // its program's `modeled_macs`, whose GEMM cost credits skipped
        // column blocks — size-capped windows and energy-aware routing
        // must both see a pruned program as the cheaper work it is.
        let dense = credit_program(false, 57);
        let sparse = credit_program(true, 57);
        assert_eq!(sparse.sparse_blocks(), (2, 4));
        assert_eq!(sparse.modeled_macs() * 2, dense.modeled_macs());
        let x = Pcg32::seed_from_u64(58).randn(&[4, 32], 1.0);
        assert_eq!(
            Request::program(sparse.clone(), vec![x.clone()])
                .lowered_program()
                .modeled_macs(),
            sparse.modeled_macs(),
            "admission and routing weigh the credited program cost"
        );

        // Size-capped admission: the budget fits exactly two *credited*
        // programs per window (dense-costed accounting would close the
        // window after one).
        let engine = ServeEngine::start(
            ServeConfig::uniform(1, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_admission(AdmissionPolicy::SizeCapped {
                    max_macs: 2 * sparse.modeled_macs(),
                })
                .start_paused(),
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| {
                engine
                    .submit_program(sparse.clone(), vec![x.clone()])
                    .unwrap()
            })
            .collect();
        engine.resume();
        for t in tickets {
            t.wait().unwrap();
        }
        let summary = engine.finish().unwrap();
        assert_eq!(
            summary.windows, 2,
            "sparse credit packs two pruned programs per window"
        );

        // Energy-aware routing: after the dense program lands on shard
        // 0, both pruned programs prefer shard 1 — its outstanding
        // credited work stays below the dense shard's. Without the
        // credit the third request would tie (2 programs each) and fall
        // back to shard 0.
        let engine = ServeEngine::start(
            ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
                .with_routing(RoutePolicy::EnergyAware)
                .start_paused(),
        )
        .unwrap();
        let d = engine.submit_program(dense, vec![x.clone()]).unwrap();
        let s1 = engine
            .submit_program(sparse.clone(), vec![x.clone()])
            .unwrap();
        let s2 = engine.submit_program(sparse, vec![x]).unwrap();
        engine.resume();
        let shards = [d, s1, s2].map(|t| t.wait().unwrap().shard);
        assert_eq!(shards, [0, 1, 1]);
        let _ = engine.finish().unwrap();
    }
}
