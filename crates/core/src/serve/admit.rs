//! Admission: how a batching window closes ([`AdmissionPolicy`]), what
//! happens to a request that cannot be served as submitted
//! ([`DegradePolicy`], deadline expiry), and the `Admitter`: a state
//! machine with no thread, channel or clock of its own that takes one
//! event at a time and orchestrates each window through the session
//! table, the power states and the router. The admission thread is a
//! shell around it that blocks on the engine's one inbox.

use super::inbox::{Inbox, Leaving};
use super::power::PowerStates;
use super::route::Router;
use super::session::{SessionTable, SessionTag};
use super::{Job, ServeConfig, ServeError};
use onesa_plan::{CompileCache, EvalMode};
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Instant;

/// How the admission thread closes a batching window.
///
/// A window opens when the first waiting request is picked up and is
/// filled greedily from whatever else has already arrived — admission
/// never waits for stragglers while a shard could take the window at
/// once, so a lightly loaded pool degenerates to request-at-a-time
/// serving and a busy one to large coalesced batches. While every shard
/// still has a window queued, one closed now could not start before
/// those anyway: when the inbox runs empty the window stays open to new
/// arrivals until a shard takes its queued window up (or the policy's
/// limit closes it), so how full a window gets under load follows the
/// shards' pace, not the admitter's. The hold is event-driven — a
/// shard's pickup wakes the admitter like an arrival does — and it
/// holds while paused too: a paused engine takes no submission, and the
/// window closes at the next pickup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Dispatch in arrival order; close the window after `window`
    /// requests (`0` is treated as `1`).
    Fifo {
        /// Maximum requests per window.
        window: usize,
    },
    /// Like [`AdmissionPolicy::Fifo`], but the admitted window is
    /// dispatched earliest-deadline-first. Requests without a deadline
    /// sort last; ties keep arrival order (the sort is stable).
    ///
    /// With `drop_expired` off, the deadline is a pure priority key —
    /// nothing is dropped on a miss. With it on, deadlines are absolute
    /// **microseconds since [`ServeEngine::start`]**: a request already
    /// past its deadline when its window closes resolves its ticket
    /// with [`ServeError::DeadlineExpired`] instead of dispatching, and
    /// is counted in [`ServeSummary::expired`].
    ///
    /// [`ServeEngine::start`]: super::ServeEngine::start
    /// [`ServeSummary::expired`]: super::ServeSummary::expired
    Deadline {
        /// Maximum requests per window.
        window: usize,
        /// Drop (rather than merely deprioritize) expired requests.
        drop_expired: bool,
    },
    /// Close the window once its accumulated modeled work (the admitted
    /// programs' `Program::modeled_macs`) reaches `max_macs`, so one window
    /// never holds more array work than a target batch budget.
    SizeCapped {
        /// Modeled-MAC budget per window.
        max_macs: u64,
    },
}

impl Default for AdmissionPolicy {
    /// FIFO with a 64-request window.
    fn default() -> Self {
        AdmissionPolicy::Fifo { window: 64 }
    }
}

/// When and how the admitter trades accuracy for survival under
/// overload: instead of letting a queued CPWL program request expire
/// (or letting a deep queue grow its latency unboundedly), the request
/// is **re-compiled at a coarser CPWL granularity** — fewer table
/// segments, a cheaper table-staging footprint, the accuracy/latency
/// knob the paper itself highlights — and served. The recompile rides
/// [`CompileCache`] (keyed on the coarser mode + the source program's
/// fingerprint), and the shard's per-granularity plan `TableCache`
/// builds each rung's tables at most once.
///
/// Two trigger points:
///
/// * **Window fill.** While the admitter fills a window, a CPWL program
///   request degrades one ladder rung if the submission queue behind it
///   is at least the policy's depth threshold deep. The window's
///   work budget ([`AdmissionPolicy::SizeCapped`]) counts the
///   *recompiled* program's modeled MACs.
/// * **Expiry rescue.** Under [`AdmissionPolicy::Deadline`] with
///   `drop_expired`, a CPWL program request already past its deadline
///   jumps to the **coarsest** rung and dispatches instead of resolving
///   [`ServeError::DeadlineExpired`]. Only non-degradable requests
///   (exact-mode programs, which is what GEMM requests lower to) or
///   requests already at the coarsest rung still expire.
///
/// Degraded outputs stay bit-identical to a solo run of the same
/// program compiled directly at the served granularity — degrading
/// changes *which* program runs, never how it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradePolicy {
    /// Fallback granularities, finest first, each strictly coarser
    /// (larger) than the one before; requests degrade along it rung by
    /// rung. Must be non-empty.
    pub(crate) ladder: Vec<f32>,
    /// Submission-queue depth at which window fill degrades a request
    /// one rung (`usize::MAX` — the [`DegradePolicy::new`] default —
    /// disables pressure degrading; `0` degrades every request).
    pub(crate) depth_threshold: usize,
}

impl DegradePolicy {
    /// A ladder-only policy: no pressure trigger, just the expiry
    /// rescue (degrade-don't-drop).
    pub fn new(ladder: Vec<f32>) -> Self {
        DegradePolicy {
            ladder,
            depth_threshold: usize::MAX,
        }
    }

    /// Replaces the queue-depth trigger.
    pub fn with_depth_threshold(mut self, depth: usize) -> Self {
        self.depth_threshold = depth;
        self
    }
}

/// How a degraded request was actually served, riding its
/// [`ServedOutcome`](super::ServedOutcome). `None` on an outcome means
/// the request ran exactly as submitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeInfo {
    /// CPWL granularity the program was compiled at when submitted.
    pub requested: f32,
    /// Coarser granularity it was re-compiled to and served at.
    pub served: f32,
    /// Ladder rungs between the two (the number of degrade-ladder
    /// entries in `(requested, served]`).
    pub rungs: usize,
}

/// What the admitter reacts to, in the order the inbox hands it over.
#[derive(Debug)]
pub(super) enum Event {
    /// A submission, taken from the queue.
    Submit(Job),
    /// Shard `i` took up the oldest window queued for it.
    ShardTook(usize),
    /// A shard ran a window it took up: its modeled seconds and MACs
    /// (zeros for a failed window). It also frees the window's work from
    /// the router's load.
    ShardDone {
        window: usize,
        shard: usize,
        seconds: f64,
        macs: u64,
    },
    /// The inbox holds nothing the admitter may take right now.
    Idle,
}

/// What the inbox knows as it hands over an event.
#[derive(Debug, Clone, Copy)]
pub(super) struct Stamp {
    /// The deadline clock: microseconds since the engine started.
    pub(super) now_us: u64,
    /// Submissions still queued behind the event.
    pub(super) backlog: usize,
}

/// The admission state machine. [`Admitter::on`] takes one event and
/// returns the windows to dispatch, each with its shard.
pub(super) struct Admitter {
    /// The engine's configuration: the admission and degrade policies,
    /// and the granularity bare nonlinear requests lower to (every shard
    /// engine's own).
    cfg: ServeConfig,
    /// Memo of degrade recompiles, keyed on the coarser mode + the
    /// source program's fingerprint: each (program, rung) pair is
    /// re-compiled at most once per engine lifetime.
    recompile: CompileCache,
    router: Router,
    pub(super) power: PowerStates,
    sessions: Arc<SessionTable>,
    /// The window being filled, and its modeled work.
    window: Vec<Job>,
    work: u64,
    /// The window stayed open at the last event, an `Idle`.
    held: bool,
    /// Per shard: windows dispatched it has not taken up yet, and the
    /// most at once.
    queued: Vec<usize>,
    pub(super) peaks: Vec<usize>,
    /// Per shard: the modeled MACs of every window dispatched to it that
    /// it has not yet run, oldest first.
    running: Vec<VecDeque<u64>>,
    /// Windows closed, requests expired and requests degraded so far.
    pub(super) windows: usize,
    pub(super) expired: usize,
    pub(super) degraded: usize,
    dispatch_seq: u64,
}

fn window_full(policy: AdmissionPolicy, len: usize, work: u64) -> bool {
    match policy {
        AdmissionPolicy::Fifo { window } | AdmissionPolicy::Deadline { window, .. } => {
            len >= window.max(1)
        }
        AdmissionPolicy::SizeCapped { max_macs } => work >= max_macs.max(1),
    }
}

impl Admitter {
    pub(super) fn new(
        cfg: ServeConfig,
        router: Router,
        power: PowerStates,
        sessions: Arc<SessionTable>,
    ) -> Self {
        let n = cfg.shards.len();
        Admitter {
            cfg,
            recompile: CompileCache::new(),
            router,
            power,
            sessions,
            window: Vec::new(),
            work: 0,
            held: false,
            queued: vec![0; n],
            peaks: vec![0; n],
            running: vec![VecDeque::new(); n],
            windows: 0,
            expired: 0,
            degraded: 0,
            dispatch_seq: 0,
        }
    }

    /// Takes one event and returns the windows it closed, each batch
    /// with its shard. A window fills greedily: it closes when the
    /// policy's limit is reached, or at an `Idle` while some shard has
    /// no window queued (see [`AdmissionPolicy`]).
    pub(super) fn on(&mut self, event: Event, at: Stamp) -> Vec<(usize, Vec<Job>)> {
        let idle = matches!(event, Event::Idle);
        let close = match event {
            Event::Submit(job) => {
                self.admit(job, at.backlog);
                window_full(self.cfg.admission, self.window.len(), self.work)
            }
            Event::ShardTook(shard) => {
                self.queued[shard] -= 1;
                false
            }
            Event::ShardDone {
                window,
                shard,
                seconds,
                macs,
            } => {
                let charged = self.running[shard].pop_front().unwrap_or(0);
                self.router.release(shard, charged);
                self.power.report((window, shard, seconds, macs));
                false
            }
            Event::Idle => self.queued.contains(&0),
        };
        self.held = idle && !close;
        if close && !self.window.is_empty() {
            self.close(at)
        } else {
            Vec::new()
        }
    }

    /// Whether the admitter wants an `Idle` when the inbox runs empty: a
    /// window is open and the last event did not already leave it held.
    pub(super) fn wants_idle(&self) -> bool {
        self.holds_window() && !self.held
    }

    /// Whether a window is open.
    pub(super) fn holds_window(&self) -> bool {
        !self.window.is_empty()
    }

    /// Whether a window is open or a shard owes a report.
    pub(super) fn busy(&self) -> bool {
        self.holds_window() || self.running.iter().any(|r| !r.is_empty())
    }

    /// Re-compiles a queued CPWL program request one ladder rung coarser
    /// (or, for the expiry rescue, at the coarsest rung), swapping the
    /// recompiled program into the job so every later consumer — the
    /// size-capped window budget, least-loaded/energy-aware routing, the
    /// shard — sees the *degraded* request's modeled MACs. Returns
    /// whether the request changed; without a ladder nothing does, and
    /// exact-mode programs (GEMM requests among them) and requests
    /// already at (or past) the target rung are left untouched.
    fn degrade(&self, job: &mut Job, to_coarsest: bool) -> bool {
        let Some(policy) = &self.cfg.degrade else {
            return false;
        };
        let program = job.request.lowered_program();
        let EvalMode::Cpwl {
            granularity: current,
            quantize,
        } = program.mode()
        else {
            return false;
        };
        let target = if to_coarsest {
            policy.ladder.last().copied()
        } else {
            policy.ladder.iter().copied().find(|&g| g > current)
        };
        let Some(target) = target.filter(|&g| g > current) else {
            return false;
        };
        let mode = EvalMode::Cpwl {
            granularity: target,
            quantize,
        };
        // A stateless program's fingerprint ignores its input shapes, so
        // the memo is keyed on them too (each shape behind its rank):
        // one model compiled at two sequence lengths is two recompiles.
        let geometry: Vec<usize> = program
            .input_shapes()
            .iter()
            .flat_map(|shape| std::iter::once(shape.len()).chain(shape.iter().copied()))
            .collect();
        let recompiled =
            self.recompile
                .get_or_compile(mode, &geometry, program.fingerprint(), || {
                    program.with_granularity(target)
                });
        let Ok(recompiled) = recompiled else {
            return false; // undegradable (should not happen past start validation)
        };
        let requested = job.degrade.map_or(current, |d| d.requested);
        let rungs = policy
            .ladder
            .iter()
            .filter(|&&g| g > requested && g <= target)
            .count();
        job.request.replace_program((*recompiled).clone());
        job.degrade = Some(DegradeInfo {
            requested,
            served: target,
            rungs,
        });
        true
    }

    /// Takes one dequeued job into the window being filled, or rejects
    /// it; `backlog` submissions are still queued behind it.
    ///
    /// The front door: lower the request to a program and check its
    /// inputs. A malformed request is rejected here: its ticket resolves
    /// with the validation error and it never reaches a shard. Only
    /// *admitted* requests consume the window budget `work` — a rejected
    /// request must not close a size-capped window early and split the
    /// valid requests' coalescing opportunity.
    ///
    /// Window-fill pressure degrade: with the backlog at least
    /// [`DegradePolicy::depth_threshold`] deep, a CPWL program request
    /// admits one rung coarser. It runs *before* the budget accounting,
    /// so a size-capped window's `work` counts the recompiled program's
    /// modeled MACs.
    fn admit(&mut self, mut job: Job, backlog: usize) {
        if let Err(e) = job.request.check(self.cfg.granularity) {
            return job.fail(&self.sessions, ServeError::Exec(e));
        }
        let deep = |policy: &DegradePolicy| backlog >= policy.depth_threshold;
        if self.cfg.degrade.as_ref().is_some_and(deep) {
            self.degrade(&mut job, false);
        }
        self.work += job.request.lowered_program().modeled_macs();
        self.window.push(job);
    }

    /// Drop-on-expiry: anything already past its deadline at window
    /// close (`now_us`) resolves as expired instead of running — unless the degrade
    /// ladder can rescue it at the coarsest rung (degrade-don't-drop): a
    /// late answer at reduced accuracy beats no answer, and the
    /// session's KV cache survives. Returns how many jobs expired.
    fn drop_expired(&self, window: &mut Vec<Job>, now_us: u64) -> usize {
        let before = window.len();
        window.retain_mut(|job| {
            let Some(deadline_us) = job.deadline.filter(|&d| d < now_us) else {
                return true;
            };
            if self.degrade(job, true) {
                return true;
            }
            // An expired step takes its whole session with it: the KV
            // cache is useless once the stream misses its deadline, so
            // evict rather than strand the tensors until overflow
            // pressure.
            if let Some(tag) = job.session {
                self.sessions.evict_deadline(tag.id);
            }
            let _ = job.reply.send(Err(ServeError::DeadlineExpired {
                deadline_us,
                now_us,
            }));
            false
        });
        before - window.len()
    }

    /// Closes the window being filled: expiry and EDF order under the
    /// deadline policy, elastic scale-up against the `at.backlog` still
    /// queued, one route per job, then the power states settle and each
    /// shard's batch counts as queued for it.
    fn close(&mut self, at: Stamp) -> Vec<(usize, Vec<Job>)> {
        let mut window = std::mem::take(&mut self.window);
        self.work = 0;
        self.windows += 1;
        if let AdmissionPolicy::Deadline { drop_expired, .. } = self.cfg.admission {
            if drop_expired {
                self.expired += self.drop_expired(&mut window, at.now_us);
            }
            // Stable: equal deadlines (and the no-deadline tail) keep
            // arrival order.
            window.sort_by_key(|job| job.deadline.unwrap_or(u64::MAX));
        }

        self.power.scale_up(at.backlog);
        let mut per_shard: Vec<Vec<Job>> = self.queued.iter().map(|_| Vec::new()).collect();
        for mut job in window {
            let pin = |tag: SessionTag| self.sessions.peek(tag.id, |s| s.shard).flatten();
            let pinned = job.session.and_then(pin);
            if let Some(p) = pinned {
                self.power.wake(p);
            }
            let program = job.request.lowered_program();
            let shard = self.router.pick(program, pinned, self.power.states());
            if let Some(tag) = job.session {
                self.sessions.set_pin(tag.id, shard);
            }
            self.degraded += usize::from(job.degrade.is_some());
            job.dispatch_seq = self.dispatch_seq;
            job.window = self.windows - 1;
            self.dispatch_seq += 1;
            per_shard[shard].push(job);
        }
        let running = &self.running;
        self.power
            .settle(|s| !per_shard[s].is_empty(), |s| running[s].is_empty());

        let mut batches = Vec::new();
        for (shard, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                self.queued[shard] += 1;
                self.peaks[shard] = self.peaks[shard].max(self.queued[shard]);
                let macs = batch
                    .iter()
                    .map(|j| j.request.lowered_program().modeled_macs());
                self.running[shard].push_back(macs.sum());
                batches.push((shard, batch));
            }
        }
        batches
    }
}

/// The admission thread: hands the inbox's events to the admitter and
/// each window it closes to its shard, until the inbox is closed and
/// drained and every dispatched window has been reported; it returns the
/// admitter for its tallies. Its exit — an unwind included — closes the
/// inbox.
pub(super) fn admission_thread(
    mut admitter: Admitter,
    inbox: &Inbox,
    shard_txs: Vec<SyncSender<Vec<Job>>>,
    epoch: Instant,
) -> Admitter {
    let _leaving = Leaving(inbox, true);
    while let Some((event, backlog)) = inbox.take(&admitter) {
        let now_us = epoch.elapsed().as_micros() as u64;
        for (shard, batch) in admitter.on(event, Stamp { now_us, backlog }) {
            // A full shard channel blocks admission here — bounded
            // backpressure toward the submission queue. The shard's own
            // events never wait, so its pickup always gets through.
            let _ = shard_txs[shard].send(batch);
        }
    }
    admitter
}

#[cfg(test)]
mod tests {
    use super::super::inbox::Poll;
    use super::super::power::{PoolPolicy, ShardPower};
    use super::super::route::RoutePolicy;
    use super::super::session::Phase;
    use super::*;
    use crate::batch::Request;
    use crate::engine::OneSa;
    use onesa_cpwl::NonlinearFn;
    use onesa_sim::ArrayConfig;
    use onesa_tensor::parallel::Parallelism;
    use onesa_tensor::rng::Pcg32;
    use proptest::prelude::*;
    use std::sync::mpsc::{self, TryRecvError, TrySendError};

    /// One step of a drawn interleaving.
    #[derive(Debug, Clone)]
    enum Step {
        /// A submission of a kind — a valid GEMM, a malformed one, a
        /// nonlinear (degradable), a session step — with a deadline that
        /// many µs from now, if any.
        Submit(u8, Option<u64>),
        /// Shard `i` (modulo the pool) takes up its oldest queued window.
        Take(usize),
        /// Shard `i` runs the window it took up: modeled seconds and MACs,
        /// or a failure, which reports zeros.
        Run(usize, f64, u64, bool),
        Pause(bool),
        /// The admitter takes what the inbox hands it.
        Deliver,
        /// The clock advances.
        Tick(u64),
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        let deadline = || prop_oneof![Just(None), (0u64..40).prop_map(Some)];
        let submit = || (0u8..4, deadline()).prop_map(|(kind, d)| Step::Submit(kind, d));
        let flag = || prop_oneof![Just(true), Just(false)];
        let failed = prop_oneof![Just(true), Just(false), Just(false)];
        prop_oneof![
            submit(),
            submit(),
            submit(),
            (0usize..4).prop_map(Step::Take),
            (0usize..4, 0.0f64..3e-6, 0u64..50_000, failed)
                .prop_map(|(s, secs, macs, f)| Step::Run(s, secs, macs, f)),
            flag().prop_map(Step::Pause),
            flag().prop_map(Step::Pause),
            Just(Step::Deliver),
            Just(Step::Deliver),
            Just(Step::Deliver),
            (1u64..20).prop_map(Step::Tick),
        ]
    }

    fn admission_strategy() -> impl Strategy<Value = AdmissionPolicy> {
        let flag = prop_oneof![Just(true), Just(false)];
        prop_oneof![
            (0usize..5).prop_map(|window| AdmissionPolicy::Fifo { window }),
            (0usize..5, flag).prop_map(|(window, drop_expired)| AdmissionPolicy::Deadline {
                window,
                drop_expired
            }),
            (0u64..120).prop_map(|max_macs| AdmissionPolicy::SizeCapped { max_macs }),
        ]
    }

    fn pool_strategy() -> impl Strategy<Value = (RoutePolicy, PoolPolicy, Option<usize>)> {
        let routing = prop_oneof![
            Just(RoutePolicy::RoundRobin),
            Just(RoutePolicy::LeastLoaded),
            Just(RoutePolicy::WeightAffinity),
            Just(RoutePolicy::EnergyAware),
        ];
        let elastic =
            (0usize..4, 0usize..3, 0usize..3).prop_map(|(min, up, idle)| PoolPolicy::Elastic {
                min_active: min,
                scale_up_depth: up,
                idle_windows: idle,
            });
        let pool = prop_oneof![Just(PoolPolicy::AlwaysOn), elastic];
        let degrade = prop_oneof![Just(None), (0usize..4).prop_map(Some)];
        (routing, pool, degrade)
    }

    /// A window's power states as it dispatched, and each shard's run.
    type WindowLog = (Vec<ShardPower>, Vec<(f64, u64)>);

    /// The pool as a model around one admitter and its inbox: the
    /// shards' channels and the windows they took up, every ticket, and
    /// each window's power states and runs for the join-at-the-end
    /// reference.
    struct Model {
        admitter: Admitter,
        inbox: Inbox,
        sessions: Arc<SessionTable>,
        paused: bool,
        now_us: u64,
        rng: Pcg32,
        tickets: Vec<mpsc::Receiver<Result<super::super::ServedOutcome, ServeError>>>,
        channels: Vec<VecDeque<Vec<Job>>>,
        taken: Vec<Option<Vec<Job>>>,
        log: Vec<WindowLog>,
    }

    impl Model {
        fn submit(&mut self, kind: u8, deadline: Option<u64>) {
            let w = self.rng.randn(&[4, 2], 1.0);
            let request = match kind {
                1 => Request::gemm(self.rng.randn(&[2, 5], 1.0), w),
                2 => Request::nonlinear(NonlinearFn::Gelu, self.rng.randn(&[2, 3], 1.0)),
                _ => Request::gemm(self.rng.randn(&[2, 4], 1.0), w),
            };
            let session = if kind == 3 {
                let id = self.sessions.open();
                self.sessions.checkout(id, Phase::Prefill).unwrap();
                Some(SessionTag {
                    id,
                    phase: Phase::Prefill,
                    tokens: 2,
                })
            } else {
                None
            };
            let (reply, rx) = mpsc::channel();
            let job = Job {
                ticket: 0,
                deadline: deadline.map(|d| self.now_us + d),
                submitted_at: Instant::now(),
                request,
                session,
                degrade: None,
                dispatch_seq: 0,
                window: 0,
                queue_seconds: 0.0,
                reply,
            };
            match self.inbox.submit(job, false) {
                Ok(_) => self.tickets.push(rx),
                Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                    if let Some(tag) = job.session {
                        self.sessions.release(tag.id);
                    }
                }
            }
        }

        fn take(&mut self, shard: usize) -> bool {
            if self.taken[shard].is_some() {
                return false;
            }
            let Some(batch) = self.channels[shard].pop_front() else {
                return false;
            };
            self.taken[shard] = Some(batch);
            self.inbox.shard_event(Event::ShardTook(shard));
            true
        }

        fn run(&mut self, shard: usize, seconds: f64, macs: u64, failed: bool) -> bool {
            let Some(batch) = self.taken[shard].take() else {
                return false;
            };
            let (seconds, macs) = if failed { (0.0, 0) } else { (seconds, macs) };
            let window = batch[0].window;
            for job in batch {
                job.fail(&self.sessions, ServeError::WorkerLost);
            }
            let executed = &mut self.log[window].1[shard];
            executed.0 += seconds;
            executed.1 += macs;
            self.inbox.shard_event(Event::ShardDone {
                window,
                shard,
                seconds,
                macs,
            });
            true
        }

        /// Hands the admitter what the inbox has for it, checking every
        /// rule the hand-over and the event must keep; what the inbox
        /// said instead if it had nothing.
        fn deliver(&mut self) -> Option<Poll> {
            let admitter = &mut self.admitter;
            let (event, backlog) = match self.inbox.poll(admitter) {
                Poll::Event(event, backlog) => (event, backlog),
                other => return Some(other),
            };
            let submit = matches!(event, Event::Submit(_));
            assert!(!(submit && self.paused), "a submission taken while paused");
            let idle_on_open = matches!(event, Event::Idle) && !admitter.window.is_empty();
            let some_shard_free = self.channels.iter().any(|c| c.is_empty());
            let windows = admitter.windows;
            let stamp = Stamp {
                now_us: self.now_us,
                backlog,
            };
            let batches = admitter.on(event, stamp);
            let closed = admitter.windows > windows;
            if idle_on_open {
                assert_eq!(
                    closed, some_shard_free,
                    "a window closes on Idle exactly when some shard has none queued"
                );
            }
            if closed {
                let states = admitter.power.states().to_vec();
                self.log.push((states, vec![(0.0, 0); self.channels.len()]));
            }
            let mut jobs: Vec<&Job> = batches.iter().flat_map(|(_, b)| b).collect();
            jobs.sort_by_key(|job| job.dispatch_seq);
            match admitter.cfg.admission {
                AdmissionPolicy::Fifo { window } | AdmissionPolicy::Deadline { window, .. } => {
                    assert!(jobs.len() <= window.max(1), "{} jobs", jobs.len());
                }
                AdmissionPolicy::SizeCapped { max_macs } => {
                    let macs = |job: &&Job| job.request.lowered_program().modeled_macs();
                    let before_last: u64 = jobs.iter().rev().skip(1).map(macs).sum();
                    assert!(
                        before_last < max_macs.max(1),
                        "{before_last} MACs before the last"
                    );
                }
            }
            for (shard, batch) in batches {
                self.channels[shard].push_back(batch);
            }
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_admitter_keeps_its_rules_under_any_interleaving(
            shards in 1usize..4,
            capacity in 1usize..8,
            admission in admission_strategy(),
            (routing, pool, degrade) in pool_strategy(),
            paused in prop_oneof![Just(true), Just(false)],
            steps in proptest::collection::vec(step_strategy(), 60..160),
            seed in 0u64..1000,
        ) {
            let array = ArrayConfig::new(8, 16);
            let mut cfg = ServeConfig::uniform(shards, array.clone(), Parallelism::Sequential)
                .with_admission(admission)
                .with_routing(routing)
                .with_pool(pool);
            if let Some(depth) = degrade {
                cfg = cfg.with_degrade(DegradePolicy::new(vec![0.5, 1.0]).with_depth_threshold(depth));
            }
            let engine = OneSa::new(array);
            let power = PowerStates::new(pool, vec![engine.clone(); shards]);
            let router = Router::new(routing, power.energy_per_mac());
            let sessions = Arc::new(SessionTable::new(64));
            let mut m = Model {
                admitter: Admitter::new(cfg, router, power, Arc::clone(&sessions)),
                inbox: Inbox::new(capacity, paused),
                sessions,
                paused,
                now_us: 0,
                rng: Pcg32::seed_from_u64(seed),
                tickets: Vec::new(),
                channels: (0..shards).map(|_| VecDeque::new()).collect(),
                taken: (0..shards).map(|_| None).collect(),
                log: Vec::new(),
            };
            for step in steps {
                match step {
                    Step::Submit(kind, deadline) => m.submit(kind, deadline),
                    Step::Take(s) => drop(m.take(s % shards)),
                    Step::Run(s, seconds, macs, failed) => drop(m.run(s % shards, seconds, macs, failed)),
                    Step::Pause(p) => {
                        m.inbox.set_paused(p);
                        m.paused = p;
                    }
                    Step::Deliver => drop(m.deliver()),
                    Step::Tick(us) => m.now_us += us,
                }
            }
            // Close: the admitter drains the queue and waits for every
            // window's report while the shards work through theirs.
            m.inbox.close();
            m.paused = false;
            loop {
                match m.deliver() {
                    None => {}
                    Some(Poll::Done) => break,
                    Some(_) => {
                        let progressed = (0..shards).any(|s| m.run(s, 1e-6, 1_000, false))
                            || (0..shards).any(|s| m.take(s));
                        prop_assert!(progressed, "stuck: nothing to take and no shard can move");
                    }
                }
            }
            prop_assert!(m.channels.iter().all(VecDeque::is_empty));
            prop_assert!(m.taken.iter().all(Option::is_none));
            prop_assert_eq!(m.admitter.windows, m.log.len());
            for (i, ticket) in m.tickets.iter().enumerate() {
                prop_assert!(ticket.try_recv().is_ok(), "ticket {} never resolved", i);
                prop_assert_eq!(ticket.try_recv().unwrap_err(), TryRecvError::Disconnected);
            }

            // The reference: every window as it dispatched, joined at the end.
            let idle_watts = engine.power_watts(0.0);
            let config = engine.config();
            let peak = config.peak_macs_per_cycle() as f64 * config.clock_mhz * 1e6;
            let mut joules = 0.0f64;
            for (states, executed) in &m.log {
                let window_seconds = executed.iter().map(|e| e.0).fold(0.0f64, f64::max);
                for (s, _) in states.iter().enumerate().filter(|(_, p)| **p != ShardPower::Off) {
                    let (seconds, macs) = executed[s];
                    if seconds > 0.0 {
                        let utilization = macs as f64 / (seconds * peak);
                        joules += engine.power_watts(utilization) * seconds;
                        joules += idle_watts * (window_seconds - seconds).max(0.0);
                    } else {
                        joules += idle_watts * window_seconds;
                    }
                }
            }
            let modeled = m.admitter.power.summary().modeled_joules;
            prop_assert_eq!(modeled.to_bits(), joules.to_bits());
        }
    }
}
