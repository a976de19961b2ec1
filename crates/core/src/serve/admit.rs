//! Admission: how a batching window closes ([`AdmissionPolicy`]), what
//! happens to a request that cannot be served as submitted
//! ([`DegradePolicy`], deadline expiry), and the admission thread's
//! loop, which orchestrates the window through the session table, the
//! power states and the router.

use super::power::{PowerStates, WindowReport};
use super::route::Router;
use super::session::{SessionTable, SessionTag};
use super::{DepthGauge, Gate, Job, ServeConfig, ServeError};
use onesa_plan::{CompileCache, EvalMode};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// How the admission thread closes a batching window.
///
/// A window opens when the first waiting request is picked up and is
/// filled greedily from whatever else has already arrived — admission
/// never waits for stragglers, so a lightly loaded pool degenerates to
/// request-at-a-time serving and a busy one to large coalesced batches.
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

/// Everything the admission thread owns.
pub(super) struct AdmitterCtx {
    pub(super) rx: Receiver<Job>,
    pub(super) shard_txs: Vec<SyncSender<Vec<Job>>>,
    pub(super) shard_depths: Vec<Arc<DepthGauge>>,
    /// The engine's configuration: the admission and degrade policies, and the granularity bare nonlinear requests
    /// lower to (every shard engine's own).
    pub(super) cfg: ServeConfig,
    /// Memo of degrade recompiles, keyed on the coarser mode + the
    /// source program's fingerprint: each (program, rung) pair is
    /// re-compiled at most once per engine lifetime.
    pub(super) recompile: CompileCache,
    pub(super) router: Router,
    pub(super) power: PowerStates,
    /// The shards' reports of the windows they ran, for `power`.
    pub(super) reports: Receiver<WindowReport>,
    pub(super) gate: Arc<Gate>,
    pub(super) queue_depth: Arc<DepthGauge>,
    /// Epoch of the drop-on-expiry deadline clock.
    pub(super) epoch: Instant,
    pub(super) sessions: Arc<SessionTable>,
}

/// What the admission thread reports at shutdown.
pub(super) struct AdmitOut {
    pub(super) windows: usize,
    pub(super) expired: usize,
    pub(super) degraded: usize,
    /// The power states, every window folded that all its shards had
    /// reported.
    pub(super) power: PowerStates,
    /// The reports still to come: shards may still be running windows.
    pub(super) reports: Receiver<WindowReport>,
}

fn window_full(policy: AdmissionPolicy, len: usize, work: u64) -> bool {
    match policy {
        AdmissionPolicy::Fifo { window } | AdmissionPolicy::Deadline { window, .. } => {
            len >= window.max(1)
        }
        AdmissionPolicy::SizeCapped { max_macs } => work >= max_macs.max(1),
    }
}

impl AdmitterCtx {
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
    /// it.
    ///
    /// The front door: lower the request to a program and check its
    /// inputs. A malformed request is rejected here: its ticket resolves
    /// with the validation error and it never reaches a shard. Only
    /// *admitted* requests consume the window budget `work` — a rejected
    /// request must not close a size-capped window early and split the
    /// valid requests' coalescing opportunity.
    ///
    /// Window-fill pressure degrade: with the submission queue at least
    /// [`DegradePolicy::depth_threshold`] deep, a CPWL program request
    /// admits one rung coarser. It runs *before* the budget accounting,
    /// so a size-capped window's `work` counts the recompiled program's
    /// modeled MACs.
    fn admit(&self, mut job: Job, window: &mut Vec<Job>, work: &mut u64) {
        if let Err(e) = job.request.check(self.cfg.granularity) {
            return job.fail(&self.sessions, ServeError::Exec(e));
        }
        let deep = |policy: &DegradePolicy| self.queue_depth.current() >= policy.depth_threshold;
        if self.cfg.degrade.as_ref().is_some_and(deep) {
            self.degrade(&mut job, false);
        }
        *work += job.request.lowered_program().modeled_macs();
        window.push(job);
    }

    /// Drop-on-expiry: anything already past its deadline at window
    /// close resolves as expired instead of running — unless the degrade
    /// ladder can rescue it at the coarsest rung (degrade-don't-drop): a
    /// late answer at reduced accuracy beats no answer, and the
    /// session's KV cache survives. Returns how many jobs expired.
    fn drop_expired(&self, window: &mut Vec<Job>) -> usize {
        let now_us = self.epoch.elapsed().as_micros() as u64;
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
}

/// The admission thread: closes windows until the queue drains, folding
/// the shards' window reports into the power accounting as they arrive,
/// then reports the windows dispatched, the requests expired and
/// degraded and the power states.
pub(super) fn admitter_loop(mut ctx: AdmitterCtx) -> AdmitOut {
    ctx.gate.wait_open();
    let mut windows = 0usize;
    let mut expired = 0usize;
    let mut degraded = 0usize;
    let mut dispatch_seq = 0u64;
    // Window head: `recv` fails only once `finish` has dropped the
    // engine's sender and the backlog is drained.
    while let Ok(head) = ctx.rx.recv() {
        ctx.queue_depth.dec();
        // A paused gate holds the window here, head in hand, until the
        // client finishes staging its wave (see
        // [`ServeEngine::pause`](super::ServeEngine::pause)).
        ctx.gate.wait_open();
        let mut work = 0u64;
        let mut window: Vec<Job> = Vec::new();
        ctx.admit(head, &mut window, &mut work);
        // Fill greedily from what has already arrived — never wait for
        // stragglers (they catch the next window).
        while !window_full(ctx.cfg.admission, window.len(), work) {
            let Ok(job) = ctx.rx.try_recv() else { break };
            ctx.queue_depth.dec();
            ctx.admit(job, &mut window, &mut work);
        }
        if window.is_empty() {
            continue; // everything was rejected at validation
        }
        windows += 1;
        if let AdmissionPolicy::Deadline { drop_expired, .. } = ctx.cfg.admission {
            if drop_expired {
                expired += ctx.drop_expired(&mut window);
            }
            // Stable: equal deadlines (and the no-deadline tail) keep
            // arrival order.
            window.sort_by_key(|job| job.deadline.unwrap_or(u64::MAX));
        }

        ctx.power.scale_up(ctx.queue_depth.current());
        let mut per_shard: Vec<Vec<Job>> = ctx.shard_txs.iter().map(|_| Vec::new()).collect();
        for mut job in window {
            let pin = |tag: SessionTag| ctx.sessions.peek(tag.id, |s| s.shard).flatten();
            let pinned = job.session.and_then(pin);
            if let Some(p) = pinned {
                ctx.power.wake(p);
            }
            let program = job.request.lowered_program();
            let shard = ctx.router.pick(program, pinned, ctx.power.states());
            if let Some(tag) = job.session {
                ctx.sessions.set_pin(tag.id, shard);
            }
            degraded += usize::from(job.degrade.is_some());
            job.dispatch_seq = dispatch_seq;
            job.window = windows - 1;
            dispatch_seq += 1;
            per_shard[shard].push(job);
        }
        ctx.power.settle(
            |s| !per_shard[s].is_empty(),
            |s| ctx.router.load(s) == 0 && ctx.shard_depths[s].current() == 0,
        );

        for (i, batch) in per_shard.into_iter().enumerate() {
            if !batch.is_empty() {
                ctx.shard_depths[i].inc();
                // A full shard channel blocks admission here — bounded
                // backpressure toward the submission queue.
                let _ = ctx.shard_txs[i].send(batch);
            }
        }
        for report in ctx.reports.try_iter() {
            ctx.power.report(report);
        }
    }
    AdmitOut {
        windows,
        expired,
        degraded,
        power: ctx.power,
        reports: ctx.reports,
    }
}
