//! The shard side of the pool: where a dispatched window executes
//! ([`ShardExec`], in-process or on a worker process), the per-shard
//! thread that answers its tickets ([`shard_loop`]) and what it reports
//! ([`ShardStats`]).

use super::admit::Event;
use super::inbox::{Inbox, Leaving};
use super::session::{Phase, SessionTable};
use super::{Job, ServeError, ServedOutcome, TicketId};
use crate::batch::{BatchEngine, BatchRun, Latencies, Request};
use crate::net::{self, WeightCacheStats};
use onesa_tensor::TensorError;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Everything a shard did over one engine lifetime.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Shard index (position in
    /// [`ServeConfig::shards`](super::ServeConfig::shards)).
    pub shard: usize,
    /// Requests this shard served.
    pub requests: usize,
    /// Dispatched batches this shard executed.
    pub batches: usize,
    /// Coalesced GEMM kernel calls across those batches.
    pub(crate) gemm_groups: usize,
    /// Coalesced IPF + MHP passes across those batches.
    pub(crate) nonlinear_groups: usize,
    /// Multiply-accumulates this shard performed.
    pub macs: u64,
    /// Simulated array seconds this shard's batched schedules took. The
    /// maximum across shards is the pool's makespan.
    pub array_seconds: f64,
    /// Host seconds this shard's worker spent executing batches.
    pub busy_seconds: f64,
    /// `busy_seconds` over the engine's wall lifetime: the fraction of
    /// time this shard's worker was doing work rather than waiting.
    pub occupancy: f64,
    /// Most batches ever queued for this shard at once — dispatched and
    /// not yet taken up, as the admitter counts them (peak queue depth
    /// behind the router): at most the channel bound plus the one batch
    /// the admitter may be blocked handing over.
    pub peak_queue_depth: usize,
    /// Process backend only: this shard's worker process died
    /// (EOF/ping timeout) during the run and its in-flight windows were
    /// requeued on surviving shards.
    pub(crate) worker_lost: bool,
    /// Process backend only: requests this shard's thread re-executed on
    /// *another* shard's worker after a connection failed (its own
    /// worker's, or a dead peer it was asked to cover for).
    pub requeued: usize,
    /// Process backend only: weight-cache accounting of this shard's
    /// worker connection — how often program consts actually crossed
    /// the wire. All zeros for in-process shards (consts never leave
    /// the address space) and for workers that died before shutdown.
    pub(crate) wire_cache: WeightCacheStats,
}

/// What a shard's thread hands back when the pool shuts down.
#[derive(Default)]
pub(super) struct ShardOut {
    pub(super) stats: ShardStats,
    /// The simulated latencies of the requests this shard served, by
    /// session phase: none, prefill, decode. The outcomes themselves went
    /// to the tickets, and every other per-request figure is summed as it
    /// comes.
    pub(super) latencies: [Latencies; 3],
    /// Nonlinear evaluations across the requests this shard served.
    pub(super) nonlinear_evals: u64,
    /// Tokens this shard's prefill and decode steps covered.
    pub(super) prefill_tokens: u64,
    pub(super) decode_tokens: u64,
}

/// Where a shard's windows execute. Both backends run the same
/// `BatchEngine` over the same lowered requests and hand back the same
/// [`BatchRun`], so [`shard_loop`] does one accounting for both.
pub(super) enum ShardExec {
    /// On this thread, on the shard's own engine.
    Local(Box<BatchEngine>),
    /// On a worker process behind the wire. Every shard sees every
    /// worker connection (each behind its own mutex) so a shard whose
    /// worker dies can re-execute its in-flight window on a survivor
    /// without routing back through the admitter. A dead worker's slot
    /// is `None`.
    Remote(Vec<Arc<Mutex<Option<net::WorkerHandle>>>>),
}

impl ShardExec {
    /// Executes one window for `shard`, returning the run and the index
    /// of the shard whose engine executed it.
    ///
    /// **Failover.** Execution is pure (no side effects beyond the
    /// reply), so a window that was in flight to a worker that died —
    /// EOF, `EPIPE`, a failed handshake frame — simply re-runs on the
    /// next alive shard's worker, in ring order from `shard`. The dead
    /// worker's slot is emptied so every shard routes around it. Only if
    /// *no* worker survives does the window fail
    /// [`ServeError::WorkerLost`].
    fn run_window(
        &mut self,
        shard: usize,
        window: &[Job],
    ) -> Result<(BatchRun, usize), ServeError> {
        match self {
            // The admitter's check should make a failure unreachable;
            // recover anyway: fail the batch, leave the shard
            // serviceable.
            ShardExec::Local(engine) => {
                let requests: Vec<&Request> = window.iter().map(|job| &job.request).collect();
                let run = engine.run_lowered(&requests).map_err(ServeError::Exec)?;
                Ok((run, shard))
            }
            ShardExec::Remote(conns) => {
                let items: Vec<(TicketId, &Request)> = window
                    .iter()
                    .map(|job| (job.ticket, &job.request))
                    .collect();
                let n = conns.len();
                for target in (0..n).map(|k| (shard + k) % n) {
                    let mut slot = conns[target].lock().expect("worker conn lock");
                    let Some(conn) = slot.as_mut() else {
                        continue;
                    };
                    match conn.run_window(&items) {
                        Ok(net::WindowReply::Done(run)) => return Ok((run, target)),
                        Ok(net::WindowReply::Failed(msg)) => {
                            // The worker's engine rejected the batch and
                            // recovered — deterministic, so re-running
                            // elsewhere would fail identically.
                            // Pre-validation at admission makes this
                            // near-unreachable; surface it without
                            // killing the worker.
                            eprintln!("onesa-serve: shard {target} batch failed remotely: {msg}");
                            return Err(ServeError::Exec(TensorError::InvalidArgument(
                                "worker reported a batch execution error (see stderr)",
                            )));
                        }
                        // Dead worker: empty its slot, reaping the
                        // process (dropping the handle kills it if
                        // needed), and try the next shard in the ring
                        // with the same window.
                        Err(_) => *slot = None,
                    }
                }
                Err(ServeError::WorkerLost)
            }
        }
    }

    /// The admitter is gone: retires `shard`'s worker process (if it
    /// survived), keeping its weight-cache accounting.
    fn retire(self, shard: usize, stats: &mut ShardStats) {
        if let ShardExec::Remote(conns) = self {
            match conns[shard].lock().expect("worker conn lock").take() {
                Some(conn) => {
                    stats.wire_cache = conn.cache;
                    conn.shutdown();
                }
                None => stats.worker_lost = true,
            }
        }
    }
}

/// One shard's thread, for either backend: receives windows from the
/// admitter, tells the admitter's `inbox` as it takes each one up,
/// executes it through [`ShardExec::run_window`], reports its modeled
/// seconds and MACs to the inbox as it closes, and answers its tickets.
/// A window that
/// re-ran on another shard's worker counts into
/// [`ShardStats::requeued`], this shard's own worker's death into
/// [`ShardStats::worker_lost`] →
/// [`ServeSummary::failovers`](super::ServeSummary::failovers).
pub(super) fn shard_loop(
    shard: usize,
    rx: Receiver<Vec<Job>>,
    mut exec: ShardExec,
    inbox: Arc<Inbox>,
    sessions: Arc<SessionTable>,
) -> ShardOut {
    let _leaving = Leaving(&inbox, false);
    let mut out = ShardOut::default();
    out.stats.shard = shard;
    while let Ok(mut batch) = rx.recv() {
        inbox.shard_event(Event::ShardTook(shard));
        let t0 = Instant::now();
        // Queueing delay ends here: what follows — `BatchEngine::run`,
        // or the wire round trip around it — is the execution.
        for job in &mut batch {
            job.queue_seconds = job.submitted_at.elapsed().as_secs_f64();
        }
        let result = exec.run_window(shard, &batch);
        // Energy is attributed to this shard even after a failover — the
        // window was admitted and powered here; which surviving worker's
        // process hosted the re-execution is a host detail the modeled
        // accounting deliberately ignores. A failed window ran nothing.
        let (seconds, macs) = match &result {
            Ok((run, _)) => (run.report.batched_seconds, run.report.total_macs),
            Err(_) => (0.0, 0),
        };
        let window = batch[0].window;
        inbox.shard_event(Event::ShardDone {
            window,
            shard,
            seconds,
            macs,
        });
        match result {
            Ok((run, served_by)) => {
                out.stats.batches += 1;
                out.stats.requests += run.report.requests;
                out.stats.gemm_groups += run.report.gemm_groups;
                out.stats.nonlinear_groups += run.report.nonlinear_groups;
                out.stats.macs += run.report.total_macs;
                out.stats.array_seconds += run.report.batched_seconds;
                if served_by != shard {
                    out.stats.requeued += run.report.requests;
                }
                for (job, outcome) in batch.into_iter().zip(run.outcomes) {
                    // Write the grown KV cache back *before* the ticket
                    // resolves, so a caller chaining decode steps on the
                    // ticket's completion always reads the new context.
                    // The KV lives host-side, so a worker death between
                    // steps loses nothing a survivor can't recompute
                    // from the same inputs.
                    if let Some(tag) = job.session {
                        sessions.writeback(tag.id, outcome.session_outputs, tag.phase);
                        *match tag.phase {
                            Phase::Prefill => &mut out.prefill_tokens,
                            Phase::Decode => &mut out.decode_tokens,
                        } += tag.tokens;
                    }
                    out.nonlinear_evals += outcome.stats.nonlinear_evals;
                    let phase = match job.session.map(|tag| tag.phase) {
                        None => 0,
                        Some(Phase::Prefill) => 1,
                        Some(Phase::Decode) => 2,
                    };
                    out.latencies[phase].push(outcome.stats.seconds());
                    let _ = job.reply.send(Ok(ServedOutcome {
                        ticket: job.ticket,
                        shard: served_by,
                        dispatch_seq: job.dispatch_seq,
                        output: outcome.output,
                        stats: outcome.stats,
                        queue_seconds: job.queue_seconds,
                        degrade: job.degrade,
                    }));
                }
            }
            Err(e) => {
                for job in batch {
                    job.fail(&sessions, e.clone());
                }
            }
        }
        out.stats.busy_seconds += t0.elapsed().as_secs_f64();
    }
    exec.retire(shard, &mut out.stats);
    out
}
