//! Decoding sessions: the host-resident [`SessionTable`] holding each
//! session's KV tensors across admission windows, and the phase tag a
//! session step carries.

use super::ServeError;
use crate::batch::Latencies;
use onesa_tensor::Tensor;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Identifier of a decoding session (from
/// [`ServeEngine::open_session`](super::ServeEngine::open_session)).
pub type SessionId = u64;

/// Which autoregressive phase a session-tagged request is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The prompt pass: one program over the whole prompt that produces
    /// the session's initial KV cache.
    Prefill,
    /// One token step against the session-resident KV cache.
    Decode,
}

/// Lifetime counters of the session table, reported in
/// [`ServeSummary::sessions`]. `live` counts entries still resident at
/// finish — an evicted session's KV tensors are freed at eviction, so
/// `opened == closed + evicted_deadline + evicted_overflow + live`
/// always holds (no orphaned cache entries).
///
/// [`ServeSummary::sessions`]: super::ServeSummary::sessions
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Sessions opened over the engine lifetime.
    pub opened: u64,
    /// Sessions the client closed ([`ServeEngine::close_session`]).
    ///
    /// [`ServeEngine::close_session`]: super::ServeEngine::close_session
    pub closed: u64,
    /// Whole sessions evicted because a step expired under
    /// [`AdmissionPolicy::Deadline`] with `drop_expired` — the KV
    /// tensors are freed with the entry, not just the in-flight step.
    ///
    /// [`AdmissionPolicy::Deadline`]: super::AdmissionPolicy::Deadline
    pub evicted_deadline: u64,
    /// Sessions evicted least-recently-used to admit a new one past
    /// [`ServeConfig::session_capacity`].
    ///
    /// [`ServeConfig::session_capacity`]: super::ServeConfig::session_capacity
    pub evicted_overflow: u64,
    /// Sessions still resident when the engine finished.
    pub live: u64,
}

/// Latency/throughput accounting of one phase ([`ServeSummary::prefill`]
/// / [`ServeSummary::decode`]). Only session-tagged requests are
/// counted; sessionless tickets belong to neither phase.
///
/// [`ServeSummary::prefill`]: super::ServeSummary::prefill
/// [`ServeSummary::decode`]: super::ServeSummary::decode
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Requests served in this phase.
    pub requests: usize,
    /// Tokens those requests covered: the prompt length for a prefill,
    /// one per decode step.
    pub tokens: u64,
    /// Simulated per-request latencies in seconds.
    pub(crate) latencies: Latencies,
}

impl PhaseStats {
    /// Nearest-rank latency percentile (`q` in `0..=100`) over this
    /// phase's requests; 0.0 when the phase served nothing.
    pub fn latency_percentile(&self, q: f64) -> f64 {
        self.latencies.percentile(q)
    }

    /// Tokens per second against the given wall-clock interval.
    pub(crate) fn tokens_per_second(&self, wall_seconds: f64) -> f64 {
        if wall_seconds > 0.0 {
            self.tokens as f64 / wall_seconds
        } else {
            0.0
        }
    }
}

/// Session tag riding on a [`Job`](super::Job): which session, which phase, and
/// how many tokens the step covers (prompt length / 1).
#[derive(Debug, Clone, Copy)]
pub(super) struct SessionTag {
    pub(super) id: SessionId,
    pub(super) phase: Phase,
    pub(super) tokens: u64,
}

/// One live decoding session: host-resident KV tensors plus scheduling
/// state. The tensors are whatever the session's programs declare as
/// session outputs — for `TinyCausalLm`, per-layer `[ctx, d]` K and V
/// matrices, K then V in block order.
#[derive(Debug, Default)]
pub(super) struct SessionState {
    /// Current per-layer cache tensors (empty until prefill completes).
    pub(super) kv: Vec<Tensor>,
    /// The shard the session's first step landed on; every later step
    /// routes here so the session's weight state stays shard-local.
    pub(super) shard: Option<usize>,
    /// A step is queued or executing: the session admits one step at a
    /// time, which is what keeps cache read-modify-write linearizable.
    in_flight: bool,
    /// LRU clock value of the last checkout (overflow eviction key).
    last_used: u64,
    /// Decode steps completed (== tokens generated so far).
    pub(super) tokens: u64,
}

#[derive(Debug, Default)]
struct SessionTableInner {
    map: HashMap<SessionId, SessionState>,
    next: SessionId,
    clock: u64,
    /// The lifetime counters (`live` is filled in at
    /// [`SessionTable::summary`]).
    counters: SessionSummary,
}

/// The host-side session table, shared by clients (checkout at submit),
/// the admitter (pinning, deadline eviction) and the shard workers
/// (write-back before the ticket reply).
#[derive(Debug)]
pub(super) struct SessionTable {
    inner: Mutex<SessionTableInner>,
    capacity: usize,
}

impl SessionTable {
    pub(super) fn new(capacity: usize) -> Self {
        SessionTable {
            inner: Mutex::new(SessionTableInner::default()),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SessionTableInner> {
        self.inner.lock().expect("session table lock")
    }

    /// Opens a session, evicting the least-recently-used idle session
    /// first if the table is at capacity (an in-flight session is never
    /// evicted — its write-back is pending; if every resident session is
    /// in flight the table temporarily exceeds capacity instead).
    pub(super) fn open(&self) -> SessionId {
        let mut t = self.lock();
        if t.map.len() >= self.capacity {
            let victim = t
                .map
                .iter()
                .filter(|(_, s)| !s.in_flight)
                .min_by_key(|(id, s)| (s.last_used, **id))
                .map(|(id, _)| *id);
            if let Some(id) = victim {
                t.map.remove(&id);
                t.counters.evicted_overflow += 1;
            }
        }
        let id = t.next;
        t.next += 1;
        t.counters.opened += 1;
        let clock = t.clock;
        t.clock += 1;
        t.map.insert(
            id,
            SessionState {
                last_used: clock,
                ..SessionState::default()
            },
        );
        id
    }

    pub(super) fn close(&self, id: SessionId) -> bool {
        let mut t = self.lock();
        let existed = t.map.remove(&id).is_some();
        if existed {
            t.counters.closed += 1;
        }
        existed
    }

    /// Marks the session in flight and returns the tensors its step
    /// binds as session inputs: a clone of the KV cache for a decode
    /// step, nothing for a prefill (which produces the cache).
    pub(super) fn checkout(&self, id: SessionId, phase: Phase) -> Result<Vec<Tensor>, ServeError> {
        let mut t = self.lock();
        let clock = t.clock;
        t.clock += 1;
        let s = t.map.get_mut(&id).ok_or(ServeError::SessionUnknown(id))?;
        if s.in_flight {
            return Err(ServeError::SessionBusy(id));
        }
        s.in_flight = true;
        s.last_used = clock;
        Ok(match phase {
            Phase::Prefill => Vec::new(),
            Phase::Decode => s.kv.clone(),
        })
    }

    /// Installs a completed step's session outputs and reopens the
    /// session for its next step. A session evicted or closed while the
    /// step was in flight is left gone — the stale tensors are dropped.
    pub(super) fn writeback(&self, id: SessionId, kv: Vec<Tensor>, phase: Phase) {
        if let Some(s) = self.lock().map.get_mut(&id) {
            s.kv = kv;
            s.in_flight = false;
            if phase == Phase::Decode {
                s.tokens += 1;
            }
        }
    }

    /// Clears the in-flight marker without touching the cache (error
    /// paths: validation rejection, shard failure, queue teardown).
    pub(super) fn release(&self, id: SessionId) {
        if let Some(s) = self.lock().map.get_mut(&id) {
            s.in_flight = false;
        }
    }

    pub(super) fn set_pin(&self, id: SessionId, shard: usize) {
        if let Some(s) = self.lock().map.get_mut(&id) {
            s.shard.get_or_insert(shard);
        }
    }

    /// Evicts the whole session because one of its steps expired: the
    /// entry — KV tensors included — is freed, not just the in-flight
    /// step (the regression pinned by
    /// `deadline_expiry_evicts_the_whole_session`).
    pub(super) fn evict_deadline(&self, id: SessionId) {
        let mut t = self.lock();
        if t.map.remove(&id).is_some() {
            t.counters.evicted_deadline += 1;
        }
    }

    /// Reads from session `id` under the lock; `None` if it is gone.
    pub(super) fn peek<R>(&self, id: SessionId, f: impl FnOnce(&SessionState) -> R) -> Option<R> {
        self.lock().map.get(&id).map(f)
    }

    pub(super) fn summary(&self) -> SessionSummary {
        let t = self.lock();
        SessionSummary {
            live: t.map.len() as u64,
            ..t.counters
        }
    }
}
