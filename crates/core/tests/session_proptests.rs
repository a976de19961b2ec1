//! Property tests for the session lifecycle under continuous batching:
//! random interleavings of open / step / burst-step / close against a
//! live [`ServeEngine`] with a deliberately tiny session table, checked
//! against a plain in-test model of what every session's KV cache must
//! contain.
//!
//! Each session's cache rows carry a **marker value** (`id * 1000 +
//! step`), so the three core invariants are bit-checkable:
//!
//! * **no ticket is ever lost** — every submitted prefill/decode wait
//!   resolves (`Ok` here; the typed-error paths are covered by the unit
//!   tests in `serve.rs`), and the finish summary's per-phase request
//!   counts equal exactly what the driver submitted;
//! * **KV rows never mix across sessions** — a row written by session
//!   `a` landing in session `b`'s cache would carry `a`'s marker and
//!   fail the bit compare;
//! * **cache length == tokens generated** — `session_context_rows` is
//!   always `1 + steps` and `session_tokens` is always `steps`, even
//!   across LRU overflow evictions forced by opening more sessions than
//!   `session_capacity`.
//!
//! The 48 cases are pinned (`ProptestConfig::with_cases(48)`) so the
//! suite's cost stays flat in CI.

use std::collections::HashMap;

use onesa_core::serve::{AdmissionPolicy, ServeConfig, ServeEngine, SessionId};
use onesa_core::{Parallelism, Program};
use onesa_plan::{EvalMode, Op};
use onesa_sim::ArrayConfig;
use onesa_tensor::Tensor;
use proptest::prelude::*;

/// Slots the action sequence addresses; one more than
/// `SESSION_CAPACITY` so opens force LRU overflow evictions.
const SLOTS: usize = 4;
const SESSION_CAPACITY: usize = 3;
const D: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Open a session in this slot (closing any previous occupant) and
    /// run its prefill, seeding the cache with marker row 0.
    Open(usize),
    /// One decode step for this slot's session: append the next marker
    /// row through `ConcatRows` and verify the whole cache.
    Step(usize),
    /// One decode step for *every* live slot, submitted before any is
    /// waited — a true continuous-batching window with steps from many
    /// sessions in flight at once.
    Burst,
    /// Close this slot's session.
    Close(usize),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..SLOTS).prop_map(Action::Open),
        (0..SLOTS).prop_map(Action::Step),
        (0..SLOTS).prop_map(Action::Step),
        Just(Action::Burst),
        (0..SLOTS).prop_map(Action::Close),
    ]
}

/// The marker row session `id` appends at `step`: every element is
/// `id * 1000 + step`, exactly representable in `f32` at these scales.
fn marker(id: SessionId, step: usize) -> f32 {
    (id * 1000 + step as u64) as f32
}

fn marker_row(id: SessionId, step: usize) -> Tensor {
    Tensor::from_vec(vec![marker(id, step); D], &[1, D]).unwrap()
}

/// Prefill: the marker row passes through unchanged and becomes the
/// session's first cache row.
fn prefill_program() -> Program {
    let mut b = Program::builder("sess-prop-prefill", EvalMode::Exact);
    let x = b.input(&[1, D]);
    let zero = b.constant(Tensor::zeros(&[1, D]));
    let y = b.push(Op::Add, &[x, zero]);
    b.mark_session_output(y);
    b.finish().unwrap()
}

/// Decode at context `ctx`: append the step's marker row to the
/// session-resident cache.
fn decode_program(ctx: usize) -> Program {
    let mut b = Program::builder("sess-prop-decode", EvalMode::Exact);
    let x = b.input(&[1, D]);
    let cache = b.session_input(&[ctx, D]);
    let zero = b.constant(Tensor::zeros(&[1, D]));
    let s = b.push(Op::Add, &[x, zero]);
    let grown = b.push(Op::ConcatRows, &[cache, s]);
    b.mark_session_output(grown);
    b.finish().unwrap()
}

/// Bit-compares a session's resident KV against the rows the model says
/// it must hold — the no-mixing and length invariants in one check.
fn check_kv(engine: &ServeEngine, id: SessionId, rows: &[f32]) {
    let kv = engine
        .session_kv(id)
        .unwrap_or_else(|| panic!("session {id} should be resident"));
    assert_eq!(kv.len(), 1, "one cache tensor per session program");
    assert_eq!(kv[0].shape().dims(), &[rows.len(), D]);
    for (r, want) in rows.iter().enumerate() {
        for (c, got) in kv[0].as_slice()[r * D..(r + 1) * D].iter().enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "session {id} cache row {r} col {c}: {got} vs {want} — foreign row?"
            );
        }
    }
    assert_eq!(engine.session_context_rows(id), Some(rows.len()));
    assert_eq!(engine.session_tokens(id), Some(rows.len() as u64 - 1));
}

struct Driver {
    engine: ServeEngine,
    /// Slot → live session id (as far as the model knows).
    slots: [Option<SessionId>; SLOTS],
    /// Session id → marker value of every cache row it must hold.
    expected: HashMap<SessionId, Vec<f32>>,
    opened: u64,
    closed: u64,
    prefills: usize,
    steps: usize,
}

impl Driver {
    /// Drops model entries for sessions the table evicted (LRU overflow
    /// triggered by `open`). The model never predicts the victim — it
    /// observes evictions through `session_context_rows` turning `None`.
    fn prune_evicted(&mut self) {
        for slot in 0..SLOTS {
            if let Some(id) = self.slots[slot] {
                if self.engine.session_context_rows(id).is_none() {
                    self.slots[slot] = None;
                    self.expected.remove(&id);
                }
            }
        }
    }

    fn open(&mut self, slot: usize) {
        if let Some(id) = self.slots[slot].take() {
            assert!(self.engine.close_session(id), "tracked session closes");
            self.expected.remove(&id);
            self.closed += 1;
        }
        let id = self.engine.open_session();
        self.opened += 1;
        self.slots[slot] = Some(id);
        self.prune_evicted();
        let ticket = self
            .engine
            .submit_prefill(id, prefill_program(), vec![marker_row(id, 0)], 1)
            .expect("prefill submits on a fresh session");
        ticket.wait().expect("prefill ticket resolves");
        self.prefills += 1;
        self.expected.insert(id, vec![marker(id, 0)]);
        check_kv(&self.engine, id, &self.expected[&id]);
    }

    fn step(&mut self, slot: usize) {
        let Some(id) = self.slots[slot] else { return };
        let rows = self.expected.get_mut(&id).expect("tracked session");
        let ctx = rows.len();
        assert_eq!(self.engine.session_context_rows(id), Some(ctx));
        let ticket = self
            .engine
            .submit_decode(id, decode_program(ctx), vec![marker_row(id, ctx)])
            .expect("decode submits on an idle live session");
        let outcome = ticket.wait().expect("decode ticket resolves");
        assert_eq!(outcome.output.dims(), &[ctx + 1, D]);
        rows.push(marker(id, ctx));
        self.steps += 1;
        check_kv(&self.engine, id, &self.expected[&id]);
    }

    fn burst(&mut self) {
        let live: Vec<(usize, SessionId)> = (0..SLOTS)
            .filter_map(|s| self.slots[s].map(|id| (s, id)))
            .collect();
        let tickets: Vec<_> = live
            .iter()
            .map(|&(_, id)| {
                let ctx = self.expected[&id].len();
                let t = self
                    .engine
                    .submit_decode(id, decode_program(ctx), vec![marker_row(id, ctx)])
                    .expect("burst decode submits");
                (id, ctx, t)
            })
            .collect();
        for (id, ctx, t) in tickets {
            let outcome = t.wait().expect("burst decode ticket resolves");
            assert_eq!(outcome.output.dims(), &[ctx + 1, D]);
            self.expected.get_mut(&id).unwrap().push(marker(id, ctx));
            self.steps += 1;
        }
        for &(_, id) in &live {
            check_kv(&self.engine, id, &self.expected[&id]);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(id) = self.slots[slot].take() {
            assert!(self.engine.close_session(id), "tracked session closes");
            self.expected.remove(&id);
            self.closed += 1;
        }
    }
}

fn run_scenario(actions: Vec<Action>, shards: usize) {
    let cfg = ServeConfig::uniform(shards, ArrayConfig::new(8, 16), Parallelism::Sequential)
        .with_admission(AdmissionPolicy::Fifo { window: 3 })
        .with_session_capacity(SESSION_CAPACITY);
    let mut d = Driver {
        engine: ServeEngine::start(cfg).unwrap(),
        slots: [None; SLOTS],
        expected: HashMap::new(),
        opened: 0,
        closed: 0,
        prefills: 0,
        steps: 0,
    };
    for a in actions {
        match a {
            Action::Open(s) => d.open(s),
            Action::Step(s) => d.step(s),
            Action::Burst => d.burst(),
            Action::Close(s) => d.close(s),
        }
    }
    // Final audit of every still-live session, then the lifetime
    // accounting: nothing orphaned, nothing double-counted.
    let live = d.expected.len() as u64;
    for (&id, rows) in &d.expected {
        check_kv(&d.engine, id, rows);
    }
    let Driver {
        engine,
        opened,
        closed,
        prefills,
        steps,
        ..
    } = d;
    let summary = engine.finish().unwrap();
    assert_eq!(summary.sessions.opened, opened);
    assert_eq!(summary.sessions.closed, closed);
    assert_eq!(summary.sessions.evicted_deadline, 0);
    assert_eq!(summary.sessions.live, live);
    assert_eq!(
        summary.sessions.opened,
        summary.sessions.closed
            + summary.sessions.evicted_deadline
            + summary.sessions.evicted_overflow
            + summary.sessions.live,
        "no session unaccounted for: {:?}",
        summary.sessions
    );
    assert_eq!(summary.prefill.requests, prefills, "lost prefill tickets");
    assert_eq!(summary.prefill.tokens, prefills as u64);
    assert_eq!(summary.decode.requests, steps, "lost decode tickets");
    assert_eq!(summary.decode.tokens, steps as u64);
    assert_eq!(summary.expired, 0);
    assert_eq!(summary.failovers, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn session_lifecycle_holds_its_invariants(
        actions in proptest::collection::vec(action_strategy(), 1..40),
        shards in 1usize..=3,
    ) {
        run_scenario(actions, shards);
    }
}
