//! The admission thread's one inbox: the bounded submission queue, the
//! shards' pickup and completion events, the pause flag and close, all
//! under one lock, so the admitter blocks in one place for whichever
//! comes first.

use super::admit::{Admitter, Event};
use super::{Job, TicketId};
use std::collections::VecDeque;
use std::sync::mpsc::TrySendError;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

#[derive(Debug, Default)]
struct State {
    submissions: VecDeque<Job>,
    /// The next ticket id: ids follow queue order.
    next_ticket: TicketId,
    /// Most submissions ever queued at once.
    peak: usize,
    /// Shard events; they never wait for room.
    shard_events: VecDeque<Event>,
    paused: bool,
    /// The engine is finishing, or the admitter is gone: no submission
    /// is accepted any more.
    closed: bool,
    /// A shard thread has exited: what it still owed never comes.
    shard_lost: bool,
    /// The admitter waits for an event, and whether a shard event is one
    /// to wake it for (see [`Inbox::take`]).
    asleep: bool,
    wake_on_shard: bool,
    /// Producers waiting for room.
    blocked: usize,
}

/// What [`Inbox::poll`] finds for the admitter.
pub(super) enum Poll {
    /// An event, with the submissions still queued behind it.
    Event(Event, usize),
    /// Nothing the admitter may take yet.
    Empty,
    /// Closed and drained, and nothing more is owed: the admitter is done.
    Done,
}

#[derive(Debug)]
pub(super) struct Inbox {
    state: Mutex<State>,
    /// The admitter waits here for an event.
    ready: Condvar,
    /// Producers at capacity wait here for room.
    room: Condvar,
    capacity: usize,
}

impl Inbox {
    pub(super) fn new(capacity: usize, paused: bool) -> Self {
        Inbox {
            state: Mutex::new(State {
                paused,
                ..State::default()
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The lock outlives a panic on either side: the state is a queue
    /// and flags, consistent between any two statements.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a submission and returns the ticket id it assigned it. At
    /// capacity it waits for room if `wait`, and hands the job back as
    /// `Full` if not; once the inbox is closed it hands it back as
    /// `Disconnected`.
    pub(super) fn submit(
        &self,
        mut job: Job,
        wait: bool,
    ) -> Result<TicketId, TrySendError<Box<Job>>> {
        let mut st = self.lock();
        while !st.closed && st.submissions.len() >= self.capacity {
            if !wait {
                return Err(TrySendError::Full(Box::new(job)));
            }
            st.blocked += 1;
            st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.blocked -= 1;
        }
        if st.closed {
            return Err(TrySendError::Disconnected(Box::new(job)));
        }
        job.ticket = st.next_ticket;
        st.next_ticket += 1;
        st.submissions.push_back(job);
        st.peak = st.peak.max(st.submissions.len());
        if st.asleep && !st.paused {
            self.ready.notify_one();
        }
        Ok(st.next_ticket - 1)
    }

    /// A shard's event: queued at once, never waiting.
    pub(super) fn shard_event(&self, event: Event) {
        let mut st = self.lock();
        st.shard_events.push_back(event);
        if st.asleep && st.wake_on_shard {
            self.ready.notify_one();
        }
    }

    pub(super) fn set_paused(&self, paused: bool) {
        let mut st = self.lock();
        st.paused = paused;
        if st.asleep && !paused {
            self.ready.notify_one();
        }
    }

    /// No more submissions: the admitter drains the queue, paused or not.
    pub(super) fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        st.paused = false;
        self.ready.notify_one();
    }

    /// Submissions queued now, and the most ever queued at once.
    pub(super) fn depth(&self) -> (usize, usize) {
        let st = self.lock();
        (st.submissions.len(), st.peak)
    }

    /// The admitter's next event, waiting for one: a shard event first,
    /// then (unless paused) the oldest submission, then `Idle` if the
    /// admitter wants one. `None` once the inbox is closed and drained and
    /// the admitter is not busy, or a shard has died owing it.
    ///
    /// Only what the admitter can act on wakes it: a submission while not
    /// paused, a resume, close, and a shard event only while it holds a
    /// window open for a pickup or drains at close. Any other shard event
    /// waits its turn, ahead of the next submission.
    pub(super) fn take(&self, admitter: &Admitter) -> Option<(Event, usize)> {
        let mut st = self.lock();
        loop {
            match self.next(&mut st, admitter) {
                Poll::Event(event, backlog) => return Some((event, backlog)),
                Poll::Done => return None,
                Poll::Empty => {
                    st.wake_on_shard = admitter.holds_window() || st.closed;
                    st.asleep = true;
                    st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.asleep = false;
                }
            }
        }
    }

    fn next(&self, st: &mut State, admitter: &Admitter) -> Poll {
        if let Some(event) = st.shard_events.pop_front() {
            return Poll::Event(event, st.submissions.len());
        }
        if !st.paused {
            if let Some(job) = st.submissions.pop_front() {
                if st.blocked > 0 {
                    self.room.notify_one();
                }
                return Poll::Event(Event::Submit(job), st.submissions.len());
            }
        }
        if admitter.wants_idle() {
            Poll::Event(Event::Idle, st.submissions.len())
        } else if st.closed && st.submissions.is_empty() && (!admitter.busy() || st.shard_lost) {
            Poll::Done
        } else {
            Poll::Empty
        }
    }
}

/// A consumer leaving the inbox as it drops, an unwind included: the
/// admitter (`true`) or a shard. The admitter leaving closes the queue and
/// drops its jobs, so every ticket still in it resolves `WorkerLost` and a
/// producer waiting for room gets its job back; a shard leaving means what
/// it still owed never comes.
pub(super) struct Leaving<'a>(pub(super) &'a Inbox, pub(super) bool);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        if self.1 {
            st.closed = true;
            st.submissions.clear();
        } else {
            st.shard_lost = true;
        }
        self.0.ready.notify_all();
        self.0.room.notify_all();
    }
}

#[cfg(test)]
impl Inbox {
    /// [`Inbox::take`] without waiting: `Empty` where it would wait,
    /// `Done` where it returns `None`.
    pub(super) fn poll(&self, admitter: &Admitter) -> Poll {
        self.next(&mut self.lock(), admitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Request;
    use onesa_tensor::Tensor;
    use std::sync::mpsc;
    use std::time::Instant;

    fn job() -> Job {
        let (reply, _) = mpsc::channel();
        let x = Tensor::zeros(&[1, 1]);
        Job {
            ticket: 0,
            deadline: None,
            submitted_at: Instant::now(),
            request: Request::gemm(x.clone(), x),
            session: None,
            degrade: None,
            dispatch_seq: 0,
            window: 0,
            queue_seconds: 0.0,
            reply,
        }
    }

    #[test]
    fn a_consumer_that_unwinds_hands_a_blocked_producer_its_job_back() {
        let inbox = Inbox::new(1, false);
        inbox.submit(job(), true).unwrap();
        std::thread::scope(|scope| {
            let producer = scope.spawn(|| inbox.submit(job(), true));
            // The producer is at capacity: the consumer takes nothing and
            // unwinds.
            let consumer = scope.spawn(|| {
                let _leaving = Leaving(&inbox, true);
                std::thread::sleep(std::time::Duration::from_millis(20));
                panic!("the admitter unwinds");
            });
            assert!(consumer.join().is_err());
            let refused = producer.join().unwrap();
            assert!(matches!(refused, Err(TrySendError::Disconnected(_))));
        });
        assert_eq!(inbox.depth(), (0, 1), "the queued job dropped with it");
        assert!(matches!(
            inbox.submit(job(), false),
            Err(TrySendError::Disconnected(_))
        ));
    }
}
