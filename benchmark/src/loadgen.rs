//! The load generator: a seeded Poisson schedule, an open-loop paced
//! phase and a closed-loop capacity phase.
//!
//! Both loops are generic over a `submit` closure (op index → ticket)
//! and a `wait` closure (ticket → small per-op record), so the serving
//! workloads plug a `ServeEngine` in and the unit tests plug in a
//! synthetic stalled server.
//!
//! Threads: the open loop uses the calling thread as the submitter and
//! one scoped collector thread; the closed loop uses the calling thread
//! only. That is the whole generator — two threads at most, checked
//! against the host's parallelism by [`assert_generator_fits`].

use crate::stats::Samples;
use onesa_tensor::rng::Pcg32;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Threads the generator itself runs (submitter + collector).
pub const GENERATOR_THREADS: usize = 2;

/// Share of sends that completions may trail by when the last request
/// of a paced phase goes out; beyond it the phase is `saturated`.
pub const SATURATION_BACKLOG_FRAC: f64 = 0.02;

/// Panics if the generator has more threads than the host has cores.
/// (The run then confines itself to one of them, where the collector
/// only ever runs between a reply and the next `wait`.)
pub fn assert_generator_fits() {
    let nproc = crate::host::nproc();
    assert!(
        GENERATOR_THREADS <= nproc,
        "load generator runs {GENERATOR_THREADS} threads but the host offers {nproc}"
    );
}

/// Arrival offsets (seconds from phase start) of a Poisson process of
/// `rate_hz` over `duration_s`, derived from `seed` alone.
pub fn poisson_schedule(seed: u64, rate_hz: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = Pcg32::seed_with_stream(seed, 0x5C4E_D01E);
    let mut due = Vec::with_capacity((rate_hz * duration_s) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; next_f32 is in [0, 1).
        let u = f64::from(rng.next_f32());
        t += -(1.0 - u).ln() / rate_hz;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// What one paced (open-loop) phase observed.
#[derive(Debug)]
pub struct PacedResult<R> {
    /// Requests handed to the system.
    pub sent: usize,
    /// Requests whose reply arrived.
    pub completed: usize,
    /// Per-request latency in seconds, measured **from the due time**,
    /// so a generator or queue stall is charged to every request it
    /// delayed. In send order.
    pub latencies: Samples,
    /// How late each send was against its due time, seconds.
    pub lateness: Samples,
    /// Sends not yet completed at the moment the last request went out.
    pub backlog_at_end: usize,
    /// Backlog above [`SATURATION_BACKLOG_FRAC`] of sends: the system
    /// did not keep up with the schedule and its latencies describe a
    /// growing queue, not a service time.
    pub saturated: bool,
    /// Host seconds from phase start to the last reply.
    pub elapsed_s: f64,
    /// The `wait` closure's record of every request, in send order.
    pub records: Vec<R>,
}

impl<R> PacedResult<R> {
    /// Folds a later round of the same phase in: counts (the backlog at
    /// each round's last send included) add, samples and records append
    /// in time order, and saturation is judged again over the whole
    /// phase.
    pub fn absorb(&mut self, next: PacedResult<R>) {
        self.sent += next.sent;
        self.completed += next.completed;
        self.latencies.extend(&next.latencies);
        self.lateness.extend(&next.lateness);
        self.backlog_at_end += next.backlog_at_end;
        self.saturated = self.backlog_at_end as f64 > SATURATION_BACKLOG_FRAC * self.sent as f64;
        self.elapsed_s += next.elapsed_s;
        self.records.extend(next.records);
    }
}

/// Waits for `due` by yielding, never by sleeping: the run has one CPU
/// (`host::pin_to_one_cpu`), a yield hands it to whichever engine thread
/// has work, and a CPU that always has this thread to run never halts —
/// so a request is not charged the host's halt-to-wake time, which on a
/// shared machine is tens to hundreds of microseconds and not the
/// program's.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Open loop: request `i` is submitted at `schedule[i]` seconds after
/// the phase starts whether or not earlier ones have completed; a
/// collector thread waits the tickets in send order.
pub fn run_paced<T, R>(
    schedule: &[f64],
    mut submit: impl FnMut(usize) -> T,
    mut wait: impl FnMut(usize, T) -> R + Send,
) -> PacedResult<R>
where
    T: Send,
    R: Send,
{
    let (tx, rx) = mpsc::channel::<(usize, Instant, T)>();
    let start = Instant::now();
    let mut lateness = Samples::new();
    let mut last_sent_at = start;

    let (latencies, records, done_at) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latencies = Samples::new();
            let mut records = Vec::new();
            let mut done_at = Vec::new();
            for (i, due, ticket) in rx {
                let record = wait(i, ticket);
                let done = Instant::now();
                latencies.push((done - due).as_secs_f64());
                records.push(record);
                done_at.push(done);
            }
            (latencies, records, done_at)
        });

        for (i, &offset) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            wait_until(due);
            last_sent_at = Instant::now();
            lateness.push((last_sent_at - due).as_secs_f64());
            let ticket = submit(i);
            tx.send((i, due, ticket))
                .expect("collector outlives the submitter");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });

    // Replies that had not arrived when the last request went out.
    let backlog_at_end = done_at.iter().filter(|&&d| d > last_sent_at).count();
    let last_done = done_at.last().copied().unwrap_or(start);
    let sent = schedule.len();
    PacedResult {
        sent,
        completed: records.len(),
        latencies,
        lateness,
        backlog_at_end,
        saturated: backlog_at_end as f64 > SATURATION_BACKLOG_FRAC * sent as f64,
        elapsed_s: (last_done - start).as_secs_f64(),
        records,
    }
}

/// What one closed-loop phase observed.
#[derive(Debug)]
pub struct ClosedResult<R> {
    /// Requests completed (every request sent is waited).
    pub completed: usize,
    /// Host seconds from the first submit to the last reply.
    pub elapsed_s: f64,
    /// Per-request submit → reply latency, seconds.
    pub latencies: Samples,
    /// The `wait` closure's record of every request, in send order.
    pub records: Vec<R>,
}

impl<R> ClosedResult<R> {
    /// Folds a later round of the same phase in.
    pub fn absorb(&mut self, next: ClosedResult<R>) {
        self.completed += next.completed;
        self.elapsed_s += next.elapsed_s;
        self.latencies.extend(&next.latencies);
        self.records.extend(next.records);
    }

    /// Requests completed per host second of the phase.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }
}

/// How long a closed-loop phase keeps submitting.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this much time has passed (a measured phase).
    For(Duration),
    /// Until this many requests went out (a fixed-count warm-up).
    Ops(usize),
}

/// Closed loop: keeps `in_flight` requests outstanding until `budget`
/// is spent, then drains; the next request goes out only when the
/// oldest one has completed, so a slower system is offered less load.
pub fn run_closed<T, R>(
    budget: Budget,
    in_flight: usize,
    mut submit: impl FnMut(usize) -> T,
    mut wait: impl FnMut(usize, T) -> R,
) -> ClosedResult<R> {
    let start = Instant::now();
    let mut pending: VecDeque<(usize, Instant, T)> = VecDeque::with_capacity(in_flight);
    let mut latencies = Samples::new();
    let mut records = Vec::new();
    let mut next = 0usize;
    loop {
        while pending.len() < in_flight.max(1)
            && match budget {
                Budget::For(duration) => start.elapsed() < duration,
                Budget::Ops(count) => next < count,
            }
        {
            let t0 = Instant::now();
            pending.push_back((next, t0, submit(next)));
            next += 1;
        }
        let Some((i, t0, ticket)) = pending.pop_front() else {
            break;
        };
        records.push(wait(i, ticket));
        latencies.push(t0.elapsed().as_secs_f64());
    }
    ClosedResult {
        completed: records.len(),
        elapsed_s: start.elapsed().as_secs_f64(),
        latencies,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_reproducible_from_the_seed() {
        let a = poisson_schedule(7, 1000.0, 2.0);
        let b = poisson_schedule(7, 1000.0, 2.0);
        assert_eq!(a, b, "same seed, same schedule");
        let c = poisson_schedule(8, 1000.0, 2.0);
        assert_ne!(a, c, "the schedule depends on the seed");
        // Sorted, inside the phase, and about rate × duration arrivals.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        // Exponential gaps: the mean gap is 1/rate and the gaps are not
        // a fixed stride.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1e-3).abs() < 1e-4, "mean gap {mean}");
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var.sqrt() > 0.5e-3, "gap std {}", var.sqrt());
    }

    #[test]
    fn a_keeping_up_server_is_not_saturated() {
        // Every send waits for the previous reply (an ack channel, not a
        // sleep), so when the last request goes out only the requests
        // still passing between the two threads are outstanding.
        let schedule = vec![0.0; 2000];
        let (ack_tx, ack_rx) = mpsc::channel::<usize>();
        let r = run_paced(
            &schedule,
            |i| {
                if i > 0 {
                    assert_eq!(ack_rx.recv().expect("collector acks"), i - 1);
                }
                i
            },
            move |i, t| {
                assert_eq!(i, t, "waited in send order");
                ack_tx.send(i).expect("submitter listens");
                i
            },
        );
        assert_eq!((r.sent, r.completed), (2000, 2000));
        assert_eq!(r.records, (0..2000).collect::<Vec<_>>());
        assert!(
            r.backlog_at_end >= 1,
            "the last request is outstanding when it is sent"
        );
        assert!(!r.saturated, "backlog {}", r.backlog_at_end);
        assert_eq!(r.latencies.len(), 2000);
        assert_eq!(r.lateness.len(), 2000);
    }

    #[test]
    fn a_stalled_collector_is_reported_saturated() {
        // The server holds every reply until the last request has been
        // submitted (a channel, not a sleep, forces the interleaving),
        // so when the last send goes out nothing has completed.
        let schedule: Vec<f64> = (0..100).map(|i| i as f64 * 1e-5).collect();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let last = schedule.len() - 1;
        let mut released = false;
        let r = run_paced(
            &schedule,
            |i| {
                if i == last {
                    gate_tx.send(()).expect("collector is waiting on the gate");
                }
                i
            },
            move |_, t| {
                if !released {
                    gate_rx.recv().expect("submitter opens the gate");
                    released = true;
                }
                t
            },
        );
        assert_eq!((r.sent, r.completed), (100, 100));
        assert_eq!(r.backlog_at_end, 100);
        assert!(r.saturated);
    }

    #[test]
    fn a_blocking_submit_shows_up_as_lateness_and_latency() {
        // Every submit blocks 2 ms against a 0.1 ms schedule: the
        // generator runs late, and because latency counts from the due
        // time the stall is charged to the requests behind it.
        let schedule: Vec<f64> = (0..20).map(|i| i as f64 * 1e-4).collect();
        let r = run_paced(
            &schedule,
            |i| {
                std::thread::sleep(Duration::from_millis(2));
                i
            },
            |_, t| t,
        );
        assert!(r.lateness.percentile(99.0) > 20e-3, "p99 lateness");
        assert!(
            r.latencies.percentile(99.0) > 20e-3,
            "latency from due time"
        );
    }

    #[test]
    fn closed_loop_bounds_requests_in_flight() {
        let outstanding = std::cell::Cell::new(0usize);
        let peak = std::cell::Cell::new(0usize);
        let r = run_closed(
            Budget::For(Duration::from_millis(20)),
            4,
            |i| {
                outstanding.set(outstanding.get() + 1);
                peak.set(peak.get().max(outstanding.get()));
                i
            },
            |i, t| {
                assert_eq!(i, t, "waited in send order");
                outstanding.set(outstanding.get() - 1);
                t
            },
        );
        assert!(r.completed > 4);
        assert_eq!(r.completed, r.latencies.len());
        assert_eq!(peak.get(), 4);
        assert_eq!(outstanding.get(), 0, "every request sent was waited");
        // A counted budget sends exactly that many.
        let r = run_closed(Budget::Ops(10), 4, |i| i, |_, t| t);
        assert_eq!(r.records, (0..10).collect::<Vec<_>>());
    }
}
