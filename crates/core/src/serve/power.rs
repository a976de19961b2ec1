//! Shard power management: the [`PoolPolicy`] state machine over the
//! pool's [`ShardPower`] states ([`PowerStates`], a plain value the
//! admission thread drives once per window) and the modeled energy
//! accounting, folded window by window as the shards report.

use crate::engine::OneSa;
use std::collections::VecDeque;

/// Power state of one shard in the pool, driven per admission window by
/// [`PoolPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPower {
    /// Powered and routable.
    Active,
    /// Draining toward power-off: the router no longer targets it, but
    /// its in-flight windows finish (and it still burns idle power), so
    /// no admitted work is ever lost to a power-down.
    Idle,
    /// Powered down: consumes no modeled energy and receives no work
    /// until queue pressure (or a pinned session) re-activates it.
    Off,
}

/// How the pool manages shard power across the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoolPolicy {
    /// Every shard stays [`ShardPower::Active`] for the whole run (the
    /// default).
    #[default]
    AlwaysOn,
    /// Closed-loop elasticity against the admission queue: shards past
    /// `min_active` start [`ShardPower::Off`]; a backlog powers one up
    /// per window; a shard that routes nothing for `idle_windows`
    /// consecutive windows drains ([`ShardPower::Idle`]) and powers off
    /// once its channel and outstanding work are empty. A session
    /// pinned to a parked shard re-activates it — pinning always wins.
    Elastic {
        /// Shards kept active at all times (clamped to `1..=pool`).
        min_active: usize,
        /// Submission-queue depth (beyond the closing window) at which
        /// one more shard powers up.
        scale_up_depth: usize,
        /// Consecutive windows a drained shard must sit unused before
        /// it starts draining toward [`ShardPower::Off`].
        idle_windows: usize,
    },
}

/// Modeled energy accounting of one engine lifetime
/// ([`ServeSummary::power`]). Every admission window is costed over its
/// modeled duration (the longest batch any shard executed for it):
/// an executing shard pays [`PowerModel`] energy at its batch's actual
/// utilization plus idle power for the window's remainder, a powered
/// but idle shard pays idle power for the whole window, and an
/// [`ShardPower::Off`] shard pays nothing. Deterministic — it is built
/// from simulated batch seconds, not host wall-clock.
///
/// [`ServeSummary::power`]: super::ServeSummary::power
/// [`PowerModel`]: onesa_resources::power::PowerModel
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerSummary {
    /// Modeled joules the pool consumed across all windows.
    pub modeled_joules: f64,
    /// Shard-windows spent [`ShardPower::Active`].
    pub active_shard_windows: u64,
    /// Shard-windows spent [`ShardPower::Idle`] (draining).
    pub idle_shard_windows: u64,
    /// Shard-windows spent [`ShardPower::Off`].
    pub off_shard_windows: u64,
    /// `Off → Active` transitions (scale-ups and pinned-session
    /// re-powers).
    pub(crate) power_ups: u64,
    /// `Idle → Off` transitions (completed drains).
    pub(crate) power_downs: u64,
}

/// What a shard reports of each window it ran, as the window closes:
/// `(window, shard, modeled seconds, MACs)` — zeros for a failed window.
pub(super) type WindowReport = (usize, usize, f64, u64);

/// A window routed but not yet folded into the energy totals.
#[derive(Debug)]
struct OpenWindow {
    /// Every shard's state as the window dispatched.
    states: Vec<ShardPower>,
    /// Per shard: the modeled seconds and MACs it reported.
    executed: Vec<(f64, u64)>,
    /// Shards the window was routed to that have not reported yet.
    waiting: usize,
}

/// Peak MAC rate of a shard's array.
fn peak_macs_per_second(engine: &OneSa) -> f64 {
    let config = engine.config();
    config.peak_macs_per_cycle() as f64 * config.clock_mhz * 1e6
}

/// The pool's power state machine. Under [`PoolPolicy::AlwaysOn`] every
/// shard is routable for the whole run; [`PoolPolicy::Elastic`] parks
/// everything past `min_active` until queue pressure
/// ([`PowerStates::scale_up`]) or a pinned session
/// ([`PowerStates::wake`]) powers it up, and [`PowerStates::settle`]
/// ages unused shards back down.
#[derive(Debug)]
pub(super) struct PowerStates {
    policy: PoolPolicy,
    /// One engine per shard: the power and cost model the joules are
    /// computed from.
    engines: Vec<OneSa>,
    states: Vec<ShardPower>,
    /// Consecutive windows each Active shard has sat unused and drained.
    surplus: Vec<usize>,
    /// Windows routed but not yet folded, oldest first: a window folds
    /// once every shard it was routed to has reported, and windows fold
    /// in order, so only the windows still in flight are held.
    open: VecDeque<OpenWindow>,
    /// Windows folded so far: `open[0]` is window `folded`.
    folded: usize,
    /// The transition counters, shard-window counts and joules of every
    /// folded window.
    totals: PowerSummary,
}

impl PowerStates {
    pub(super) fn new(policy: PoolPolicy, engines: Vec<OneSa>) -> Self {
        let n = engines.len();
        let powered = match policy {
            PoolPolicy::AlwaysOn => n,
            PoolPolicy::Elastic { min_active, .. } => min_active.clamp(1, n),
        };
        let mut states = vec![ShardPower::Off; n];
        states[..powered].fill(ShardPower::Active);
        PowerStates {
            policy,
            engines,
            states,
            surplus: vec![0; n],
            open: VecDeque::new(),
            folded: 0,
            totals: PowerSummary::default(),
        }
    }

    /// Modeled joules one MAC costs each shard at full activity — the
    /// [`RoutePolicy::EnergyAware`](super::RoutePolicy::EnergyAware)
    /// weights.
    pub(super) fn energy_per_mac(&self) -> Vec<f64> {
        let joules = |e: &OneSa| e.power_watts(1.0) / peak_macs_per_second(e);
        self.engines.iter().map(joules).collect()
    }

    /// Every shard's current state; at least one is always
    /// [`ShardPower::Active`].
    pub(super) fn states(&self) -> &[ShardPower] {
        &self.states
    }

    /// Makes `shard` routable. Pinning wins over power management: a
    /// parked shard re-powers rather than scattering a session's steps.
    pub(super) fn wake(&mut self, shard: usize) {
        if self.states[shard] == ShardPower::Off {
            self.totals.power_ups += 1;
        }
        self.states[shard] = ShardPower::Active;
    }

    /// Elastic scale-up, before routing sees a closed window: a backlog
    /// of `queue_depth` requests still queued behind it powers one more
    /// shard up.
    pub(super) fn scale_up(&mut self, queue_depth: usize) {
        let PoolPolicy::Elastic { scale_up_depth, .. } = self.policy else {
            return;
        };
        if queue_depth >= scale_up_depth.max(1) {
            if let Some(s) = self.states.iter().position(|p| *p != ShardPower::Active) {
                self.wake(s);
            }
        }
    }

    /// Closes a window's power states once it is routed: elastic
    /// scale-down, then the window opens for its shards' reports, waiting
    /// on every shard `routed` something. Drain-before-power-down: an Active
    /// shard that `routed` nothing this window and is `drained` (no
    /// queued batch, no outstanding work) ages toward Idle (unroutable,
    /// still powered); an Idle shard powers off only once drained, so no
    /// admitted window is ever lost to a power transition.
    pub(super) fn settle(
        &mut self,
        routed: impl Fn(usize) -> bool,
        drained: impl Fn(usize) -> bool,
    ) {
        if let PoolPolicy::Elastic {
            min_active,
            idle_windows,
            ..
        } = self.policy
        {
            let min_active = min_active.clamp(1, self.states.len());
            for s in 0..self.states.len() {
                match self.states[s] {
                    ShardPower::Idle if drained(s) => {
                        self.states[s] = ShardPower::Off;
                        self.totals.power_downs += 1;
                    }
                    ShardPower::Active => {
                        if !routed(s) && drained(s) {
                            self.surplus[s] += 1;
                        } else {
                            self.surplus[s] = 0;
                        }
                        let routable = self
                            .states
                            .iter()
                            .filter(|p| **p == ShardPower::Active)
                            .count();
                        if self.surplus[s] >= idle_windows.max(1) && routable > min_active {
                            self.states[s] = ShardPower::Idle;
                            self.surplus[s] = 0;
                        }
                    }
                    _ => self.surplus[s] = 0,
                }
            }
        }
        let n = self.states.len();
        self.open.push_back(OpenWindow {
            states: self.states.clone(),
            executed: vec![(0.0, 0); n],
            waiting: (0..n).filter(|&s| routed(s)).count(),
        });
        self.fold_ready();
    }

    /// Takes a shard's report of a window it ran, and folds every window
    /// whose shards have all reported, in window order.
    pub(super) fn report(&mut self, (window, shard, seconds, macs): WindowReport) {
        let open = window.checked_sub(self.folded);
        if let Some(open) = open.and_then(|w| self.open.get_mut(w)) {
            open.executed[shard].0 += seconds;
            open.executed[shard].1 += macs;
            open.waiting = open.waiting.saturating_sub(1);
        }
        self.fold_ready();
    }

    /// Folds the oldest windows while nothing is left to wait for.
    fn fold_ready(&mut self) {
        while self.open.front().is_some_and(|w| w.waiting == 0) {
            let window = self.open.pop_front().expect("checked above");
            self.fold(window);
        }
    }

    /// Adds one window to the totals. It lasts as long as its longest
    /// shard batch; executing shards pay utilization-scaled power for
    /// their batch plus idle power for the remainder, powered idle shards
    /// pay idle power throughout, Off shards pay nothing.
    fn fold(&mut self, window: OpenWindow) {
        let power = &mut self.totals;
        let window_seconds = window.executed.iter().map(|e| e.0).fold(0.0f64, f64::max);
        for (s, state) in window.states.iter().enumerate() {
            match state {
                ShardPower::Off => {
                    power.off_shard_windows += 1;
                    continue;
                }
                ShardPower::Active => power.active_shard_windows += 1,
                ShardPower::Idle => power.idle_shard_windows += 1,
            }
            let engine = &self.engines[s];
            let idle_watts = engine.power_watts(0.0);
            let (seconds, macs) = window.executed[s];
            if seconds > 0.0 {
                let utilization = macs as f64 / (seconds * peak_macs_per_second(engine));
                power.modeled_joules += engine.power_watts(utilization) * seconds;
                power.modeled_joules += idle_watts * (window_seconds - seconds).max(0.0);
            } else {
                power.modeled_joules += idle_watts * window_seconds;
            }
        }
        self.folded += 1;
    }

    /// The run's [`PowerSummary`], once every shard has stopped: a window
    /// still open folds with what its shards reported.
    pub(super) fn summary(mut self) -> PowerSummary {
        while let Some(window) = self.open.pop_front() {
            self.fold(window);
        }
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::ShardPower::{Active, Idle, Off};
    use super::*;
    use proptest::prelude::*;

    /// One admission window as the power states see it: the backlog
    /// behind it, a pinned session's shard (if any), and per-shard
    /// "would route here" / "is drained" draws.
    type WindowDraw = (usize, Option<usize>, Vec<bool>, Vec<bool>);

    fn window_strategy() -> impl Strategy<Value = WindowDraw> {
        let flags = || proptest::collection::vec(prop_oneof![Just(true), Just(false)], 5);
        let pin = prop_oneof![Just(None), (0usize..5).prop_map(Some)];
        (0usize..6, pin, flags(), flags())
    }

    fn policy_strategy() -> impl Strategy<Value = PoolPolicy> {
        let elastic =
            (0usize..7, 0usize..4, 0usize..3).prop_map(|(min, up, idle)| PoolPolicy::Elastic {
                min_active: min,
                scale_up_depth: up,
                idle_windows: idle,
            });
        prop_oneof![Just(PoolPolicy::AlwaysOn), elastic]
    }

    /// One shard's run of a window: modeled seconds, MACs, how many
    /// windows later its report arrives, and whether the run failed.
    type RunDraw = (f64, u64, usize, bool);

    fn run_strategy() -> impl Strategy<Value = RunDraw> {
        let failed = prop_oneof![Just(true), Just(false), Just(false)];
        (0.0f64..3e-6, 0u64..50_000, 0usize..4, failed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn windows_fold_in_order_as_late_reports_arrive(
            shards in 1usize..6,
            policy in policy_strategy(),
            windows in proptest::collection::vec(
                (
                    window_strategy(),
                    proptest::collection::vec(run_strategy(), 5),
                ),
                1..40,
            ),
        ) {
            let mut power = PowerStates::new(policy, vec![OneSa::default(); shards]);
            // Every window as it dispatched — the shards' states and runs —
            // joined only at the end: the reference the folds must equal.
            let mut log: Vec<OpenWindow> = Vec::new();
            let mut in_flight: Vec<(usize, WindowReport)> = Vec::new();
            for (w, ((depth, _, routes, drains), runs)) in windows.iter().enumerate() {
                power.scale_up(*depth);
                let before = power.states().to_vec();
                let routed = |s: usize| before[s] == Active && routes[s];
                power.settle(routed, |s| drains[s]);
                let mut executed = vec![(0.0, 0); shards];
                for s in (0..shards).filter(|&s| routed(s)) {
                    let (seconds, macs, delay, failed) = runs[s];
                    executed[s] = if failed { (0.0, 0) } else { (seconds, macs) };
                    in_flight.push((w + delay, (w, s, executed[s].0, executed[s].1)));
                }
                log.push(OpenWindow {
                    states: power.states().to_vec(),
                    executed,
                    waiting: 0,
                });
                // The reports due by now, the latest shard's first.
                let (due, later): (Vec<_>, Vec<_>) =
                    in_flight.into_iter().partition(|(at, _)| *at <= w);
                in_flight = later;
                for (_, report) in due.into_iter().rev() {
                    power.report(report);
                }
                // Only windows whose reports are still in flight stay open.
                prop_assert!(power.open.len() <= 4, "{} open", power.open.len());
            }
            for (_, report) in in_flight {
                power.report(report);
            }
            prop_assert!(power.open.is_empty());
            let summary = power.summary();

            let engine = OneSa::default();
            let (idle_watts, peak) = (engine.power_watts(0.0), peak_macs_per_second(&engine));
            let mut joules = 0.0f64;
            for OpenWindow { states, executed, .. } in &log {
                let window_seconds = executed.iter().map(|e| e.0).fold(0.0f64, f64::max);
                for (s, _) in states.iter().enumerate().filter(|(_, p)| **p != Off) {
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
            prop_assert_eq!(summary.modeled_joules.to_bits(), joules.to_bits());
            let rows = summary.active_shard_windows
                + summary.idle_shard_windows
                + summary.off_shard_windows;
            prop_assert_eq!(rows, (windows.len() * shards) as u64);
        }

        #[test]
        fn power_states_hold_their_invariants_over_random_windows(
            shards in 1usize..6,
            policy in policy_strategy(),
            windows in proptest::collection::vec(window_strategy(), 1..40),
        ) {
            let mut power = PowerStates::new(policy, vec![OneSa::default(); shards]);
            let floor = match policy {
                PoolPolicy::AlwaysOn => shards,
                PoolPolicy::Elastic { min_active, .. } => min_active.clamp(1, shards),
            };
            let routable = |p: &PowerStates| p.states().iter().filter(|s| **s == Active).count();
            prop_assert_eq!(routable(&power), floor);
            prop_assert!(power.states().iter().all(|s| *s != Idle));

            let (mut ups, mut downs) = (0u64, 0u64);
            for (depth, pin, routes, drains) in &windows {
                // Scale-up wakes at most one shard, and only under a
                // backlog.
                let before = power.states().to_vec();
                power.scale_up(*depth);
                let woken: Vec<usize> = (0..shards)
                    .filter(|&s| before[s] != power.states()[s])
                    .collect();
                prop_assert!(woken.len() <= 1);
                for &s in &woken {
                    prop_assert_eq!(power.states()[s], Active);
                    prop_assert!(matches!(policy, PoolPolicy::Elastic { scale_up_depth, .. }
                        if *depth >= scale_up_depth.max(1)));
                    ups += u64::from(before[s] == Off);
                }

                // A pinned session always finds its shard routable.
                if let Some(p) = pin.filter(|&p| p < shards) {
                    ups += u64::from(power.states()[p] == Off);
                    power.wake(p);
                    prop_assert_eq!(power.states()[p], Active);
                }

                // The router only ever targets Active shards.
                let before = power.states().to_vec();
                let routed = |s: usize| before[s] == Active && routes[s];
                power.settle(routed, |s| drains[s]);
                for s in 0..shards {
                    match (before[s], power.states()[s]) {
                        (a, b) if a == b => {}
                        // Drain-before-power-down.
                        (Idle, Off) => {
                            prop_assert!(drains[s]);
                            downs += 1;
                        }
                        // Only an unused, drained shard starts draining.
                        (Active, Idle) => prop_assert!(!routed(s) && drains[s]),
                        (a, b) => prop_assert!(false, "settle moved shard {} {:?} -> {:?}", s, a, b),
                    }
                }
                prop_assert!(routable(&power) >= floor);
            }

            let summary = power.summary();
            // `Off -> Active` and `Idle -> Off` are the only transitions
            // counted, every shard-window once, nothing executed costs
            // nothing.
            prop_assert_eq!((summary.power_ups, summary.power_downs), (ups, downs));
            let rows = summary.active_shard_windows
                + summary.idle_shard_windows
                + summary.off_shard_windows;
            prop_assert_eq!(rows, (windows.len() * shards) as u64);
            prop_assert_eq!(summary.modeled_joules, 0.0);
            if policy == PoolPolicy::AlwaysOn {
                prop_assert_eq!(summary.active_shard_windows, rows);
                prop_assert_eq!((ups, downs), (0, 0));
            }
        }
    }
}
