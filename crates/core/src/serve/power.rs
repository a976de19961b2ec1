//! Shard power management: the [`PoolPolicy`] state machine over the
//! pool's [`ShardPower`] states ([`PowerStates`], a plain value the
//! admission thread drives once per window) and the modeled energy
//! accounting computed from the per-window log it keeps.

use crate::engine::OneSa;

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

/// Modeled execution of one admission window on one shard — what the
/// shard's thread reports for the energy accounting.
pub(super) struct WindowRecord {
    pub(super) window: usize,
    pub(super) seconds: f64,
    pub(super) macs: u64,
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
    /// Every shard's state as each window dispatched: one row of
    /// `states.len()` per window.
    log: Vec<ShardPower>,
    /// The transition counters (`power_ups`, `power_downs`); the rest
    /// is filled in at [`PowerStates::summary`].
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
            log: Vec::new(),
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

    /// Closes a window's power accounting once it is routed: elastic
    /// scale-down, then one log row. Drain-before-power-down: an Active
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
        self.log.extend_from_slice(&self.states);
    }

    /// The run's [`PowerSummary`], from the window log and what every
    /// shard executed (`executed[shard]`). Each window lasts as long as
    /// its longest shard batch; executing shards pay utilization-scaled
    /// power for their batch plus idle power for the remainder, powered
    /// idle shards pay idle power throughout, Off shards pay nothing.
    pub(super) fn summary(&self, executed: &[Vec<WindowRecord>]) -> PowerSummary {
        // Per (shard, window) modeled batch seconds and MACs.
        let windows = self.log.chunks(self.states.len());
        let mut exec = vec![vec![(0.0f64, 0u64); windows.len()]; executed.len()];
        for (slots, records) in exec.iter_mut().zip(executed) {
            for rec in records {
                if let Some(slot) = slots.get_mut(rec.window) {
                    slot.0 += rec.seconds;
                    slot.1 += rec.macs;
                }
            }
        }
        let mut power = self.totals;
        for (w, states) in windows.enumerate() {
            let window_seconds = exec.iter().map(|slots| slots[w].0).fold(0.0f64, f64::max);
            for (s, state) in states.iter().enumerate() {
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
                let (seconds, macs) = exec[s][w];
                if seconds > 0.0 {
                    let utilization = macs as f64 / (seconds * peak_macs_per_second(engine));
                    power.modeled_joules += engine.power_watts(utilization) * seconds;
                    power.modeled_joules += idle_watts * (window_seconds - seconds).max(0.0);
                } else {
                    power.modeled_joules += idle_watts * window_seconds;
                }
            }
        }
        power
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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

            let executed: Vec<Vec<WindowRecord>> = (0..shards).map(|_| Vec::new()).collect();
            let summary = power.summary(&executed);
            // `Off -> Active` and `Idle -> Off` are the only transitions
            // counted, one log row per window, nothing executed costs
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
