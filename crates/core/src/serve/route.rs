//! Shard selection: the [`RoutePolicy`] a pool is configured with and
//! the [`Router`] state machine that applies it — a plain value the
//! admitter owns, with no channel or thread of its own.

use super::power::ShardPower;
use crate::Program;

/// How an admitted request picks its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Strict rotation over the shards.
    #[default]
    RoundRobin,
    /// The shard with the least outstanding modeled work (queued plus
    /// executing, in `Program::modeled_macs` units; ties pick the
    /// lowest shard index).
    LeastLoaded,
    /// Requests whose programs have equal `Program::fingerprint`s —
    /// GEMMs against the same weight matrix, nonlinears of the same
    /// function, whole networks compiled from the same model — land on
    /// the same shard, so sharding does not break [`crate::BatchEngine`]'s
    /// coalescing (shared weights still load once *per shard that sees
    /// them*, and with affinity routing that is one shard).
    WeightAffinity,
    /// The powered shard that would finish this request for the least
    /// additional modeled energy: each shard's full-activity energy per
    /// MAC (its [`PowerModel`] power over its peak MAC rate) weighs its
    /// outstanding work plus this request; ties pick the lowest shard
    /// index. On a homogeneous pool this degenerates to
    /// [`RoutePolicy::LeastLoaded`]; on a heterogeneous one it steers
    /// work toward the more efficient arrays first.
    ///
    /// [`PowerModel`]: onesa_resources::power::PowerModel
    EnergyAware,
}

/// Routing state of one pool: the policy, its round-robin cursor, every
/// shard's outstanding modeled work and the per-shard energy the
/// [`RoutePolicy::EnergyAware`] policy weighs.
#[derive(Debug)]
pub(super) struct Router {
    policy: RoutePolicy,
    /// Requests [`RoutePolicy::RoundRobin`] has placed so far.
    cursor: usize,
    /// Per-shard outstanding modeled MACs (queued plus executing):
    /// [`Router::pick`] adds a request's, [`Router::release`] a window's
    /// once its shard has run it.
    loads: Vec<u64>,
    /// Per-shard modeled joules per MAC at full activity
    /// ([`RoutePolicy::EnergyAware`]'s weight).
    energy_per_mac: Vec<f64>,
}

impl Router {
    /// A router over `energy_per_mac.len()` shards with nothing
    /// outstanding.
    pub(super) fn new(policy: RoutePolicy, energy_per_mac: Vec<f64>) -> Self {
        Router {
            policy,
            cursor: 0,
            loads: vec![0; energy_per_mac.len()],
            energy_per_mac,
        }
    }

    /// Shard `shard`'s outstanding modeled MACs.
    pub(super) fn load(&self, shard: usize) -> u64 {
        self.loads[shard]
    }

    /// Shard `shard` has run a window of `macs` modeled MACs.
    pub(super) fn release(&mut self, shard: usize, macs: u64) {
        self.loads[shard] -= macs;
    }

    /// Chooses the shard `program` runs on and charges its modeled MACs
    /// to that shard's load. In order of precedence:
    ///
    /// 1. `pinned` — a session is pinned to the shard that served its
    ///    prefill: later steps must land where the policy first put it,
    ///    or WeightAffinity-per-context-length would scatter one
    ///    stream's steps (and its write-back ordering) across the pool.
    ///    The caller wakes a parked pinned shard first.
    /// 2. The policy, over the *powered* shards only (`power` always
    ///    holds at least one [`ShardPower::Active`]).
    pub(super) fn pick(
        &mut self,
        program: &Program,
        pinned: Option<usize>,
        power: &[ShardPower],
    ) -> usize {
        let macs = program.modeled_macs();
        let shard = pinned.unwrap_or_else(|| {
            let active: Vec<usize> = (0..power.len())
                .filter(|&i| power[i] == ShardPower::Active)
                .collect();
            match self.policy {
                RoutePolicy::RoundRobin => {
                    let s = active[self.cursor % active.len()];
                    self.cursor += 1;
                    s
                }
                RoutePolicy::LeastLoaded => active
                    .iter()
                    .copied()
                    .min_by_key(|&i| (self.load(i), i))
                    .unwrap_or(0),
                RoutePolicy::WeightAffinity => {
                    active[(program.fingerprint() % active.len() as u64) as usize]
                }
                RoutePolicy::EnergyAware => {
                    let joules = |i: usize| self.energy_per_mac[i] * (self.load(i) + macs) as f64;
                    active
                        .iter()
                        .copied()
                        .min_by(|&a, &b| joules(a).total_cmp(&joules(b)))
                        .unwrap_or(0)
                }
            }
        });
        self.loads[shard] += macs;
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::ShardPower::{Active, Idle, Off};
    use super::*;
    use onesa_plan::{EvalMode, Op};
    use onesa_tensor::rng::Pcg32;

    /// An exact-mode `[rows, 8] x [8, 4]` GEMM program; the seed picks
    /// the weights, hence the fingerprint.
    fn gemm(seed: u64, rows: usize) -> Program {
        let mut b = Program::builder("route-gemm", EvalMode::Exact);
        let x = b.input(&[rows, 8]);
        let w = b.constant(Pcg32::seed_from_u64(seed).randn(&[8, 4], 1.0));
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w],
        );
        b.finish().unwrap()
    }

    fn router(policy: RoutePolicy, shards: usize) -> Router {
        Router::new(policy, vec![1.0; shards])
    }

    /// Every power mask over four shards with at least one Active; the
    /// unpowered ones alternate Idle / Off.
    fn masks() -> Vec<Vec<ShardPower>> {
        (1u32..16)
            .map(|bits| {
                (0..4)
                    .map(|i| match (bits >> i & 1, i % 2) {
                        (1, _) => Active,
                        (_, 0) => Idle,
                        _ => Off,
                    })
                    .collect()
            })
            .collect()
    }

    fn active(mask: &[ShardPower]) -> Vec<usize> {
        (0..mask.len()).filter(|&i| mask[i] == Active).collect()
    }

    #[test]
    fn every_policy_routes_over_the_powered_subset_only() {
        let programs: Vec<Program> = (0..6).map(|seed| gemm(seed, 2 + seed as usize)).collect();
        for mask in masks() {
            let on = active(&mask);

            // RoundRobin: strict rotation over the powered shards.
            let mut r = router(RoutePolicy::RoundRobin, 4);
            let picks: Vec<usize> = programs.iter().map(|p| r.pick(p, None, &mask)).collect();
            let want: Vec<usize> = (0..programs.len()).map(|k| on[k % on.len()]).collect();
            assert_eq!(picks, want, "round robin over {mask:?}");

            // WeightAffinity: the fingerprint indexes the powered list.
            let mut r = router(RoutePolicy::WeightAffinity, 4);
            for p in &programs {
                let want = on[(p.fingerprint() % on.len() as u64) as usize];
                assert_eq!(r.pick(p, None, &mask), want, "affinity over {mask:?}");
                assert_eq!(r.pick(p, None, &mask), want, "affinity is stable");
            }

            // LeastLoaded: the least outstanding work among the powered
            // shards, ties to the lowest index — replayed against a
            // model of the loads `pick` charges.
            let mut r = router(RoutePolicy::LeastLoaded, 4);
            let mut loads = [0u64; 4];
            for p in &programs {
                let want = *on.iter().min_by_key(|&&i| (loads[i], i)).unwrap();
                assert_eq!(r.pick(p, None, &mask), want, "least loaded over {mask:?}");
                loads[want] += p.modeled_macs();
                assert_eq!(r.load(want), loads[want]);
            }

            // EnergyAware on a homogeneous pool is LeastLoaded.
            let mut r = router(RoutePolicy::EnergyAware, 4);
            let mut loads = [0u64; 4];
            for p in &programs {
                let want = *on.iter().min_by_key(|&&i| (loads[i], i)).unwrap();
                assert_eq!(r.pick(p, None, &mask), want, "energy aware over {mask:?}");
                loads[want] += p.modeled_macs();
            }
        }
    }

    #[test]
    fn a_pinned_session_beats_the_policy() {
        let (a, b) = (gemm(1, 2), gemm(2, 3));
        let mut r = router(RoutePolicy::RoundRobin, 4);
        let all = [Active; 4];
        // The policy alone: rotation from shard 0.
        assert_eq!(r.pick(&a, None, &all), 0);
        assert_eq!(r.pick(&b, None, &all), 1);
        // A pin wins over the policy, even onto a shard the policy would
        // skip, and leaves the rotation where it was.
        assert_eq!(r.pick(&b, Some(1), &all), 1);
        assert_eq!(r.pick(&a, Some(3), &all), 3);
        assert_eq!(r.pick(&b, None, &all), 2);
        // Every pick charged its program's work to the shard it chose.
        let charged: u64 = (0..4).map(|s| r.load(s)).sum();
        assert_eq!(charged, 2 * a.modeled_macs() + 3 * b.modeled_macs());
    }

    #[test]
    fn energy_aware_breaks_ties_low_and_follows_the_cheaper_array() {
        let p = gemm(3, 4);
        let macs = p.modeled_macs();
        // Equal weights, equal loads: the lowest powered index, then the
        // next one once the first carries work.
        let mut r = router(RoutePolicy::EnergyAware, 3);
        assert_eq!(r.pick(&p, None, &[Idle, Active, Active]), 1);
        assert_eq!(r.pick(&p, None, &[Idle, Active, Active]), 2);
        assert_eq!(r.pick(&p, None, &[Idle, Active, Active]), 1);

        // Shard 1 costs a quarter of shard 0 per MAC: it takes requests
        // until its outstanding energy reaches what shard 0 would spend
        // on one — 0.25 * (k + 1) * macs against 1.0 * macs — and the
        // exact tie at k = 3 goes to the lower index.
        let mut r = Router::new(RoutePolicy::EnergyAware, vec![1.0, 0.25]);
        let picks: Vec<usize> = (0..5).map(|_| r.pick(&p, None, &[Active; 2])).collect();
        assert_eq!(picks, [1, 1, 1, 0, 1]);
        assert_eq!((r.load(0), r.load(1)), (macs, 4 * macs));
        // The shard running its windows frees the cheap shard again.
        r.release(1, 4 * macs);
        assert_eq!(r.pick(&p, None, &[Active; 2]), 1);
    }

    #[test]
    fn weight_affinity_follows_a_shrinking_active_set() {
        let programs: Vec<Program> = (10..18).map(|seed| gemm(seed, 2)).collect();
        let mut r = router(RoutePolicy::WeightAffinity, 4);
        let mut mask = vec![Active; 4];
        // Power shards down one at a time (3, then 1, then 0): every
        // program keeps landing on a powered shard, equal fingerprints
        // keep sharing it, and with one shard left everything does.
        for parked in [None, Some(3), Some(1), Some(0)] {
            if let Some(s) = parked {
                mask[s] = Off;
            }
            let on = active(&mask);
            for p in &programs {
                let shard = r.pick(p, None, &mask);
                assert_eq!(shard, on[(p.fingerprint() % on.len() as u64) as usize]);
                assert_eq!(r.pick(&p.clone(), None, &mask), shard);
            }
        }
        assert_eq!(active(&mask), [2]);
    }
}
