//! Cycle accounting and derived throughput metrics.

use crate::ArrayConfig;

/// Cycle counts broken down by pipeline phase.
///
/// `skew` counts wavefront fill cycles, `compute` the cycles in which at
/// least one PE performs MACs, `drain` the cycles spent moving results
/// out after computation, `ipf` the non-overlapped cycles of the L3
/// addressing path and `dram_stall` any roofline stall imposed by the
/// DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Wavefront fill (input skew) cycles.
    pub skew: u64,
    /// Cycles with active MACs.
    pub compute: u64,
    /// Result-transmission cycles after compute.
    pub drain: u64,
    /// Non-overlapped Intermediate Parameter Fetching cycles.
    pub ipf: u64,
    /// Stall cycles added to respect the DRAM bandwidth roofline.
    pub dram_stall: u64,
}

impl CycleBreakdown {
    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.skew + self.compute + self.drain + self.ipf + self.dram_stall
    }

    /// Sums two breakdowns phase by phase.
    pub(crate) fn merged(&self, other: &CycleBreakdown) -> CycleBreakdown {
        CycleBreakdown {
            skew: self.skew + other.skew,
            compute: self.compute + other.compute,
            drain: self.drain + other.drain,
            ipf: self.ipf + other.ipf,
            dram_stall: self.dram_stall + other.dram_stall,
        }
    }
}

/// Execution statistics of one schedule on one array configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecStats {
    /// Phase breakdown.
    pub breakdown: CycleBreakdown,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Nonlinear function evaluations performed (0 for pure GEMM).
    pub nonlinear_evals: u64,
    /// Clock frequency used for time conversion (MHz).
    pub clock_mhz: f64,
}

impl ExecStats {
    /// Builds stats from a breakdown and op counts under `cfg`'s clock.
    pub fn new(cfg: &ArrayConfig, breakdown: CycleBreakdown, macs: u64, nl: u64) -> Self {
        ExecStats {
            breakdown,
            macs,
            nonlinear_evals: nl,
            clock_mhz: cfg.clock_mhz,
        }
    }

    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.breakdown.total()
    }

    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles() as f64 / (self.clock_mhz * 1e6)
    }

    /// Giga-operations per second; one op is one multiply-accumulate
    /// (the paper: "each operation encompasses an addition and a
    /// multiplication").
    pub fn gops(&self) -> f64 {
        if self.cycles() == 0 {
            0.0
        } else {
            self.macs as f64 / self.seconds() / 1e9
        }
    }

    /// Giga nonlinear function evaluations per second (the paper's GNFS).
    pub fn gnfs(&self) -> f64 {
        if self.cycles() == 0 {
            0.0
        } else {
            self.nonlinear_evals as f64 / self.seconds() / 1e9
        }
    }

    /// MAC-utilization against the array peak.
    pub fn utilization(&self, cfg: &ArrayConfig) -> f64 {
        if self.cycles() == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles() as f64 * cfg.peak_macs_per_cycle() as f64)
    }

    /// Merges sequential stages (cycles and op counts add).
    pub fn merged(&self, other: &ExecStats) -> ExecStats {
        ExecStats {
            breakdown: self.breakdown.merged(&other.breakdown),
            macs: self.macs + other.macs,
            nonlinear_evals: self.nonlinear_evals + other.nonlinear_evals,
            clock_mhz: self.clock_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(skew: u64, compute: u64, drain: u64) -> CycleBreakdown {
        CycleBreakdown {
            skew,
            compute,
            drain,
            ipf: 0,
            dram_stall: 0,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let b = bd(10, 30, 60);
        assert_eq!(b.total(), 100);
        assert_eq!(CycleBreakdown::default().total(), 0);
    }

    #[test]
    fn merged_adds_phases() {
        let a = bd(1, 2, 3);
        let b = bd(10, 20, 30);
        let m = a.merged(&b);
        assert_eq!(m.skew, 11);
        assert_eq!(m.compute, 22);
        assert_eq!(m.drain, 33);
    }

    #[test]
    fn gops_math() {
        let cfg = ArrayConfig::default(); // 200 MHz
        let stats = ExecStats::new(&cfg, bd(0, 1000, 0), 1_000_000, 0);
        // 1e6 MACs in 1000 cycles at 200MHz = 1e6 / 5e-6 s = 2e11 ops/s.
        assert!((stats.gops() - 200.0).abs() < 1e-9);
        assert!((stats.seconds() - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn utilization_peaks_at_one() {
        let cfg = ArrayConfig::new(8, 16);
        let macs = 1000 * cfg.peak_macs_per_cycle() as u64;
        let stats = ExecStats::new(&cfg, bd(0, 1000, 0), macs, 0);
        assert!((stats.utilization(&cfg) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_stats_accumulate() {
        let cfg = ArrayConfig::default();
        let a = ExecStats::new(&cfg, bd(1, 2, 3), 100, 5);
        let b = ExecStats::new(&cfg, bd(4, 5, 6), 200, 10);
        let m = a.merged(&b);
        assert_eq!(m.cycles(), 21);
        assert_eq!(m.macs, 300);
        assert_eq!(m.nonlinear_evals, 15);
    }
}
