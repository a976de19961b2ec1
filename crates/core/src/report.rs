//! Execution reports: latency, throughput, power and efficiency of one
//! workload on one array configuration.

use onesa_sim::{ArrayConfig, ExecStats};

/// The result of running a workload on the engine.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Workload name.
    pub(crate) workload: String,
    /// Aggregated execution statistics.
    pub stats: ExecStats,
    /// Array configuration used.
    pub(crate) config: ArrayConfig,
    /// Modelled power draw during the run (W).
    pub power_w: f64,
}

impl ExecutionReport {
    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.stats.seconds() * 1e3
    }

    /// Sustained GOPS (1 op = 1 MAC, the paper's convention).
    pub fn gops(&self) -> f64 {
        self.stats.gops()
    }

    /// MAC utilization against the array peak.
    pub fn utilization(&self) -> f64 {
        self.stats.utilization(&self.config)
    }

    /// Throughput per watt (the paper's efficiency metric, `1/W`).
    pub fn gops_per_watt(&self) -> f64 {
        self.gops() / self.power_w
    }
}

impl std::fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2} ms, {:.1} GOPS, {:.2} W, {:.2} GOPS/W (util {:.1}%)",
            self.workload,
            self.latency_ms(),
            self.gops(),
            self.power_w,
            self.gops_per_watt(),
            self.utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_sim::CycleBreakdown;

    #[test]
    fn derived_metrics() {
        let cfg = ArrayConfig::default();
        let stats = ExecStats::new(
            &cfg,
            CycleBreakdown {
                skew: 0,
                compute: 200_000,
                drain: 0,
                ipf: 0,
                dram_stall: 0,
            },
            204_800_000,
            0,
        );
        let report = ExecutionReport {
            workload: "test".into(),
            stats,
            config: cfg,
            power_w: 8.0,
        };
        // 200k cycles at 200 MHz = 1 ms.
        assert!((report.latency_ms() - 1.0).abs() < 1e-9);
        assert!((report.gops() - 204.8).abs() < 1e-6);
        assert!((report.gops_per_watt() - 25.6).abs() < 1e-6);
        assert!(report.to_string().contains("GOPS"));
    }
}
