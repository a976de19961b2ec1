//! The [`OneSa`] design point.

use crate::report::ExecutionReport;
use onesa_nn::workloads::{Phase, Workload};
use onesa_resources::array::ArrayResources;
use onesa_resources::power::PowerModel;
use onesa_resources::{Design, ModuleCost};
use onesa_sim::{analytic, ArrayConfig, ExecStats};
use onesa_tensor::parallel::Parallelism;

/// One ONE-SA design point: a configured array, its cost and power
/// models, and the host-execution policy a [`crate::BatchEngine`] built
/// on it runs kernels under. Tensors execute as [`crate::Program`]s
/// through that engine; this type only models.
#[derive(Debug, Clone)]
pub struct OneSa {
    cfg: ArrayConfig,
    cost: ModuleCost,
    power: PowerModel,
    par: Parallelism,
}

impl OneSa {
    /// Builds the engine for an array configuration, deriving the FPGA
    /// cost from the calibrated resource model. Kernels run sequentially;
    /// use [`OneSa::with_parallelism`] for the multi-threaded backend.
    pub fn new(cfg: ArrayConfig) -> Self {
        OneSa::with_parallelism(cfg, Parallelism::Sequential)
    }

    /// Builds the engine with an explicit host-execution policy. All
    /// policies produce bit-identical tensors (see
    /// [`onesa_tensor::parallel`]); only wall-clock speed changes.
    pub fn with_parallelism(cfg: ArrayConfig, par: Parallelism) -> Self {
        let resources = ArrayResources::calibrated();
        let cost = resources.total(Design::OneSa, cfg.dim, cfg.macs_per_pe);
        OneSa {
            cfg,
            cost,
            power: PowerModel::virtex7(),
            par,
        }
    }

    /// The array configuration.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// The host-execution policy used for kernel evaluation.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// FPGA resource cost of this design point.
    pub fn cost(&self) -> ModuleCost {
        self.cost
    }

    /// Modelled power at a given utilization.
    pub(crate) fn power_watts(&self, utilization: f64) -> f64 {
        self.power.power_at_utilization(&self.cost, utilization)
    }

    /// Runs a whole workload and produces the Table IV-style report.
    pub fn run_workload(&self, w: &Workload) -> ExecutionReport {
        let cfg = &self.cfg;
        let stats = w
            .phases
            .iter()
            .map(|phase| match *phase {
                Phase::Gemm { m, k, n } => analytic::gemm_stats(cfg, m, k, n),
                Phase::Pointwise { m, n, .. } => analytic::nonlinear_stats(cfg, m, n),
                Phase::Softmax { rows, cols } => analytic::softmax_stats(cfg, rows, cols),
                Phase::Norm { rows, cols } => analytic::norm_stats(cfg, rows, cols),
            })
            .reduce(|acc, s| acc.merged(&s))
            .unwrap_or_else(|| ExecStats::new(cfg, onesa_sim::CycleBreakdown::default(), 0, 0));
        let utilization = stats.utilization(&self.cfg);
        ExecutionReport {
            workload: w.name.clone(),
            stats,
            config: self.cfg.clone(),
            power_w: self.power.power_at_utilization(&self.cost, utilization),
        }
    }
}

impl Default for OneSa {
    /// The paper's evaluation design point (64 PEs, 16 MACs each).
    fn default() -> Self {
        OneSa::new(ArrayConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_nn::workloads;

    #[test]
    fn workload_reports_are_sane() {
        let engine = OneSa::new(ArrayConfig::new(8, 16));
        for w in workloads::table4_workloads() {
            let r = engine.run_workload(&w);
            assert!(r.latency_ms() > 0.1, "{}: {}", w.name, r.latency_ms());
            assert!(r.gops() > 10.0, "{}: {}", w.name, r.gops());
            assert!(r.gops() <= engine.config().peak_gops());
            assert!(
                r.power_w > 0.25 && r.power_w < 10.0,
                "{}: {} W",
                w.name,
                r.power_w
            );
        }
    }

    #[test]
    fn onesa_beats_cpu_efficiency_on_all_families() {
        // The paper's headline: ONE-SA efficiency ≫ general-purpose CPU.
        let engine = OneSa::new(ArrayConfig::new(8, 16));
        for w in workloads::table4_workloads() {
            let r = engine.run_workload(&w);
            let cpu = onesa_baselines::cpu_i7_11700();
            let cpu_eff = cpu.gops_for(w.family).unwrap() / cpu.power_w;
            assert!(
                r.gops_per_watt() > cpu_eff,
                "{}: onesa {} vs cpu {}",
                w.name,
                r.gops_per_watt(),
                cpu_eff
            );
        }
    }

    #[test]
    fn bigger_arrays_are_faster_on_big_workloads() {
        let small = OneSa::new(ArrayConfig::new(4, 16));
        let big = OneSa::new(ArrayConfig::new(16, 16));
        let w = workloads::bert_base(64);
        assert!(big.run_workload(&w).latency_ms() < small.run_workload(&w).latency_ms());
    }
}
