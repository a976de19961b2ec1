//! The [`OneSa`] engine.

use crate::report::ExecutionReport;
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::PwlTable;
use onesa_nn::workloads::{Phase, Workload};
use onesa_resources::array::ArrayResources;
use onesa_resources::power::PowerModel;
use onesa_resources::{Design, ModuleCost};
use onesa_sim::{analytic, ArrayConfig, ExecStats};
use onesa_tensor::parallel::{self, Parallelism};
use onesa_tensor::{Result, Tensor};

/// One ONE-SA instance: a configured array plus its cost and power
/// models.
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
    pub fn power_watts(&self, utilization: f64) -> f64 {
        self.power.power_at_utilization(&self.cost, utilization)
    }

    // ---------- functional execution (values + cycles) ----------

    /// Executes a GEMM: returns the product and its execution stats.
    ///
    /// # Errors
    ///
    /// Shape errors as in [`onesa_tensor::gemm::matmul`].
    pub fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<(Tensor, ExecStats)> {
        let (m, k) = a.shape().as_matrix()?;
        let (_, n) = b.shape().as_matrix()?;
        let out = parallel::matmul(a, b, self.par)?;
        Ok((out, analytic::gemm_stats(&self.cfg, m, k, n)))
    }

    /// Executes a pointwise nonlinear function through IPF + MHP.
    ///
    /// # Errors
    ///
    /// Shape errors from the underlying tensor ops.
    pub fn nonlinear(&self, table: &PwlTable, x: &Tensor) -> Result<(Tensor, ExecStats)> {
        let (m, n) = matrix_or_row(x);
        let out = table.eval_tensor_par(x, self.par);
        Ok((out, analytic::nonlinear_stats(&self.cfg, m, n)))
    }

    /// Executes a row-wise softmax via the paper's lowering (row max →
    /// exp MHP → row-sum GEMM → reciprocal MHP → scale MHP).
    ///
    /// # Errors
    ///
    /// Shape errors from the underlying tensor ops.
    pub fn softmax_rows(&self, tables: &TableSet, x: &Tensor) -> Result<(Tensor, ExecStats)> {
        let (m, n) = x.shape().as_matrix()?;
        let out = tables.softmax_rows(x)?;
        Ok((out, self.softmax_stats(m, n)))
    }

    /// Executes a row-wise layer norm via the paper's lowering.
    ///
    /// # Errors
    ///
    /// Shape errors from the underlying tensor ops.
    pub fn layernorm_rows(
        &self,
        tables: &TableSet,
        x: &Tensor,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) -> Result<(Tensor, ExecStats)> {
        let (m, n) = x.shape().as_matrix()?;
        let out = tables.layernorm_rows(x, gamma, beta, eps)?;
        Ok((out, self.norm_stats(m, n)))
    }

    // ---------- cycle composition for lowered composite ops ----------

    /// Softmax lowering cycles: exp (IPF+MHP) + row-sum GEMM +
    /// reciprocal (IPF+MHP on the row vector) + scale MHP (see
    /// [`analytic::softmax_stats`]).
    pub fn softmax_stats(&self, m: usize, n: usize) -> ExecStats {
        analytic::softmax_stats(&self.cfg, m, n)
    }

    /// Normalization lowering cycles: mean GEMM + center MHP + square
    /// MHP + variance GEMM + rsqrt (IPF+MHP) + affine MHP (see
    /// [`analytic::norm_stats`]).
    pub fn norm_stats(&self, m: usize, n: usize) -> ExecStats {
        analytic::norm_stats(&self.cfg, m, n)
    }

    /// Stats for one workload phase.
    pub fn phase_stats(&self, phase: &Phase) -> ExecStats {
        match *phase {
            Phase::Gemm { m, k, n } => analytic::gemm_stats(&self.cfg, m, k, n),
            Phase::Pointwise { m, n, .. } => analytic::nonlinear_stats(&self.cfg, m, n),
            Phase::Softmax { rows, cols } => self.softmax_stats(rows, cols),
            Phase::Norm { rows, cols } => self.norm_stats(rows, cols),
        }
    }

    /// Runs a whole workload and produces the Table IV-style report.
    pub fn run_workload(&self, w: &Workload) -> ExecutionReport {
        let mut stats: Option<ExecStats> = None;
        for phase in &w.phases {
            let s = self.phase_stats(phase);
            stats = Some(match stats {
                Some(acc) => acc.merged(&s),
                None => s,
            });
        }
        let stats = stats.unwrap_or_else(|| {
            ExecStats::new(&self.cfg, onesa_sim::CycleBreakdown::default(), 0, 0)
        });
        let utilization = stats.utilization(&self.cfg);
        ExecutionReport {
            workload: w.name.clone(),
            stats,
            config: self.cfg.clone(),
            cost: self.cost,
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

fn matrix_or_row(x: &Tensor) -> (usize, usize) {
    match x.shape().as_matrix() {
        Ok((m, n)) => (m, n),
        Err(_) => (1, x.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_cpwl::NonlinearFn;
    use onesa_nn::workloads;
    use onesa_tensor::gemm;
    use onesa_tensor::rng::Pcg32;
    use onesa_tensor::stats;

    #[test]
    fn gemm_values_match_reference() {
        let engine = OneSa::default();
        let mut rng = Pcg32::seed_from_u64(1);
        let a = rng.randn(&[20, 12], 1.0);
        let b = rng.randn(&[12, 9], 1.0);
        let (out, s) = engine.gemm(&a, &b).unwrap();
        assert_eq!(out, gemm::matmul(&a, &b).unwrap());
        assert_eq!(s.macs, 20 * 12 * 9);
        assert!(s.cycles() > 0);
    }

    #[test]
    fn threaded_engine_is_bit_identical_to_sequential() {
        let mut rng = Pcg32::seed_from_u64(9);
        let a = rng.randn(&[33, 21], 1.0);
        let b = rng.randn(&[21, 27], 1.0);
        let seq = OneSa::default();
        let par = OneSa::with_parallelism(ArrayConfig::default(), Parallelism::Threads(4));
        assert_eq!(par.parallelism(), Parallelism::Threads(4));
        let (sout, sstats) = seq.gemm(&a, &b).unwrap();
        let (pout, pstats) = par.gemm(&a, &b).unwrap();
        assert_eq!(sout, pout);
        // Simulated array cycles are a property of the workload, not of
        // the host execution policy.
        assert_eq!(sstats, pstats);
    }

    #[test]
    fn nonlinear_values_match_table() {
        let engine = OneSa::default();
        let table = PwlTable::builder(NonlinearFn::Gelu)
            .granularity(0.25)
            .build()
            .unwrap();
        let x = Pcg32::seed_from_u64(2).randn(&[6, 10], 2.0);
        let (out, s) = engine.nonlinear(&table, &x).unwrap();
        assert_eq!(out, table.eval_tensor(&x).unwrap());
        assert_eq!(s.nonlinear_evals, 60);
    }

    #[test]
    fn softmax_values_match_tableset() {
        let engine = OneSa::default();
        let tables = TableSet::for_granularity(0.25).unwrap();
        let x = Pcg32::seed_from_u64(3).randn(&[5, 8], 1.5);
        let (out, s) = engine.softmax_rows(&tables, &x).unwrap();
        let reference = tables.softmax_rows(&x).unwrap();
        assert!(stats::max_abs_diff(out.as_slice(), reference.as_slice()) < 1e-6);
        assert!(s.cycles() > 0);
    }

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
