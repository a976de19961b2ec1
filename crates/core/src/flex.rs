//! The flexibility argument, quantified.
//!
//! The paper's introduction argues that accelerators built from a matrix
//! unit *plus* dedicated nonlinear function units stall: "one computing
//! unit may remain idle while another processes the workload". This
//! module models that split design as two serialized engines — a GEMM
//! unit with the same MAC budget as the full array and a nonlinear unit
//! sized like typical dedicated vector units — and reports its
//! serialized cycles and each unit's busy share, versus ONE-SA where the
//! *same* fabric runs both phases.

use onesa_nn::workloads::{Phase, Workload};
use onesa_sim::{analytic, ArrayConfig};

/// Cycle accounting of a split (matrix unit + nonlinear unit) design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitCycles {
    /// Cycles the nonlinear unit is busy — and so the matrix unit idles.
    pub nonlinear_busy: u64,
    /// Total serialized cycles (layer dependencies force alternation).
    pub total: u64,
}

/// Models the split accelerator on a workload: the matrix unit uses the
/// same GEMM schedule as ONE-SA; the dedicated nonlinear unit processes
/// `nl_lanes` elements per cycle (typical dedicated SFU widths are 8–32
/// lanes). Phases serialize because each layer consumes the previous
/// layer's output.
pub fn split_accelerator_cycles(
    cfg: &ArrayConfig,
    workload: &Workload,
    nl_lanes: usize,
) -> SplitCycles {
    let mut gemm_busy = 0u64;
    let mut nonlinear_busy = 0u64;
    for phase in &workload.phases {
        match *phase {
            Phase::Gemm { m, k, n } => {
                gemm_busy += analytic::gemm_breakdown(cfg, m, k, n).total();
            }
            Phase::Pointwise { m, n, .. } => {
                nonlinear_busy += ((m * n) as u64).div_ceil(nl_lanes as u64);
            }
            Phase::Softmax { rows, cols } => {
                // exp + sum + reciprocal + scale on the vector unit.
                nonlinear_busy += (4 * (rows * cols) as u64).div_ceil(nl_lanes as u64);
            }
            Phase::Norm { rows, cols } => {
                nonlinear_busy += (5 * (rows * cols) as u64).div_ceil(nl_lanes as u64);
            }
        }
    }
    SplitCycles {
        nonlinear_busy,
        total: gemm_busy + nonlinear_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OneSa;
    use onesa_nn::workloads;

    #[test]
    fn split_design_idles() {
        // The serialized total is the matrix unit's GEMM schedules plus
        // the nonlinear unit's busy cycles, both non-zero: each unit idles
        // while the other works.
        let cfg = ArrayConfig::new(8, 16);
        let w = workloads::bert_base(64);
        let split = split_accelerator_cycles(&cfg, &w, 16);
        let gemm: u64 = w
            .phases
            .iter()
            .map(|phase| match *phase {
                Phase::Gemm { m, k, n } => analytic::gemm_breakdown(&cfg, m, k, n).total(),
                _ => 0,
            })
            .sum();
        assert!(gemm > 0 && split.nonlinear_busy > 0);
        assert_eq!(split.total, gemm + split.nonlinear_busy);
    }

    #[test]
    fn onesa_is_not_slower_than_narrow_split_design() {
        // With a typical narrow (16-lane) nonlinear unit, the split
        // design's serialized nonlinear time exceeds what ONE-SA spends
        // running the same ops across its diagonal PEs — on every Table IV
        // family. Widening the unit shrinks the gap, strictly: a model
        // blind to the lane count, or one whose ratio is a constant,
        // fails here.
        let cfg = ArrayConfig::new(8, 16);
        let engine = OneSa::new(cfg.clone());
        for w in workloads::table4_workloads() {
            let onesa_cycles = engine.run_workload(&w).stats.cycles();
            let ratio = |lanes| {
                split_accelerator_cycles(&cfg, &w, lanes).total as f64 / onesa_cycles as f64
            };
            let ratios = [8, 16, 32, 64].map(ratio);
            assert!(ratios[1] > 1.0, "{}: split / ONE-SA {ratios:?}", w.name);
            assert!(
                ratios.windows(2).all(|r| r[1] < r[0]),
                "{}: split / ONE-SA must fall as lanes widen: {ratios:?}",
                w.name
            );
        }
    }
}
