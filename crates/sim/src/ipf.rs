//! The L3-buffer module that implements Intermediate Parameter Fetching
//! (paper Fig 5).
//!
//! The addressing pipeline is: data **shift** (segment index by right
//! shift when the granularity is a power of two), **scale** (cap the
//! index into the preloaded range), **lookup** in the `k`/`b` buffers,
//! then out through the `k`/`Reg` FIFOs. The data-rearrange stage of
//! Fig 6 — each `k` paired with its `b`, each `x` with the constant `1`,
//! because the array has only two input channels — is the pair streams
//! [`crate::array::SystolicArray::mhp_row_tile`] feeds its PEs.

use crate::stats::CycleBreakdown;
use crate::{ArrayConfig, ParamStaging};
use onesa_cpwl::{IpfOutput, PwlTable};
use onesa_tensor::Tensor;

/// Event-level model of the L3 data-addressing module.
///
/// Functionally it produces exactly [`PwlTable::ipf`]; its value is the
/// cycle accounting.
#[derive(Debug)]
pub struct L3Addressing<'t> {
    table: &'t PwlTable,
    /// Parallel lookup lanes. The k/b tables are tiny (a few hundred
    /// bytes), so ONE-SA replicates them across lanes — this is where
    /// most of the module's extra LUTs go (Table I: 4.87× the LUTs of a
    /// plain L3).
    lanes: usize,
    /// Pipeline latency: shift → scale → lookup → FIFO.
    latency: u64,
}

impl<'t> L3Addressing<'t> {
    /// Builds the module for a table under an array configuration. The
    /// lane count matches the MHP consumption rate (`D` diagonal PEs ×
    /// `T/2` elements each) so the lookup pipeline never starves the
    /// array.
    pub fn new(cfg: &ArrayConfig, table: &'t PwlTable) -> Self {
        L3Addressing {
            table,
            lanes: (cfg.dim * cfg.mhp_elems_per_pe_per_cycle()).max(1),
            latency: cfg.ipf_pipeline_latency as u64,
        }
    }

    /// Streams a tensor through the addressing pipeline, producing the
    /// segment matrix and the `K`/`B` parameter matrices plus the cycle
    /// cost of the pass.
    pub fn process(&mut self, x: &Tensor) -> (IpfOutput, CycleBreakdown) {
        let out = self.table.ipf(x);
        let cycles = self.latency + (x.len() as u64).div_ceil(self.lanes as u64);
        (
            out,
            CycleBreakdown {
                ipf: cycles,
                ..CycleBreakdown::default()
            },
        )
    }
}

/// Cycle cost of staging IPF parameters for the following MHP, depending
/// on the staging policy: fused staging only pays the pipeline latency
/// (the lanes keep up with the array); DRAM staging serializes a full
/// write + read-back of `K` and `B` (4·E elements) through the DRAM
/// channel, exactly as §IV-A describes.
pub(crate) fn staging_cycles(cfg: &ArrayConfig, elems: u64) -> u64 {
    match cfg.staging {
        ParamStaging::Fused => 0,
        ParamStaging::Dram => {
            let dram = crate::dram::DramModel::from_config(cfg);
            dram.transfer_cycles(2 * elems) + dram.transfer_cycles(2 * elems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_cpwl::NonlinearFn;

    fn table() -> PwlTable {
        PwlTable::builder(NonlinearFn::Gelu)
            .granularity(0.25)
            .build()
            .unwrap()
    }

    #[test]
    fn process_matches_table_ipf() {
        let cfg = ArrayConfig::default();
        let t = table();
        let mut addr = L3Addressing::new(&cfg, &t);
        let x = Tensor::from_vec(vec![-9.0, -1.0, 0.5, 9.0], &[2, 2]).unwrap();
        let (out, cycles) = addr.process(&x);
        assert_eq!(out, t.ipf(&x));
        assert!(cycles.ipf >= cfg.ipf_pipeline_latency as u64);
    }

    #[test]
    fn lanes_match_mhp_consumption() {
        let cfg = ArrayConfig::new(16, 16);
        let t = table();
        let mut addr = L3Addressing::new(&cfg, &t);
        // 16 diagonal PEs × 8 elements each: 256 elements take two cycles.
        let (_, cycles) = addr.process(&Tensor::zeros(&[16, 16]));
        assert_eq!(cycles.ipf, cfg.ipf_pipeline_latency as u64 + 2);
    }

    #[test]
    fn cycle_cost_scales_with_elements() {
        let cfg = ArrayConfig::new(4, 4); // lanes = 8
        let t = table();
        let mut addr = L3Addressing::new(&cfg, &t);
        let x = Tensor::zeros(&[16, 16]); // 256 elements
        let (_, cycles) = addr.process(&x);
        assert_eq!(cycles.ipf, cfg.ipf_pipeline_latency as u64 + 256 / 8);
    }

    #[test]
    fn staging_cost_fused_vs_dram() {
        let mut cfg = ArrayConfig::default();
        assert_eq!(staging_cycles(&cfg, 1024), 0);
        cfg.staging = ParamStaging::Dram;
        let cost = staging_cycles(&cfg, 1024);
        assert!(cost >= 2 * 2048 / cfg.w_dram as u64);
    }
}
