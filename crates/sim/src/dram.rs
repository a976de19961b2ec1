//! DRAM channel model and per-schedule traffic accounting.
//!
//! The simulator treats DRAM as a bandwidth roofline (a fixed number of
//! INT16 elements per cycle) plus a fixed access latency; schedules
//! compare their compute-side cycle count against the traffic-side cycle
//! count and charge the difference as [`stall`](DramModel::stall_cycles).

use crate::ArrayConfig;

/// A bandwidth/latency DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Sustained bandwidth in INT16 elements per array cycle.
    pub(crate) elems_per_cycle: usize,
    /// First-access latency in cycles.
    pub(crate) latency_cycles: u64,
}

impl DramModel {
    /// Builds the model from an array configuration.
    pub(crate) fn from_config(cfg: &ArrayConfig) -> Self {
        DramModel {
            elems_per_cycle: cfg.w_dram.max(1),
            latency_cycles: 40,
        }
    }

    /// Cycles to move `elems` elements (one direction), including the
    /// initial latency.
    pub(crate) fn transfer_cycles(&self, elems: u64) -> u64 {
        if elems == 0 {
            return 0;
        }
        self.latency_cycles + elems.div_ceil(self.elems_per_cycle as u64)
    }

    /// Stall cycles a schedule must add so that its total runtime covers
    /// the DRAM traffic: `max(0, transfer - overlapped_cycles)`.
    pub(crate) fn stall_cycles(&self, traffic_elems: u64, overlapped_cycles: u64) -> u64 {
        self.transfer_cycles(traffic_elems)
            .saturating_sub(overlapped_cycles)
    }
}

/// DRAM traffic of a tiled GEMM (in INT16 elements): `A`, `B` read once,
/// `C` written once — ideal inter-tile reuse, with operand stripes
/// streamed through the L3 buffers (the high-performance design of the
/// paper's reference \[6\] that ONE-SA's auxiliary circuitry follows).
pub(crate) fn gemm_traffic_elems(_cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> u64 {
    (m as u64 * k as u64) + (k as u64 * n as u64) + (m as u64 * n as u64)
}

/// DRAM traffic of a nonlinear (IPF + MHP) pass over `e` elements.
///
/// With [`crate::ParamStaging::Fused`], the pass runs on activations that
/// are already resident between the producing and consuming GEMMs (their
/// movement is charged to those GEMMs), so the pass itself adds no DRAM
/// traffic. With [`crate::ParamStaging::Dram`] the literal §IV-A flow is
/// modelled: `X` read (e), `K`/`B` written then re-read (4e), `X` re-read
/// for the MHP (e) and `Y` written (e) — `7e` total.
pub(crate) fn nonlinear_traffic_elems(cfg: &ArrayConfig, e: u64) -> u64 {
    match cfg.staging {
        crate::ParamStaging::Fused => 0,
        crate::ParamStaging::Dram => 7 * e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamStaging;

    #[test]
    fn transfer_includes_latency() {
        let d = DramModel {
            elems_per_cycle: 32,
            latency_cycles: 40,
        };
        assert_eq!(d.transfer_cycles(0), 0);
        assert_eq!(d.transfer_cycles(1), 41);
        assert_eq!(d.transfer_cycles(64), 42);
        assert_eq!(d.transfer_cycles(65), 43);
    }

    #[test]
    fn stall_is_saturating() {
        let d = DramModel {
            elems_per_cycle: 32,
            latency_cycles: 0,
        };
        assert_eq!(d.stall_cycles(3200, 50), 50);
        assert_eq!(d.stall_cycles(3200, 1000), 0);
    }

    #[test]
    fn gemm_traffic_reads_each_operand_once() {
        let cfg = ArrayConfig::new(8, 16);
        let t = gemm_traffic_elems(&cfg, 16, 32, 8);
        assert_eq!(t, 16 * 32 + 32 * 8 + 16 * 8);
    }

    #[test]
    fn staging_changes_nonlinear_traffic() {
        let mut cfg = ArrayConfig::default();
        assert_eq!(nonlinear_traffic_elems(&cfg, 100), 0);
        cfg.staging = ParamStaging::Dram;
        assert_eq!(nonlinear_traffic_elems(&cfg, 100), 700);
    }
}
