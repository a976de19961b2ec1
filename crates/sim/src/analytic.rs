//! Closed-form cycle models of the GEMM, MHP and nonlinear schedules.
//!
//! The single-tile formulas equal the event-driven loops in
//! [`crate::array`] exactly (tested); the multi-tile forms add the
//! steady-state pipelining the hardware gets from double-buffered PE
//! output buffers: while tile *i* drains through the output FIFO, tile
//! *i+1* streams and computes, so the per-tile cost in the middle of a
//! long run is `max(compute, fifo_drain)`.

use crate::dram::{self, DramModel};
use crate::stats::{CycleBreakdown, ExecStats};
use crate::ArrayConfig;

/// Cycle breakdown of a tiled `M×K×N` GEMM.
///
/// Model: initial wavefront skew `2(D−1)`, per-tile compute
/// `⌈K/T⌉`, cross-tile steady state `max(⌈K/T⌉, ⌈D²/W_out⌉)`, final
/// column drain `D` plus FIFO flush, and a DRAM roofline stall if the
/// traffic outruns the schedule.
pub fn gemm_breakdown(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> CycleBreakdown {
    let d = cfg.dim as u64;
    let chunks = (k as u64).div_ceil(cfg.macs_per_pe as u64);
    let tiles = (m as u64).div_ceil(d) * (n as u64).div_ceil(d);
    let fifo = (d * d).div_ceil(cfg.w_out_fifo as u64);
    let steady = chunks.max(fifo);
    let skew = 2 * (d - 1);
    let compute = tiles * chunks;
    // Drain cycles not hidden behind compute: the steady-state excess on
    // the middle tiles plus the full drain of the last tile.
    let drain = (tiles - 1) * (steady - chunks) + d + fifo;
    let mut breakdown = CycleBreakdown {
        skew,
        compute,
        drain,
        ipf: 0,
        dram_stall: 0,
    };
    let dram_model = DramModel::from_config(cfg);
    let traffic = dram::gemm_traffic_elems(cfg, m, k, n);
    breakdown.dram_stall = dram_model.stall_cycles(traffic, breakdown.total());
    breakdown
}

/// Execution statistics of a tiled GEMM (MAC count `M·K·N`).
pub fn gemm_stats(cfg: &ArrayConfig, m: usize, k: usize, n: usize) -> ExecStats {
    let macs = m as u64 * k as u64 * n as u64;
    ExecStats::new(cfg, gemm_breakdown(cfg, m, k, n), macs, 0)
}

/// Cycle breakdown of an `M×N` Matrix Hadamard Product
/// (`Y = X ⊙ K + B`), excluding parameter fetching.
///
/// Row-tiles of `D` rows stream back to back; each costs
/// `⌈N / (T/2)⌉` cycles on the diagonal PEs, and the southbound result
/// lane adds a `D`-cycle tail once at the end.
pub fn mhp_breakdown(cfg: &ArrayConfig, m: usize, n: usize) -> CycleBreakdown {
    let d = cfg.dim as u64;
    let lanes = cfg.mhp_elems_per_pe_per_cycle() as u64;
    let row_tiles = (m as u64).div_ceil(d);
    let pass = (n as u64).div_ceil(lanes);
    CycleBreakdown {
        skew: 0,
        compute: row_tiles * pass,
        drain: d,
        ipf: 0,
        dram_stall: 0,
    }
}

/// Cycle breakdown of a full nonlinear pass over an `M×N` tensor:
/// IPF (pipelined against the MHP; only the pipeline latency and any
/// staging cost are exposed) plus the MHP itself plus the DRAM roofline.
pub(crate) fn nonlinear_breakdown(cfg: &ArrayConfig, m: usize, n: usize) -> CycleBreakdown {
    let e = m as u64 * n as u64;
    let mut breakdown = mhp_breakdown(cfg, m, n);
    breakdown.ipf = cfg.ipf_pipeline_latency as u64 + crate::ipf::staging_cycles(cfg, e);
    let dram_model = DramModel::from_config(cfg);
    let traffic = dram::nonlinear_traffic_elems(cfg, e);
    breakdown.dram_stall = dram_model.stall_cycles(traffic, breakdown.total());
    breakdown
}

/// Execution statistics of a nonlinear pass: `E = M·N` function
/// evaluations, two MACs each.
pub fn nonlinear_stats(cfg: &ArrayConfig, m: usize, n: usize) -> ExecStats {
    let e = m as u64 * n as u64;
    ExecStats::new(cfg, nonlinear_breakdown(cfg, m, n), 2 * e, e)
}

/// Execution statistics of a bare `M×N` MHP pass (no parameter fetch):
/// the scale/center/affine steps of the composite lowerings, two MACs
/// per element (`y = x⊙k + b`).
pub fn mhp_pass_stats(cfg: &ArrayConfig, m: usize, n: usize) -> ExecStats {
    let e = (m * n) as u64;
    ExecStats::new(cfg, mhp_breakdown(cfg, m, n), 2 * e, 0)
}

/// Execution statistics of the paper's row-wise softmax lowering over an
/// `M×N` matrix: `exp` (IPF + MHP) + row-sum GEMM + reciprocal (IPF +
/// MHP on the row vector) + scale MHP.
pub fn softmax_stats(cfg: &ArrayConfig, m: usize, n: usize) -> ExecStats {
    let exp = nonlinear_stats(cfg, m, n);
    let rowsum = gemm_stats(cfg, m, n, 1);
    let recip = nonlinear_stats(cfg, m, 1);
    let scale = mhp_pass_stats(cfg, m, n);
    exp.merged(&rowsum).merged(&recip).merged(&scale)
}

/// Execution statistics of the paper's row-wise normalization lowering
/// over an `M×N` matrix: mean GEMM + center MHP + square MHP + variance
/// GEMM + rsqrt (IPF + MHP) + affine MHP.
pub fn norm_stats(cfg: &ArrayConfig, m: usize, n: usize) -> ExecStats {
    let mean = gemm_stats(cfg, m, n, 1);
    let center = mhp_pass_stats(cfg, m, n);
    let square = mhp_pass_stats(cfg, m, n);
    let var = gemm_stats(cfg, m, n, 1);
    let rsqrt = nonlinear_stats(cfg, m, 1);
    let affine = mhp_pass_stats(cfg, m, n);
    mean.merged(&center)
        .merged(&square)
        .merged(&var)
        .merged(&rsqrt)
        .merged(&affine)
}

/// GOPS of a square `dims³` GEMM — the quantity plotted in Fig 8(a).
pub fn linear_gops(cfg: &ArrayConfig, dims: usize) -> f64 {
    gemm_stats(cfg, dims, dims, dims).gops()
}

/// GNFS of a `dims²` nonlinear pass — the quantity plotted in Fig 8(b).
pub fn nonlinear_gnfs(cfg: &ArrayConfig, dims: usize) -> f64 {
    nonlinear_stats(cfg, dims, dims).gnfs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::SystolicArray;
    use crate::ParamStaging;
    use onesa_tensor::rng::Pcg32;

    #[test]
    fn single_tile_matches_event_sim() {
        for (d, t, k) in [(4usize, 4usize, 8usize), (4, 2, 7), (8, 16, 32), (3, 1, 5)] {
            let cfg = ArrayConfig::new(d, t);
            let mut arr = SystolicArray::new(cfg.clone());
            let mut rng = Pcg32::seed_from_u64(1);
            let a = rng.randn(&[d, k], 1.0);
            let b = rng.randn(&[k, d], 1.0);
            let run = arr.gemm_tile(&a, &b).unwrap();
            let analytic = gemm_breakdown(&cfg, d, k, d);
            assert_eq!(run.breakdown.skew, analytic.skew, "d={d} t={t} k={k}");
            assert_eq!(run.breakdown.compute, analytic.compute);
            assert_eq!(run.breakdown.drain, analytic.drain);
        }
    }

    #[test]
    fn single_row_tile_mhp_matches_event_sim() {
        for (d, t, n) in [(4usize, 8usize, 16usize), (4, 4, 13), (8, 2, 9), (2, 1, 3)] {
            let cfg = ArrayConfig::new(d, t);
            let mut arr = SystolicArray::new(cfg.clone());
            let mut rng = Pcg32::seed_from_u64(2);
            let x = rng.randn(&[d, n], 1.0);
            let k = rng.randn(&[d, n], 1.0);
            let b = rng.randn(&[d, n], 1.0);
            let run = arr.mhp_row_tile(&x, &k, &b).unwrap();
            let analytic = mhp_breakdown(&cfg, d, n);
            assert_eq!(run.breakdown.compute, analytic.compute, "d={d} t={t} n={n}");
            assert_eq!(run.breakdown.drain, analytic.drain);
        }
    }

    #[test]
    fn throughput_cliff_small_matrix_on_large_array() {
        // The paper: a 32×32 input on 16×16 PEs spends ~84.8 % of cycles
        // transmitting results. Our model lands in the same regime.
        let cfg = ArrayConfig::new(16, 16);
        let b = gemm_breakdown(&cfg, 32, 32, 32);
        let f = b.drain as f64 / b.total() as f64;
        assert!(
            (0.70..0.95).contains(&f),
            "drain fraction {f} out of the cliff regime; breakdown {b:?}"
        );
    }

    #[test]
    fn large_matrices_approach_peak() {
        let cfg = ArrayConfig::new(8, 16);
        let stats = gemm_stats(&cfg, 512, 512, 512);
        let util = stats.utilization(&cfg);
        assert!(util > 0.7, "utilization {util}");
        assert!(stats.gops() <= cfg.peak_gops());
    }

    #[test]
    fn gops_monotone_in_dims() {
        let cfg = ArrayConfig::new(8, 16);
        let g32 = linear_gops(&cfg, 32);
        let g128 = linear_gops(&cfg, 128);
        let g512 = linear_gops(&cfg, 512);
        assert!(g32 < g128 && g128 < g512, "{g32} {g128} {g512}");
    }

    #[test]
    fn gnfs_scales_with_macs_and_pes() {
        let big = ArrayConfig::new(16, 16);
        let fewer_macs = ArrayConfig::new(16, 4);
        let fewer_pes = ArrayConfig::new(4, 16);
        let n = 512;
        let g = nonlinear_gnfs(&big, n);
        assert!(g > nonlinear_gnfs(&fewer_macs, n), "MAC scaling");
        assert!(g > nonlinear_gnfs(&fewer_pes, n), "PE scaling");
        assert!(g <= big.peak_gnfs() + 1e-9);
    }

    #[test]
    fn dram_staging_slows_nonlinear() {
        let fused = ArrayConfig::default();
        let dram = ArrayConfig {
            staging: ParamStaging::Dram,
            ..ArrayConfig::default()
        };
        let f = nonlinear_stats(&fused, 128, 128);
        let d = nonlinear_stats(&dram, 128, 128);
        assert!(d.cycles() > f.cycles(), "{} !> {}", d.cycles(), f.cycles());
    }

    #[test]
    fn roofline_binds_for_tiny_compute_huge_traffic() {
        // A skinny GEMM (large K, tiny M·N) is traffic-dominated.
        let mut cfg = ArrayConfig::new(8, 16);
        cfg.w_dram = 1;
        let b = gemm_breakdown(&cfg, 8, 4096, 8);
        assert!(b.dram_stall > 0, "{b:?}");
    }

    #[test]
    fn nonlinear_evals_counted() {
        let cfg = ArrayConfig::default();
        let stats = nonlinear_stats(&cfg, 64, 64);
        assert_eq!(stats.nonlinear_evals, 64 * 64);
        assert_eq!(stats.macs, 2 * 64 * 64);
    }
}
