//! Whole-array resource roll-up (paper Table II and Fig 9).
//!
//! A `D × D` array is `D²` PEs, three L3 buffers, `3D` L2 buffers and the
//! interconnect/controller fabric. The PE and L3 sheets come from
//! [`crate::modules`]; the rest — the *overhead* — is not itemized in the
//! paper, so it is pinned by exact quadratic interpolation through the
//! three published SA design points (4×4, 8×8, 16×16 at 16 MACs). The
//! quadratic form is structurally motivated: L2 capacity (and hence its
//! LUT/FF footprint) grows with `D` per buffer × `3D` buffers → `D²`,
//! while the controller grows linearly.
//!
//! The ONE-SA variant then *derives* from the SA baseline by the exact
//! per-module deltas of Table I — which is verifiably how the paper's
//! own Table II was produced (the deltas match to the unit).

use crate::fit::Quadratic;
use crate::modules::{l3_cost, pe_cost, Design, ModuleCost};

/// Published Table II totals used as calibration anchors and regression
/// oracles: `(dim, SA cost, ONE-SA cost)` at 16 MACs per PE.
pub const TABLE2_ANCHORS: [(usize, ModuleCost, ModuleCost); 3] = [
    (
        4,
        ModuleCost::new(470, 67_976, 66_924, 256),
        ModuleCost::new(472, 68_855, 75_855, 256),
    ),
    (
        8,
        ModuleCost::new(822, 179_247, 179_247, 1024),
        ModuleCost::new(824, 180_222, 213_042, 1024),
    ),
    (
        16,
        ModuleCost::new(1366, 730_225, 552_539, 4096),
        ModuleCost::new(1368, 731_584, 685_790, 4096),
    ),
];

/// The array-level resource model.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayResources {
    bram_overhead: Quadratic,
    lut_overhead: Quadratic,
    ff_overhead: Quadratic,
}

impl ArrayResources {
    /// Builds the model calibrated on the published Table II anchors.
    pub fn calibrated() -> Self {
        let overhead = |pick: fn(&ModuleCost) -> u64| -> Quadratic {
            let pts: Vec<(f64, f64)> = TABLE2_ANCHORS
                .iter()
                .map(|(dim, sa, _)| {
                    let pes = pe_cost(Design::ClassicSa, 16) * ((dim * dim) as u64);
                    let l3 = l3_cost(Design::ClassicSa) * 3;
                    let itemized = pick(&(pes + l3));
                    (*dim as f64, (pick(sa) - itemized) as f64)
                })
                .collect();
            Quadratic::through(pts[0], pts[1], pts[2])
        };
        ArrayResources {
            bram_overhead: overhead(|c| c.bram),
            lut_overhead: overhead(|c| c.lut),
            ff_overhead: overhead(|c| c.ff),
        }
    }

    /// Interconnect/L2/controller overhead (beyond PEs and L3s) for a
    /// `dim × dim` array.
    pub(crate) fn overhead(&self, dim: usize) -> ModuleCost {
        let x = dim as f64;
        ModuleCost {
            bram: self.bram_overhead.eval_count(x),
            lut: self.lut_overhead.eval_count(x),
            ff: self.ff_overhead.eval_count(x),
            dsp: 0,
        }
    }

    /// Total resources of a `dim × dim` array with `macs` MACs per PE.
    pub fn total(&self, design: Design, dim: usize, macs: usize) -> ModuleCost {
        let pes = pe_cost(design, macs as u64) * ((dim * dim) as u64);
        let l3 = match design {
            Design::ClassicSa => l3_cost(Design::ClassicSa) * 3,
            // Only the output-side L3 carries the addressing modules; the
            // input/weight L3s are unchanged (Table II shows exactly one
            // L3 delta: +2 BRAM, +847 LUT, +643 FF over the whole array).
            Design::OneSa => l3_cost(Design::OneSa) + l3_cost(Design::ClassicSa) * 2,
        };
        pes + l3 + self.overhead(dim)
    }

    /// Relative ONE-SA overhead versus the SA baseline, per resource,
    /// as a `(bram, lut, ff, dsp)` tuple of ratios.
    pub fn onesa_overhead_ratios(&self, dim: usize, macs: usize) -> (f64, f64, f64, f64) {
        let sa = self.total(Design::ClassicSa, dim, macs);
        let one = self.total(Design::OneSa, dim, macs);
        let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
        (
            ratio(one.bram, sa.bram),
            ratio(one.lut, sa.lut),
            ratio(one.ff, sa.ff),
            ratio(one.dsp, sa.dsp),
        )
    }
}

impl Default for ArrayResources {
    fn default() -> Self {
        ArrayResources::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table2_to_the_unit() {
        let model = ArrayResources::calibrated();
        for (dim, sa, onesa) in TABLE2_ANCHORS {
            assert_eq!(
                model.total(Design::ClassicSa, dim, 16),
                sa,
                "SA {dim}×{dim}"
            );
            assert_eq!(
                model.total(Design::OneSa, dim, 16),
                onesa,
                "ONE-SA {dim}×{dim}"
            );
        }
    }

    #[test]
    fn ff_overhead_band_matches_paper() {
        // Paper abstract: 13.3 %–24.1 % more FFs, <1.5 % everything else.
        let model = ArrayResources::calibrated();
        for dim in [4usize, 8, 16] {
            let (bram, lut, ff, dsp) = model.onesa_overhead_ratios(dim, 16);
            assert!((1.0..1.015).contains(&bram), "{dim}: bram {bram}");
            assert!((1.0..1.015).contains(&lut), "{dim}: lut {lut}");
            assert!((1.12..1.25).contains(&ff), "{dim}: ff {ff}");
            assert!((dsp - 1.0).abs() < 1e-12, "{dim}: dsp {dsp}");
        }
    }

    #[test]
    fn totals_monotone_in_dim_and_macs() {
        let model = ArrayResources::calibrated();
        let dims = [2usize, 4, 8, 16];
        for w in dims.windows(2) {
            let small = model.total(Design::OneSa, w[0], 16);
            let big = model.total(Design::OneSa, w[1], 16);
            assert!(big.lut > small.lut && big.ff > small.ff && big.dsp > small.dsp);
        }
        for t in [2usize, 4, 8, 16] {
            let a = model.total(Design::OneSa, 8, t);
            let b = model.total(Design::OneSa, 8, 2 * t);
            assert!(b.ff > a.ff && b.dsp > a.dsp && b.lut > a.lut);
            assert_eq!(b.bram, a.bram, "BRAM flat in MACs (Fig 9d)");
        }
    }

    #[test]
    fn dsp_equals_pe_times_mac() {
        let model = ArrayResources::calibrated();
        for (dim, macs) in [(4usize, 2usize), (8, 16), (16, 32)] {
            let c = model.total(Design::OneSa, dim, macs);
            assert_eq!(c.dsp, (dim * dim * macs) as u64);
        }
    }

    #[test]
    fn overhead_positive_in_fig9_range() {
        let model = ArrayResources::calibrated();
        for dim in [2usize, 4, 8, 16] {
            let o = model.overhead(dim);
            assert!(o.lut > 0 && o.ff > 0 && o.bram > 0, "{dim}: {o:?}");
        }
    }
}
