//! Per-module FPGA cost sheets (paper Table I) and their scaling in the
//! MAC count (paper Fig 9).

use std::ops::{Add, Mul};

/// Which architecture variant a cost refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// The conventional systolic array baseline.
    ClassicSa,
    /// The proposed nonlinear-capable array.
    OneSa,
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::ClassicSa => f.write_str("SA"),
            Design::OneSa => f.write_str("ONE-SA"),
        }
    }
}

/// FPGA resource quadruple: BRAM tiles, LUTs, flip-flops, DSP slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleCost {
    /// Block RAMs.
    pub bram: u64,
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP slices.
    pub dsp: u64,
}

impl ModuleCost {
    /// Convenience constructor.
    pub const fn new(bram: u64, lut: u64, ff: u64, dsp: u64) -> Self {
        ModuleCost { bram, lut, ff, dsp }
    }
}

impl Add for ModuleCost {
    type Output = ModuleCost;
    fn add(self, o: ModuleCost) -> ModuleCost {
        ModuleCost {
            bram: self.bram + o.bram,
            lut: self.lut + o.lut,
            ff: self.ff + o.ff,
            dsp: self.dsp + o.dsp,
        }
    }
}

impl Mul<u64> for ModuleCost {
    type Output = ModuleCost;
    fn mul(self, n: u64) -> ModuleCost {
        ModuleCost {
            bram: self.bram * n,
            lut: self.lut * n,
            ff: self.ff * n,
            dsp: self.dsp * n,
        }
    }
}

// ------- Table I anchors (measured at 16 MACs per PE) -------

/// L3 buffer of the conventional array (Table I row "L3 / SA").
pub(crate) const L3_SA: ModuleCost = ModuleCost::new(0, 174, 566, 0);

/// L3 buffer with the ONE-SA data-addressing modules (Table I row
/// "L3 / ONE-SA"): +2 BRAM (k/b buffers), 4.87× LUTs (replicated lookup
/// lanes), 1.14× FFs (FIFOs and pipeline registers).
pub(crate) const L3_ONESA: ModuleCost = ModuleCost::new(2, 1021, 1209, 0);

// ------- MAC scaling (Fig 9) -------
// The PE splits into a MAC-independent base (registers, control,
// accumulator head) and a per-MAC increment (DSP slice + pipeline
// registers + a little steering logic). Anchored so T = 16 reproduces
// Table I exactly, and so that doubling 16 → 32 MACs raises PE FFs by
// ≈ 34 % — inside the 2.6 %–53.8 % band the paper reports.

const PE_FF_BASE: u64 = 1222;
const PE_FF_PER_MAC: u64 = 40;
const PE_LUT_BASE: u64 = 728;
const PE_LUT_PER_MAC: u64 = 6;
/// Extra FFs of the ONE-SA PE (control logics + MHP path), MAC-independent.
const ONESA_PE_FF_DELTA: u64 = 518;
/// Extra LUTs of the ONE-SA PE.
const ONESA_PE_LUT_DELTA: u64 = 2;

/// Cost of one PE with `macs` MAC units.
///
/// Anchored on Table I at `macs = 16`; BRAM is flat in the MAC count and
/// DSPs scale 1:1, matching Fig 9(c)/(d).
pub fn pe_cost(design: Design, macs: u64) -> ModuleCost {
    let mut c = ModuleCost {
        bram: 1,
        lut: PE_LUT_BASE + PE_LUT_PER_MAC * macs,
        ff: PE_FF_BASE + PE_FF_PER_MAC * macs,
        dsp: macs,
    };
    if design == Design::OneSa {
        c.lut += ONESA_PE_LUT_DELTA;
        c.ff += ONESA_PE_FF_DELTA;
    }
    c
}

/// Cost of one L3 buffer (MAC-independent).
pub fn l3_cost(design: Design) -> ModuleCost {
    match design {
        Design::ClassicSa => L3_SA,
        Design::OneSa => L3_ONESA,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// PE of the conventional array at 16 MACs (Table I row "PE / SA").
    const PE_SA_16: ModuleCost = ModuleCost::new(1, 824, 1862, 16);

    /// ONE-SA PE at 16 MACs (Table I row "PE / ONE-SA"): identical BRAM/DSP,
    /// +2 LUTs, +518 FFs for control logics C1/C2 and the new data path.
    const PE_ONESA_16: ModuleCost = ModuleCost::new(1, 826, 2380, 16);

    #[test]
    fn pe_cost_reproduces_table1_at_16_macs() {
        assert_eq!(pe_cost(Design::ClassicSa, 16), PE_SA_16);
        assert_eq!(pe_cost(Design::OneSa, 16), PE_ONESA_16);
    }

    #[test]
    fn l3_cost_reproduces_table1() {
        assert_eq!(l3_cost(Design::ClassicSa), L3_SA);
        assert_eq!(l3_cost(Design::OneSa), L3_ONESA);
        // The published ratios: 4.87× LUT, ~1.14× FF... (the paper rounds).
        let lut_ratio = L3_ONESA.lut as f64 / L3_SA.lut as f64;
        assert!(
            (lut_ratio - 5.87).abs() < 0.01,
            "1 + 4.87 more, ratio {lut_ratio}"
        );
        let ff_ratio = L3_ONESA.ff as f64 / L3_SA.ff as f64;
        assert!(
            (ff_ratio - 2.14).abs() < 0.01,
            "1 + 1.14 more, ratio {ff_ratio}"
        );
    }

    #[test]
    fn ff_doubling_band_matches_fig9() {
        // Paper: FFs grow 2.6 %–53.8 % when the MAC count doubles.
        for t in [2u64, 4, 8, 16] {
            let before = pe_cost(Design::OneSa, t).ff as f64;
            let after = pe_cost(Design::OneSa, 2 * t).ff as f64;
            let growth = after / before - 1.0;
            assert!(
                (0.026..=0.538).contains(&growth),
                "T {t} → {}: growth {growth}",
                2 * t
            );
        }
    }

    #[test]
    fn dsp_scale_one_to_one_and_bram_flat() {
        for t in [2u64, 8, 32] {
            let c = pe_cost(Design::ClassicSa, t);
            assert_eq!(c.dsp, t);
            assert_eq!(c.bram, 1);
        }
    }

    #[test]
    fn cost_arithmetic() {
        let a = ModuleCost::new(1, 2, 3, 4);
        let b = ModuleCost::new(10, 20, 30, 40);
        assert_eq!(a + b, ModuleCost::new(11, 22, 33, 44));
        assert_eq!(a * 3, ModuleCost::new(3, 6, 9, 12));
    }

    #[test]
    fn display_names() {
        assert_eq!(Design::ClassicSa.to_string(), "SA");
        assert_eq!(Design::OneSa.to_string(), "ONE-SA");
    }
}
