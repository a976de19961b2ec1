//! XPE-style power model.
//!
//! The paper reports power from the Xilinx Power Estimator. XPE sums a
//! device static term with per-resource dynamic terms (count × toggle ×
//! per-unit coefficient at the design clock). This model does the same at
//! 200 MHz, with coefficients calibrated so the paper's design point —
//! the 64-PE, 16-MAC ONE-SA of Table IV — dissipates the published
//! 7.61 W.

use crate::modules::ModuleCost;

/// Per-resource dynamic power coefficients (watts per unit at 200 MHz and
/// the calibrated toggle activity) plus device static power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Device static power (W) — Virtex-7 class.
    pub static_w: f64,
    /// Watts per active DSP slice.
    pub(crate) dsp_w: f64,
    /// Watts per BRAM tile.
    pub(crate) bram_w: f64,
    /// Watts per LUT.
    pub(crate) lut_w: f64,
    /// Watts per flip-flop.
    pub(crate) ff_w: f64,
}

impl PowerModel {
    /// The calibrated Virtex-7 model (see module docs).
    pub fn virtex7() -> Self {
        PowerModel {
            static_w: 0.25,
            dsp_w: 2.96e-3,
            bram_w: 1.6146e-3,
            lut_w: 1.3455e-5,
            ff_w: 2.691e-6,
        }
    }

    /// Total power of a design occupying `cost` resources, at full
    /// activity.
    pub fn power_watts(&self, cost: &ModuleCost) -> f64 {
        self.static_w
            + self.dsp_w * cost.dsp as f64
            + self.bram_w * cost.bram as f64
            + self.lut_w * cost.lut as f64
            + self.ff_w * cost.ff as f64
    }

    /// Power with a utilization-dependent dynamic fraction: idle logic
    /// still burns static power and a residual clock-tree share.
    pub fn power_at_utilization(&self, cost: &ModuleCost, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let dynamic = self.power_watts(cost) - self.static_w;
        // XPE attributes ~20 % of dynamic power to clocking, which does
        // not gate with utilization.
        self.static_w + dynamic * (0.2 + 0.8 * u)
    }

    /// Energy in joules for a run of `seconds` at `utilization`.
    pub fn energy_joules(&self, cost: &ModuleCost, seconds: f64, utilization: f64) -> f64 {
        self.power_at_utilization(cost, utilization) * seconds
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::virtex7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayResources;
    use crate::Design;

    #[test]
    fn calibrated_to_paper_design_point() {
        // Table IV: ONE-SA (64 PEs, 16 MACs) at 7.61 W.
        let model = PowerModel::virtex7();
        let resources = ArrayResources::calibrated();
        let cost = resources.total(Design::OneSa, 8, 16);
        let p = model.power_watts(&cost);
        assert!((p - 7.61).abs() < 0.05, "calibration drifted: {p} W");
    }

    #[test]
    fn power_monotone_in_resources() {
        let model = PowerModel::virtex7();
        let small = ModuleCost::new(10, 1000, 2000, 16);
        let big = ModuleCost::new(20, 2000, 4000, 32);
        assert!(model.power_watts(&big) > model.power_watts(&small));
    }

    #[test]
    fn utilization_scales_dynamic_only() {
        let model = PowerModel::virtex7();
        let cost = ModuleCost::new(100, 10_000, 20_000, 256);
        let full = model.power_at_utilization(&cost, 1.0);
        let idle = model.power_at_utilization(&cost, 0.0);
        assert!((full - model.power_watts(&cost)).abs() < 1e-12);
        assert!(idle > model.static_w, "clock tree still burns");
        assert!(idle < full);
    }

    #[test]
    fn energy_is_power_times_time() {
        let model = PowerModel::virtex7();
        let cost = ModuleCost::new(1, 1, 1, 1);
        let p = model.power_at_utilization(&cost, 0.5);
        assert!((model.energy_joules(&cost, 2.0, 0.5) - 2.0 * p).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamped() {
        let model = PowerModel::virtex7();
        let cost = ModuleCost::new(1, 100, 100, 4);
        assert_eq!(
            model.power_at_utilization(&cost, 2.0),
            model.power_at_utilization(&cost, 1.0)
        );
        assert_eq!(
            model.power_at_utilization(&cost, -1.0),
            model.power_at_utilization(&cost, 0.0)
        );
    }
}
