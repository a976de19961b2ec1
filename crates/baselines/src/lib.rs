//! Baseline processor models for the Table IV comparison.
//!
//! The paper compares ONE-SA against general-purpose processors it
//! *measured* (Intel i7-11700, NVIDIA 3090Ti, NVIDIA AGX Orin) and four
//! published fixed-function FPGA accelerators (Angel-eye, a VGG16
//! accelerator on VX690T, NPE, FTRANS). None of that hardware is
//! available here, so each baseline is an **effective-throughput model**:
//! the sustained GOPS per network family and the power envelope are taken
//! from the paper's own Table IV measurements / the accelerators' papers,
//! and latency is `total MACs / sustained throughput`. That keeps the
//! baselines anchored to published data while ONE-SA's own column comes
//! from this repository's simulator — the quantity actually under test.
//!
//! The fixed-function accelerators only support their network family;
//! [`Processor::latency_s`] returns `None` elsewhere, which *is* the
//! flexibility contrast the paper draws.
//!
//! # Example
//!
//! ```
//! use onesa_baselines::{cpu_i7_11700, table4_baselines};
//! use onesa_nn::workloads::ModelFamily;
//!
//! let cpu = cpu_i7_11700();
//! assert!(cpu.power_w > 0.0 && cpu.gops_for(ModelFamily::Cnn).is_some());
//! // Table IV compares seven baseline devices.
//! assert_eq!(table4_baselines().len(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use onesa_nn::workloads::{ModelFamily, Workload};

/// A baseline processor's published characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    /// Device name as it appears in Table IV.
    pub name: &'static str,
    /// Board/package power in watts.
    pub power_w: f64,
    /// Sustained throughput (GOPS, 1 op = 1 MAC) per family; `None`
    /// where the device does not support the family.
    pub(crate) cnn_gops: Option<f64>,
    /// Transformer throughput.
    pub(crate) transformer_gops: Option<f64>,
    /// GNN throughput.
    pub(crate) gnn_gops: Option<f64>,
}

impl Processor {
    /// Sustained throughput for a family.
    pub fn gops_for(&self, family: ModelFamily) -> Option<f64> {
        match family {
            ModelFamily::Cnn => self.cnn_gops,
            ModelFamily::Transformer => self.transformer_gops,
            ModelFamily::Gnn => self.gnn_gops,
        }
    }

    /// Inference latency for a workload in seconds (`None` if the device
    /// cannot run the family).
    pub fn latency_s(&self, w: &Workload) -> Option<f64> {
        let gops = self.gops_for(w.family)?;
        Some(w.total_macs() as f64 / (gops * 1e9))
    }

    /// Throughput per watt for a family (the paper's efficiency metric).
    pub fn gops_per_watt(&self, family: ModelFamily) -> Option<f64> {
        Some(self.gops_for(family)? / self.power_w)
    }
}

/// Intel i7-11700 (Table IV row 1; sustained GOPS as measured by the
/// paper's authors).
pub fn cpu_i7_11700() -> Processor {
    Processor {
        name: "Intel CPU i7-11700",
        power_w: 112.0,
        cnn_gops: Some(93.51),
        transformer_gops: Some(119.77),
        gnn_gops: Some(33.99),
    }
}

/// NVIDIA GeForce RTX 3090 Ti.
pub fn gpu_3090ti() -> Processor {
    Processor {
        name: "NVIDIA GPU 3090Ti",
        power_w: 131.0,
        cnn_gops: Some(633.99),
        transformer_gops: Some(691.81),
        gnn_gops: Some(743.45),
    }
}

/// NVIDIA Jetson AGX Orin.
pub fn soc_agx_orin() -> Processor {
    Processor {
        name: "NVIDIA SoC AGX ORIN",
        power_w: 14.0,
        cnn_gops: Some(245.38),
        transformer_gops: Some(255.57),
        gnn_gops: Some(235.73),
    }
}

/// Angel-eye CNN accelerator on Zynq Z-7020 (Guo et al., TCAD'18).
pub fn angel_eye() -> Processor {
    Processor {
        name: "Zynq Z-7020 Angel-eye",
        power_w: 3.5,
        cnn_gops: Some(84.3),
        transformer_gops: None,
        gnn_gops: None,
    }
}

/// The 200 MHz VGG16 accelerator on Virtex-7 VX690T (Mei et al.,
/// GlobalSIP'17).
pub fn vgg16_accel() -> Processor {
    Processor {
        name: "Virtex7 VGG16",
        power_w: 10.81,
        cnn_gops: Some(202.42),
        transformer_gops: None,
        gnn_gops: None,
    }
}

/// NPE NLP overlay processor on Zynq Z-7100 (Khan et al.).
pub fn npe() -> Processor {
    Processor {
        name: "Zynq Z-7100 NPE",
        power_w: 20.0,
        cnn_gops: None,
        transformer_gops: Some(405.30),
        gnn_gops: None,
    }
}

/// FTRANS transformer accelerator on Virtex UltraScale+ (Li et al.,
/// ISLPED'20).
pub fn ftrans() -> Processor {
    Processor {
        name: "Virtex UltraScale+ FTRANS",
        power_w: 25.0,
        cnn_gops: None,
        transformer_gops: Some(559.85),
        gnn_gops: None,
    }
}

/// All Table IV baseline rows, in the paper's order.
pub fn table4_baselines() -> Vec<Processor> {
    vec![
        cpu_i7_11700(),
        gpu_3090ti(),
        soc_agx_orin(),
        angel_eye(),
        vgg16_accel(),
        npe(),
        ftrans(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_nn::workloads;

    #[test]
    fn cpu_latency_reproduces_paper_resnet_row() {
        // Paper: ResNet-50 on the i7-11700 takes 42.51 ms. Our workload
        // is ~4.0 GMACs at 93.51 GOPS → ≈ 43 ms.
        let cpu = cpu_i7_11700();
        let w = workloads::resnet50(224);
        let l = cpu.latency_s(&w).unwrap() * 1e3;
        assert!((35.0..50.0).contains(&l), "latency {l} ms");
    }

    #[test]
    fn fixed_accelerators_reject_other_families() {
        let bert = workloads::bert_base(64);
        let resnet = workloads::resnet50(224);
        assert!(angel_eye().latency_s(&bert).is_none());
        assert!(npe().latency_s(&resnet).is_none());
        assert!(ftrans().latency_s(&resnet).is_none());
        assert!(vgg16_accel().latency_s(&bert).is_none());
    }

    #[test]
    fn flexibility_flags() {
        // Flexible: the device runs all three families.
        let families = [ModelFamily::Cnn, ModelFamily::Transformer, ModelFamily::Gnn];
        let flexible = |p: Processor| families.iter().all(|&f| p.gops_for(f).is_some());
        assert!(flexible(cpu_i7_11700()));
        assert!(flexible(gpu_3090ti()));
        assert!(!flexible(angel_eye()));
        assert!(!flexible(ftrans()));
    }

    #[test]
    fn efficiency_ordering_matches_paper() {
        // SoC beats GPU beats CPU on throughput-per-watt for CNNs.
        let cpu = cpu_i7_11700().gops_per_watt(ModelFamily::Cnn).unwrap();
        let gpu = gpu_3090ti().gops_per_watt(ModelFamily::Cnn).unwrap();
        let soc = soc_agx_orin().gops_per_watt(ModelFamily::Cnn).unwrap();
        assert!(soc > gpu && gpu > cpu, "soc {soc} gpu {gpu} cpu {cpu}");
    }

    #[test]
    fn all_rows_present() {
        assert_eq!(table4_baselines().len(), 7);
    }
}
