//! Array configuration: grid geometry, MAC vector width, clock, bus
//! widths and the buffer hierarchy of the paper's Table V.

/// Where CPWL intermediate parameters are staged between IPF and MHP.
///
/// The paper's §IV-A writes `K`/`B` to DRAM "like the conventional output
/// C" and reads them back for the MHP. Modelled faithfully that round
/// trip caps nonlinear throughput at the DRAM bandwidth, which
/// contradicts the scaling the paper's own Fig 8(b) reports; the
/// reproduction therefore defaults to [`ParamStaging::Fused`], where the
/// replicated k/b tables feed the MHP directly from L3 (see DESIGN.md,
/// "reproduction notes"). [`ParamStaging::Dram`] keeps the literal
/// behaviour for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParamStaging {
    /// IPF output is consumed by the MHP through on-chip buffers; the IPF
    /// lookup pipeline overlaps the MHP pass completely.
    #[default]
    Fused,
    /// IPF output round-trips through DRAM exactly as §IV-A describes.
    Dram,
}

/// Capacities of the buffer hierarchy, in bytes per instance
/// (paper Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSizes {
    /// One L3 buffer (three instances: input, weight, output).
    pub l3_bytes: usize,
    /// One L2 buffer (three rows of `dim` instances).
    pub l2_bytes: usize,
    /// One PE output buffer (`dim²` instances).
    pub pe_out_bytes: usize,
    /// One L1 buffer (`dim²` instances).
    pub l1_bytes: usize,
}

impl BufferSizes {
    /// The paper's Table V sizes (reported for the 8×8, 16-MAC design).
    pub fn paper_default() -> Self {
        BufferSizes {
            l3_bytes: 287,    // 0.28 KB
            l2_bytes: 512,    // 0.5 KB
            pe_out_bytes: 96, // 0.094 KB
            l1_bytes: 32,     // 0.031 KB
        }
    }

    /// Total on-chip buffer bytes for a `dim × dim` array.
    pub fn total_bytes(&self, dim: usize) -> usize {
        3 * self.l3_bytes
            + 3 * dim * self.l2_bytes
            + dim * dim * (self.pe_out_bytes + self.l1_bytes)
    }
}

impl Default for BufferSizes {
    fn default() -> Self {
        BufferSizes::paper_default()
    }
}

/// Full configuration of one ONE-SA instance.
///
/// The default reproduces the paper's headline design point: 8×8 PEs
/// (64), 16 MACs per PE, 200 MHz, Table V buffers.
///
/// # Example
///
/// ```
/// use onesa_sim::ArrayConfig;
///
/// let cfg = ArrayConfig::new(16, 16); // 16×16 PEs à 16 MACs
/// assert_eq!(cfg.peak_macs_per_cycle(), 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayConfig {
    /// Array dimension `D` (the grid is `D × D`).
    pub dim: usize,
    /// MAC units per PE (`T`).
    pub macs_per_pe: usize,
    /// Clock frequency in MHz (the paper's HLS designs close timing at
    /// 200 MHz on Virtex-7).
    pub clock_mhz: f64,
    /// Output-FIFO width toward DRAM, in INT16 elements per cycle
    /// (default 4 = a 64-bit bus).
    pub w_out_fifo: usize,
    /// DRAM channel width in elements per cycle (default 32 = 64-byte
    /// interface, DDR3-class at 200 MHz).
    pub w_dram: usize,
    /// Pipeline latency of the L3 data-addressing path
    /// (shift → scale → lookup), in cycles.
    pub ipf_pipeline_latency: usize,
    /// Parameter staging policy between IPF and MHP.
    pub staging: ParamStaging,
    /// Buffer capacities (Table V).
    pub buffers: BufferSizes,
}

impl ArrayConfig {
    /// Creates a configuration with the given grid dimension and MACs per
    /// PE, keeping every other knob at the paper defaults.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `macs_per_pe` is zero.
    pub fn new(dim: usize, macs_per_pe: usize) -> Self {
        assert!(dim > 0, "array dimension must be positive");
        assert!(macs_per_pe > 0, "MAC count must be positive");
        ArrayConfig {
            dim,
            macs_per_pe,
            clock_mhz: 200.0,
            w_out_fifo: 4,
            w_dram: 32,
            ipf_pipeline_latency: 8,
            staging: ParamStaging::Fused,
            buffers: BufferSizes::paper_default(),
        }
    }

    /// Number of PEs (`D²`).
    pub(crate) fn pe_count(&self) -> usize {
        self.dim * self.dim
    }

    /// Peak MAC throughput per cycle (`D² · T`).
    pub fn peak_macs_per_cycle(&self) -> usize {
        self.pe_count() * self.macs_per_pe
    }

    /// Peak GOPS (one op = one multiply-accumulate, per the paper's
    /// definition).
    pub fn peak_gops(&self) -> f64 {
        self.peak_macs_per_cycle() as f64 * self.clock_mhz * 1e6 / 1e9
    }

    /// Elements each diagonal PE consumes per cycle during MHP: every
    /// element needs two MACs (`x·k` and `1·b`), so `T/2` (min 1).
    pub(crate) fn mhp_elems_per_pe_per_cycle(&self) -> usize {
        (self.macs_per_pe / 2).max(1)
    }

    /// Peak nonlinear evaluations per second (diagonal PEs only).
    pub fn peak_gnfs(&self) -> f64 {
        (self.dim * self.mhp_elems_per_pe_per_cycle()) as f64 * self.clock_mhz * 1e6 / 1e9
    }
}

impl Default for ArrayConfig {
    /// The paper's evaluation design point: 64 PEs, 16 MACs each.
    fn default() -> Self {
        ArrayConfig::new(8, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let cfg = ArrayConfig::default();
        assert_eq!(cfg.dim, 8);
        assert_eq!(cfg.macs_per_pe, 16);
        assert_eq!(cfg.pe_count(), 64);
        assert_eq!(cfg.clock_mhz, 200.0);
    }

    #[test]
    fn peak_rates() {
        let cfg = ArrayConfig::new(16, 16);
        assert_eq!(cfg.peak_macs_per_cycle(), 4096);
        assert!((cfg.peak_gops() - 819.2).abs() < 0.1);
        assert_eq!(cfg.mhp_elems_per_pe_per_cycle(), 8);
        assert!((cfg.peak_gnfs() - 16.0 * 8.0 * 0.2).abs() < 1e-9);
    }

    #[test]
    fn small_mac_counts_clamp_mhp_rate() {
        let cfg = ArrayConfig::new(4, 1);
        assert_eq!(cfg.mhp_elems_per_pe_per_cycle(), 1);
    }

    #[test]
    fn buffer_totals() {
        let b = BufferSizes::paper_default();
        // 8×8: 3 L3 + 24 L2 + 64 PE-out + 64 L1 (Table V).
        let total = b.total_bytes(8);
        let expect = 3 * 287 + 24 * 512 + 64 * (96 + 32);
        assert_eq!(total, expect);
    }

    #[test]
    #[should_panic]
    fn zero_dim_panics() {
        let _ = ArrayConfig::new(0, 16);
    }

    #[test]
    #[should_panic]
    fn zero_macs_panics() {
        let _ = ArrayConfig::new(8, 0);
    }
}
