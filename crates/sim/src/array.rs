//! Event-driven (per-cycle) execution of GEMM tiles and MHP row-tiles on
//! the PE grid.
//!
//! These paths move real values through explicit PE registers so that the
//! dataflow itself is validated: the GEMM tile result must equal the
//! reference `matmul`, the MHP row-tile result must equal the reference
//! `X ⊙ K + B`. Cycle counts from these loops anchor the closed forms in
//! [`crate::analytic`] (tested for exact equality).

use crate::pe::{Chunk, PairChunk, Pe, PeMode};
use crate::stats::CycleBreakdown;
use crate::ArrayConfig;
use onesa_tensor::{Result, Tensor, TensorError};

/// The PE grid plus its configuration.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    cfg: ArrayConfig,
    grid: Vec<Pe>,
}

/// Result of running one tile on the event-driven array.
#[derive(Debug, Clone)]
pub struct TileRun {
    /// The computed tile.
    pub output: Tensor,
    /// Cycle accounting for this tile.
    pub breakdown: CycleBreakdown,
    /// MACs performed.
    pub macs: u64,
}

impl SystolicArray {
    /// Builds an array in GEMM mode.
    pub fn new(cfg: ArrayConfig) -> Self {
        let grid = vec![Pe::new(PeMode::Gemm); cfg.dim * cfg.dim];
        SystolicArray { cfg, grid }
    }

    fn reconfigure(&mut self, f: impl Fn(usize, usize) -> PeMode) {
        let d = self.cfg.dim;
        for i in 0..d {
            for j in 0..d {
                self.grid[i * d + j].set_mode(f(i, j));
            }
        }
    }

    /// Runs one output-stationary GEMM tile: `A (D×K) · B (K×N_t)` with
    /// `N_t ≤ D`. Feeds skewed `T`-wide K-chunks, accumulates in the PEs,
    /// then drains the accumulators through the per-column chains and the
    /// output FIFO.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `a`/`b` are not matrices with matching
    /// inner dimension or exceed the grid.
    pub fn gemm_tile(&mut self, a: &Tensor, b: &Tensor) -> Result<TileRun> {
        let d = self.cfg.dim;
        let t = self.cfg.macs_per_pe;
        let (m, k) = a.shape().as_matrix()?;
        let (k2, n) = b.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
                op: "gemm_tile",
            });
        }
        if m > d || n > d {
            return Err(TensorError::IndexOutOfBounds {
                index: m.max(n),
                bound: d,
            });
        }
        self.reconfigure(|_, _| PeMode::Gemm);
        for pe in &mut self.grid {
            pe.clear_acc();
        }

        let chunks = k.div_ceil(t);
        let feed_cycles = chunks + 2 * (d - 1);
        let mut macs = 0u64;

        let chunk_of_a = |row: usize, c: usize| -> Chunk {
            let lo = c * t;
            let hi = ((c + 1) * t).min(k);
            a.row(row).expect("row bound checked")[lo..hi].to_vec()
        };
        let chunk_of_b = |col: usize, c: usize| -> Chunk {
            let lo = c * t;
            let hi = ((c + 1) * t).min(k);
            (lo..hi)
                .map(|p| b.at(&[p, col]).expect("bounds checked"))
                .collect()
        };

        for cycle in 0..feed_cycles {
            // Wires are combinational within a cycle: iterating in raster
            // order guarantees west/north neighbours have already stepped,
            // so their register outputs (latched last cycle) are on the
            // wires when this PE latches — one cycle per hop.
            let mut east: Vec<Option<Chunk>> = vec![None; d * d];
            let mut south: Vec<Option<Chunk>> = vec![None; d * d];
            for i in 0..d {
                for j in 0..d {
                    let a_in = if j == 0 {
                        // Row i's stream is skewed by i cycles.
                        if i <= cycle && cycle - i < chunks && i < m {
                            Some(chunk_of_a(i, cycle - i))
                        } else {
                            None
                        }
                    } else {
                        east[i * d + (j - 1)].take()
                    };
                    let b_in = if i == 0 {
                        if j <= cycle && cycle - j < chunks && j < n {
                            Some(chunk_of_b(j, cycle - j))
                        } else {
                            None
                        }
                    } else {
                        south[(i - 1) * d + j].take()
                    };
                    let (e, s, done) = self.grid[i * d + j].step_gemm(a_in, b_in);
                    east[i * d + j] = e;
                    south[i * d + j] = s;
                    macs += done;
                }
            }
        }

        // Drain: accumulators shift down each column (1 element per
        // column per cycle → D cycles), then leave through the output
        // FIFO at `w_out_fifo` elements per cycle.
        let mut output = Tensor::zeros(&[m.max(1), n.max(1)]);
        let dst = output.as_mut_slice();
        for i in 0..m {
            for j in 0..n {
                dst[i * n + j] = self.grid[i * d + j].acc();
            }
        }
        let col_drain = d as u64;
        let fifo_drain = ((d * d) as u64).div_ceil(self.cfg.w_out_fifo as u64);

        Ok(TileRun {
            output,
            breakdown: CycleBreakdown {
                skew: 2 * (d as u64 - 1),
                compute: chunks as u64,
                drain: col_drain + fifo_drain,
                ipf: 0,
                dram_stall: 0,
            },
            macs,
        })
    }

    /// Runs one MHP row-tile: up to `D` rows of `X`, `K`, `B` (all
    /// `R × N`). Row `i` is routed through transmission PEs to diagonal
    /// PE `(i, i)` as an `(x, 1)` pair stream from the west and a
    /// `(k, b)` pair stream from the north; results travel south through
    /// the transmission PEs below the diagonal.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the operands disagree or have more than
    /// `D` rows.
    pub fn mhp_row_tile(&mut self, x: &Tensor, km: &Tensor, bm: &Tensor) -> Result<TileRun> {
        let d = self.cfg.dim;
        let lanes = self.cfg.mhp_elems_per_pe_per_cycle();
        let (r, n) = x.shape().as_matrix()?;
        if x.shape() != km.shape() || x.shape() != bm.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: x.dims().to_vec(),
                rhs: km.dims().to_vec(),
                op: "mhp_row_tile",
            });
        }
        if r > d {
            return Err(TensorError::IndexOutOfBounds { index: r, bound: d });
        }
        self.reconfigure(|i, j| {
            if i == j {
                PeMode::MhpCompute
            } else {
                PeMode::MhpTransmit
            }
        });

        let chunks = n.div_ceil(lanes);
        // Last chunk enters row r−1 at cycle `chunks-1`, reaches diagonal
        // PE (r−1, r−1) after r−1 hops, and its result exits the south
        // edge after d−r more hops plus the emit cycle: chunks + d total.
        let cycles = chunks + d;
        let mut macs = 0u64;

        let mut collected: Vec<Vec<f32>> = vec![Vec::new(); d];

        let x_chunk = |row: usize, c: usize| -> PairChunk {
            let lo = c * lanes;
            let hi = ((c + 1) * lanes).min(n);
            x.row(row).expect("bounds checked")[lo..hi]
                .iter()
                .map(|&v| (v, 1.0))
                .collect()
        };
        let kb_chunk = |row: usize, c: usize| -> PairChunk {
            let lo = c * lanes;
            let hi = ((c + 1) * lanes).min(n);
            km.row(row).expect("bounds checked")[lo..hi]
                .iter()
                .zip(&bm.row(row).expect("bounds checked")[lo..hi])
                .map(|(&kv, &bv)| (kv, bv))
                .collect()
        };

        for cycle in 0..cycles {
            // Same-cycle combinational wires (see `gemm_tile`).
            let mut x_wire: Vec<Option<PairChunk>> = vec![None; d * d];
            let mut kb_wire: Vec<Option<PairChunk>> = vec![None; d * d];
            let mut y_wire: Vec<Option<Chunk>> = vec![None; d * d];
            for i in 0..d {
                for j in 0..d {
                    let x_in = if j == 0 {
                        if cycle < chunks && i < r {
                            Some(x_chunk(i, cycle))
                        } else {
                            None
                        }
                    } else {
                        x_wire[i * d + (j - 1)].take()
                    };
                    let kb_in = if i == 0 {
                        if cycle < chunks && j < r {
                            Some(kb_chunk(j, cycle))
                        } else {
                            None
                        }
                    } else {
                        kb_wire[(i - 1) * d + j].take()
                    };
                    let y_in = if i == 0 {
                        None
                    } else {
                        y_wire[(i - 1) * d + j].take()
                    };
                    let (xe, kbs, ys, done) = self.grid[i * d + j].step_mhp(x_in, kb_in, y_in);
                    x_wire[i * d + j] = xe;
                    kb_wire[i * d + j] = kbs;
                    if i == d - 1 {
                        if let Some(y) = ys {
                            collected[j].extend_from_slice(&y);
                        }
                    } else {
                        y_wire[i * d + j] = ys;
                    }
                    macs += done;
                }
            }
        }

        let mut output = Tensor::zeros(&[r.max(1), n.max(1)]);
        let rows = output.as_mut_slice().chunks_mut(n.max(1));
        for (col, (row, vals)) in rows.zip(&collected).enumerate().take(r) {
            debug_assert_eq!(vals.len(), n, "column {col} drained {} of {n}", vals.len());
            row[..vals.len()].copy_from_slice(vals);
        }

        Ok(TileRun {
            output,
            breakdown: CycleBreakdown {
                skew: 0,
                compute: chunks as u64,
                drain: d as u64,
                ipf: 0,
                dram_stall: 0,
            },
            macs,
        })
    }

    /// Functionally executes a full GEMM by tiling through the
    /// event-driven path (slow; used by the validation tests). Cycle
    /// accounting is the per-tile sum — the pipelined closed form lives
    /// in [`crate::analytic`].
    ///
    /// # Errors
    ///
    /// Shape errors as in [`onesa_tensor::gemm::matmul`].
    pub fn gemm_full(&mut self, a: &Tensor, b: &Tensor) -> Result<TileRun> {
        let d = self.cfg.dim;
        let (m, k) = a.shape().as_matrix()?;
        let (k2, n) = b.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                lhs: a.dims().to_vec(),
                rhs: b.dims().to_vec(),
                op: "gemm_full",
            });
        }
        let mut out = Tensor::zeros(&[m, n]);
        let mut breakdown = CycleBreakdown::default();
        let mut macs = 0u64;
        let mut r0 = 0;
        while r0 < m {
            let h = d.min(m - r0);
            let mut c0 = 0;
            while c0 < n {
                let w = d.min(n - c0);
                let a_tile = a.tile_padded(r0, 0, h, k)?;
                let b_tile = b.tile_padded(0, c0, k, w)?;
                let run = self.gemm_tile(&a_tile, &b_tile)?;
                out.tile_write(r0, c0, &run.output)?;
                breakdown = breakdown.merged(&run.breakdown);
                macs += run.macs;
                c0 += d;
            }
            r0 += d;
        }
        Ok(TileRun {
            output: out,
            breakdown,
            macs,
        })
    }

    /// Functionally executes a full MHP by row-tiling through the
    /// event-driven path (slow; used by the validation tests).
    ///
    /// # Errors
    ///
    /// Shape errors as in [`onesa_tensor::gemm::mhp`].
    pub fn mhp_full(&mut self, x: &Tensor, km: &Tensor, bm: &Tensor) -> Result<TileRun> {
        let d = self.cfg.dim;
        let (m, n) = x.shape().as_matrix()?;
        let mut out = Tensor::zeros(&[m, n]);
        let mut breakdown = CycleBreakdown::default();
        let mut macs = 0u64;
        let mut r0 = 0;
        while r0 < m {
            let h = d.min(m - r0);
            let xt = x.tile_padded(r0, 0, h, n)?;
            let kt = km.tile_padded(r0, 0, h, n)?;
            let bt = bm.tile_padded(r0, 0, h, n)?;
            let run = self.mhp_row_tile(&xt, &kt, &bt)?;
            out.tile_write(r0, 0, &run.output)?;
            breakdown = breakdown.merged(&run.breakdown);
            macs += run.macs;
            r0 += d;
        }
        Ok(TileRun {
            output: out,
            breakdown,
            macs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_tensor::gemm;
    use onesa_tensor::rng::Pcg32;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_tile_matches_reference() {
        let cfg = ArrayConfig::new(4, 4);
        let mut arr = SystolicArray::new(cfg);
        let mut rng = Pcg32::seed_from_u64(1);
        let a = rng.randn(&[4, 10], 1.0);
        let b = rng.randn(&[10, 4], 1.0);
        let run = arr.gemm_tile(&a, &b).unwrap();
        assert_close(&run.output, &gemm::matmul(&a, &b).unwrap(), 1e-4);
        assert_eq!(run.macs, 4 * 4 * 10);
    }

    #[test]
    fn gemm_tile_partial_dims() {
        let cfg = ArrayConfig::new(4, 2);
        let mut arr = SystolicArray::new(cfg);
        let mut rng = Pcg32::seed_from_u64(2);
        let a = rng.randn(&[3, 5], 1.0);
        let b = rng.randn(&[5, 2], 1.0);
        let run = arr.gemm_tile(&a, &b).unwrap();
        assert_close(&run.output, &gemm::matmul(&a, &b).unwrap(), 1e-4);
    }

    #[test]
    fn gemm_tile_cycle_model() {
        let cfg = ArrayConfig::new(4, 4); // w_out_fifo = 4
        let mut arr = SystolicArray::new(cfg);
        let a = Tensor::ones(&[4, 8]);
        let b = Tensor::ones(&[8, 4]);
        let run = arr.gemm_tile(&a, &b).unwrap();
        // chunks = 2, skew = 6, col drain = 4, fifo = 16/4 = 4.
        assert_eq!(run.breakdown.skew, 6);
        assert_eq!(run.breakdown.compute, 2);
        assert_eq!(run.breakdown.drain, 8);
    }

    #[test]
    fn gemm_full_matches_reference() {
        let cfg = ArrayConfig::new(4, 4);
        let mut arr = SystolicArray::new(cfg);
        let mut rng = Pcg32::seed_from_u64(3);
        let a = rng.randn(&[9, 7], 1.0);
        let b = rng.randn(&[7, 10], 1.0);
        let run = arr.gemm_full(&a, &b).unwrap();
        assert_close(&run.output, &gemm::matmul(&a, &b).unwrap(), 1e-4);
    }

    #[test]
    fn mhp_row_tile_matches_reference() {
        let cfg = ArrayConfig::new(4, 8);
        let mut arr = SystolicArray::new(cfg);
        let mut rng = Pcg32::seed_from_u64(4);
        let x = rng.randn(&[4, 13], 1.0);
        let k = rng.randn(&[4, 13], 1.0);
        let b = rng.randn(&[4, 13], 1.0);
        let run = arr.mhp_row_tile(&x, &k, &b).unwrap();
        assert_close(&run.output, &gemm::mhp(&x, &k, &b).unwrap(), 1e-5);
        // Two MACs per element, only diagonal PEs count.
        assert_eq!(run.macs, 2 * 4 * 13);
    }

    #[test]
    fn mhp_cycle_model() {
        let cfg = ArrayConfig::new(4, 8); // lanes = 4
        let mut arr = SystolicArray::new(cfg);
        let x = Tensor::ones(&[4, 16]);
        let k = Tensor::ones(&[4, 16]);
        let b = Tensor::ones(&[4, 16]);
        let run = arr.mhp_row_tile(&x, &k, &b).unwrap();
        // chunks = 16/4 = 4; drain = D = 4.
        assert_eq!(run.breakdown.compute, 4);
        assert_eq!(run.breakdown.drain, 4);
        assert_eq!(run.breakdown.skew, 0);
    }

    #[test]
    fn mhp_full_matches_reference() {
        let cfg = ArrayConfig::new(4, 4);
        let mut arr = SystolicArray::new(cfg);
        let mut rng = Pcg32::seed_from_u64(5);
        let x = rng.randn(&[11, 6], 2.0);
        let k = rng.randn(&[11, 6], 1.0);
        let b = rng.randn(&[11, 6], 1.0);
        let run = arr.mhp_full(&x, &k, &b).unwrap();
        assert_close(&run.output, &gemm::mhp(&x, &k, &b).unwrap(), 1e-5);
    }

    #[test]
    fn mhp_with_single_mac_pe() {
        // T = 1 → one pair lane (elements processed one at a time).
        let cfg = ArrayConfig::new(3, 1);
        let mut arr = SystolicArray::new(cfg);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let k = Tensor::from_vec(vec![2.0, 2.0, 2.0], &[1, 3]).unwrap();
        let b = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[1, 3]).unwrap();
        let run = arr.mhp_row_tile(&x, &k, &b).unwrap();
        assert_eq!(run.output.as_slice(), &[2.0, 5.0, 5.0]);
    }

    #[test]
    fn shape_validation() {
        let cfg = ArrayConfig::new(4, 4);
        let mut arr = SystolicArray::new(cfg);
        let a = Tensor::zeros(&[5, 4]); // too many rows for the grid
        let b = Tensor::zeros(&[4, 4]);
        assert!(arr.gemm_tile(&a, &b).is_err());
        let a = Tensor::zeros(&[4, 3]);
        assert!(arr.gemm_tile(&a, &b).is_err()); // inner mismatch
        let x = Tensor::zeros(&[4, 4]);
        let k = Tensor::zeros(&[4, 5]);
        assert!(arr.mhp_row_tile(&x, &k, &x).is_err());
    }

    #[test]
    fn mac_counters_accumulate_across_runs() {
        let cfg = ArrayConfig::new(2, 2);
        let mut arr = SystolicArray::new(cfg);
        let a = Tensor::ones(&[2, 4]);
        let b = Tensor::ones(&[4, 2]);
        let first = arr.gemm_tile(&a, &b).unwrap().macs;
        let second = arr.gemm_tile(&a, &b).unwrap().macs;
        assert_eq!((first, second), (2 * 2 * 4, 2 * 2 * 4));
    }
}
