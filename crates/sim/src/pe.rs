//! The processing element (paper Fig 7).
//!
//! A PE owns a `T`-wide MAC vector, a multi-layer accumulator and an
//! output buffer, plus the two control logics `C1`/`C2` that the ONE-SA
//! modification adds:
//!
//! * **GEMM mode** — `C1` and `C2` both active: the PE latches the
//!   incoming `A`/`B` chunks, forwards the previous ones to its east and
//!   south neighbours (one-cycle hop), and accumulates a `T`-wide dot
//!   product into the accumulator (output-stationary).
//! * **MHP compute mode** (diagonal PEs) — `C1` off, `C2` on: incoming
//!   `(x, 1)` and `(k, b)` pair chunks are consumed *locally*
//!   (`y = k·x + 1·b`, two MACs per element) and the result is emitted
//!   into the southbound result lane; nothing is forwarded.
//! * **MHP transmission mode** (off-diagonal PEs) — `C1` on, `C2` off:
//!   the PE is a pure register stage for all three lanes.

/// Operating mode of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeMode {
    /// Conventional systolic GEMM (C1 + C2 active).
    #[default]
    Gemm,
    /// Diagonal computation PE during MHP (C1 off, C2 on).
    MhpCompute,
    /// Off-diagonal transmission PE during MHP (C1 on, C2 off).
    MhpTransmit,
}

/// A `T`-wide data chunk travelling through the array.
pub type Chunk = Vec<f32>;

/// A chunk of operand pairs for MHP: `(x, 1)` on the input lane or
/// `(k, b)` on the weight lane.
pub type PairChunk = Vec<(f32, f32)>;

/// One processing element.
#[derive(Debug, Clone, Default)]
pub struct Pe {
    mode: PeMode,
    // GEMM lanes.
    a_reg: Option<Chunk>,
    b_reg: Option<Chunk>,
    acc: f32,
    // MHP lanes.
    x_reg: Option<PairChunk>,
    kb_reg: Option<PairChunk>,
    y_reg: Option<Chunk>,
}

impl Pe {
    /// Creates a PE in the given mode.
    pub(crate) fn new(mode: PeMode) -> Self {
        Pe {
            mode,
            ..Pe::default()
        }
    }

    /// Reconfigures the PE (flushes all lane registers).
    pub(crate) fn set_mode(&mut self, mode: PeMode) {
        *self = Pe {
            mode,
            acc: self.acc,
            ..Pe::default()
        };
    }

    /// Accumulator value (the output-stationary `C` element).
    pub(crate) fn acc(&self) -> f32 {
        self.acc
    }

    /// Clears the accumulator before a new output tile.
    pub(crate) fn clear_acc(&mut self) {
        self.acc = 0.0;
    }

    /// GEMM-mode cycle: returns the chunks forwarded to the east and
    /// south neighbours (the previously latched ones), latches the new
    /// inputs and accumulates their dot product.
    ///
    /// Returns `(east, south, macs_this_cycle)`.
    pub(crate) fn step_gemm(
        &mut self,
        a_in: Option<Chunk>,
        b_in: Option<Chunk>,
    ) -> (Option<Chunk>, Option<Chunk>, u64) {
        debug_assert_eq!(self.mode, PeMode::Gemm);
        let east = self.a_reg.take();
        let south = self.b_reg.take();
        self.a_reg = a_in;
        self.b_reg = b_in;
        let mut done = 0u64;
        if let (Some(a), Some(b)) = (&self.a_reg, &self.b_reg) {
            debug_assert_eq!(a.len(), b.len(), "chunk widths must agree");
            let mut dot = 0.0f32;
            for (x, y) in a.iter().zip(b.iter()) {
                dot += x * y;
            }
            self.acc += dot;
            done = a.len() as u64;
        }
        (east, south, done)
    }

    /// MHP-mode cycle. `x_in` arrives from the west carrying `(x, 1)`
    /// pairs, `kb_in` from the north carrying `(k, b)` pairs, `y_in` from
    /// the north on the southbound result lane.
    ///
    /// Returns `(x_east, kb_south, y_south, macs_this_cycle)`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called on a PE in [`PeMode::Gemm`].
    pub(crate) fn step_mhp(
        &mut self,
        x_in: Option<PairChunk>,
        kb_in: Option<PairChunk>,
        y_in: Option<Chunk>,
    ) -> (Option<PairChunk>, Option<PairChunk>, Option<Chunk>, u64) {
        debug_assert_ne!(self.mode, PeMode::Gemm, "PE not configured for MHP");
        match self.mode {
            PeMode::MhpTransmit => {
                // Pure register stage on all three lanes.
                let x_east = self.x_reg.take();
                let kb_south = self.kb_reg.take();
                let y_south = self.y_reg.take();
                self.x_reg = x_in;
                self.kb_reg = kb_in;
                self.y_reg = y_in;
                (x_east, kb_south, y_south, 0)
            }
            PeMode::MhpCompute => {
                // Consume locally; emit the result on the southbound lane.
                let y_south = self.y_reg.take();
                self.x_reg = x_in;
                self.kb_reg = kb_in;
                let mut done = 0u64;
                if let (Some(xs), Some(kbs)) = (self.x_reg.take(), self.kb_reg.take()) {
                    debug_assert_eq!(xs.len(), kbs.len());
                    let y: Chunk = xs
                        .iter()
                        .zip(kbs.iter())
                        .map(|(&(x, one), &(k, b))| k * x + b * one)
                        .collect();
                    done = 2 * y.len() as u64;
                    self.y_reg = Some(y);
                }
                // y_in must not collide: only the diagonal emits per column.
                debug_assert!(y_in.is_none(), "result-lane collision at a compute PE");
                (None, None, y_south, done)
            }
            PeMode::Gemm => unreachable!("guarded by debug_assert"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_step_forwards_with_one_cycle_delay() {
        let mut pe = Pe::new(PeMode::Gemm);
        let (e0, s0, _) = pe.step_gemm(Some(vec![1.0, 2.0]), Some(vec![3.0, 4.0]));
        assert!(e0.is_none() && s0.is_none());
        let (e1, s1, _) = pe.step_gemm(None, None);
        assert_eq!(e1, Some(vec![1.0, 2.0]));
        assert_eq!(s1, Some(vec![3.0, 4.0]));
    }

    #[test]
    fn gemm_accumulates_dot_products() {
        let mut pe = Pe::new(PeMode::Gemm);
        let (_, _, m0) = pe.step_gemm(Some(vec![1.0, 2.0]), Some(vec![3.0, 4.0])); // 11
        let (_, _, m1) = pe.step_gemm(Some(vec![0.5]), Some(vec![2.0])); // 1
        assert_eq!(pe.acc(), 12.0);
        assert_eq!(m0 + m1, 3);
        pe.clear_acc();
        assert_eq!(pe.acc(), 0.0);
    }

    #[test]
    fn transmit_pe_is_register_stage() {
        let mut pe = Pe::new(PeMode::MhpTransmit);
        let x = vec![(1.0, 1.0)];
        let kb = vec![(2.0, 0.5)];
        let y = vec![9.0];
        let (xo, kbo, yo, m) = pe.step_mhp(Some(x.clone()), Some(kb.clone()), Some(y.clone()));
        assert!(xo.is_none() && kbo.is_none() && yo.is_none());
        assert_eq!(m, 0);
        let (xo, kbo, yo, _) = pe.step_mhp(None, None, None);
        assert_eq!(xo, Some(x));
        assert_eq!(kbo, Some(kb));
        assert_eq!(yo, Some(y));
    }

    #[test]
    fn compute_pe_evaluates_mhp() {
        let mut pe = Pe::new(PeMode::MhpCompute);
        let x = vec![(2.0, 1.0), (3.0, 1.0)];
        let kb = vec![(0.5, 1.0), (2.0, -1.0)];
        let (_, _, y0, m) = pe.step_mhp(Some(x), Some(kb), None);
        assert!(y0.is_none(), "result appears after one cycle");
        assert_eq!(m, 4); // two elements × two MACs
        let (_, _, y1, _) = pe.step_mhp(None, None, None);
        assert_eq!(y1, Some(vec![2.0, 5.0])); // 0.5·2+1, 2·3−1
    }

    #[test]
    fn compute_pe_does_not_forward_operands() {
        let mut pe = Pe::new(PeMode::MhpCompute);
        pe.step_mhp(Some(vec![(1.0, 1.0)]), Some(vec![(1.0, 0.0)]), None);
        let (xo, kbo, _, _) = pe.step_mhp(None, None, None);
        assert!(xo.is_none() && kbo.is_none());
    }

    #[test]
    fn set_mode_flushes_lanes() {
        let mut pe = Pe::new(PeMode::Gemm);
        pe.step_gemm(Some(vec![1.0]), Some(vec![1.0]));
        pe.set_mode(PeMode::MhpTransmit);
        let (xo, kbo, yo, _) = pe.step_mhp(None, None, None);
        assert!(xo.is_none() && kbo.is_none() && yo.is_none());
        assert_eq!(pe.acc(), 1.0, "accumulator survives reconfiguration");
    }
}
