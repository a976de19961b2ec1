//! Magnitude-based structured pruning: zeroing whole weight column
//! blocks so the program optimizer's prune-pack pass
//! ([`onesa_plan::OptLevel::Standard`]) can attach a sparsity attribute and the
//! sparse GEMM kernel ([`onesa_tensor::sparse`]) can skip the work.
//!
//! The pruning granularity is the same
//! [`PRUNE_BLOCK_COLS`]-column block the pass and the packed kernel
//! use: pruning at any other width would zero columns the pass cannot
//! credit. [`magnitude_prune_columns`] ranks a weight matrix's column
//! blocks by L2 norm and zeroes the weakest until only the requested
//! fraction survives — the classic magnitude heuristic, applied at
//! block rather than element granularity so the structured kernel
//! benefits.
//!
//! Pruning trades accuracy for speed. The bound is the caller's to
//! pick; `examples/pruned_sweep.rs` sweeps the keep fraction on a
//! trained [`Gcn`] and pins top-1 agreement against the unpruned
//! model.

use crate::models::Gcn;
use onesa_plan::PRUNE_BLOCK_COLS;
use onesa_tensor::{Result, Tensor, TensorError};

/// What one [`magnitude_prune_columns`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneReport {
    /// Block width the matrix was pruned at (columns per block).
    pub(crate) block_cols: usize,
    /// Column blocks zeroed by this call (blocks that were *already*
    /// all-zero count as zeroed: they are part of the pruned set the
    /// keep fraction describes).
    pub blocks_zeroed: usize,
    /// Total column blocks of the matrix (the last block may be
    /// narrower than `block_cols`).
    pub blocks_total: usize,
}

impl PruneReport {
    /// Fraction of column blocks still live after the call.
    pub fn kept_fraction(&self) -> f64 {
        if self.blocks_total == 0 {
            return 1.0;
        }
        (self.blocks_total - self.blocks_zeroed) as f64 / self.blocks_total as f64
    }
}

/// Zeroes the lowest-L2-norm column blocks of `w` in place until at
/// most `ceil(keep · total_blocks)` blocks survive, at `block_cols`
/// columns per block. Surviving blocks keep every bit; zeroed blocks
/// become `+0.0`, the bit pattern [`onesa_tensor::sparse`] classifies
/// as skippable. Ties in norm keep the lower-indexed block (the sort
/// is stable), so the result is deterministic.
///
/// # Errors
///
/// [`TensorError::NotAMatrix`] for non-2-D input;
/// [`TensorError::InvalidArgument`] for a zero block width or a `keep`
/// outside `(0, 1]` (keeping zero blocks would zero the whole matrix —
/// callers that want that can call [`Tensor::zeros`] honestly).
pub fn magnitude_prune_columns(
    w: &mut Tensor,
    block_cols: usize,
    keep: f32,
) -> Result<PruneReport> {
    let (rows, cols) = w.shape().as_matrix()?;
    if block_cols == 0 {
        return Err(TensorError::InvalidArgument(
            "prune block width must be positive",
        ));
    }
    if !(keep > 0.0 && keep <= 1.0) {
        return Err(TensorError::InvalidArgument(
            "keep fraction must be in (0, 1]",
        ));
    }
    let total = cols.div_ceil(block_cols);
    let survivors = ((keep as f64 * total as f64).ceil() as usize).clamp(1, total);
    // Rank blocks by squared L2 norm (f64 accumulation: the ranking
    // must not depend on summation noise for well-separated norms).
    let data = w.as_slice();
    let mut norms: Vec<(usize, f64)> = (0..total)
        .map(|b| {
            let j0 = b * block_cols;
            let width = block_cols.min(cols - j0);
            let sq = (0..rows)
                .flat_map(|i| &data[i * cols + j0..i * cols + j0 + width])
                .map(|&v| f64::from(v) * f64::from(v))
                .sum::<f64>();
            (b, sq)
        })
        .collect();
    norms.sort_by(|a, b| b.1.total_cmp(&a.1));
    let doomed: Vec<usize> = norms[survivors..].iter().map(|&(b, _)| b).collect();
    let data = w.as_mut_slice();
    for &b in &doomed {
        let j0 = b * block_cols;
        let width = block_cols.min(cols - j0);
        for i in 0..rows {
            data[i * cols + j0..i * cols + j0 + width].fill(0.0);
        }
    }
    // Already-zero survivors still count as pruned structure: report
    // what the prune-pack pass will actually see.
    let (nnz, _, _) = onesa_tensor::sparse::column_block_stats(w, block_cols)?;
    Ok(PruneReport {
        block_cols,
        blocks_zeroed: total - nnz,
        blocks_total: total,
    })
}

impl Gcn {
    /// Magnitude-prunes the hidden-layer weight `W₁`'s column blocks at
    /// [`PRUNE_BLOCK_COLS`] so `keep` of them survive, and clears the
    /// compile cache (cached programs bake the old constants). Zeroing
    /// a `W₁` column block exactly disables those hidden units — the
    /// GCN has no bias, so `relu(0) = 0` contributes nothing through
    /// `W₂` — which is why recompiled logits stay bit-identical to
    /// [`Gcn::logits_direct`] on the pruned weights.
    ///
    /// # Errors
    ///
    /// As [`magnitude_prune_columns`] (a `keep` outside `(0, 1]`).
    pub fn prune_hidden(&mut self, keep: f32) -> Result<PruneReport> {
        let report = magnitude_prune_columns(&mut self.w1.value, PRUNE_BLOCK_COLS, keep)?;
        self.compile_cache().clear();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferenceMode;
    use crate::train::TrainConfig;
    use onesa_data::{Difficulty, GraphDataset};
    use onesa_plan::{Compile, Op, OptLevel};

    /// A [rows, 3·block] matrix whose blocks have norms 0 < b2 < b0:
    /// block 1 is all-zero, block 2 is small, block 0 is large.
    fn graded(rows: usize, block: usize) -> Tensor {
        let cols = 3 * block;
        let mut v = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..block {
                v[r * cols + c] = 2.0; // block 0: norm² = rows·block·4
                v[r * cols + 2 * block + c] = 0.5; // block 2: rows·block·0.25
            }
        }
        Tensor::from_vec(v, &[rows, cols]).unwrap()
    }

    #[test]
    fn weakest_blocks_go_first_and_survivors_keep_every_bit() {
        let mut w = graded(4, 8);
        let before = w.as_slice().to_vec();
        let report = magnitude_prune_columns(&mut w, 8, 0.4).unwrap();
        // ceil(0.4 · 3) = 2 survivors: the zero block goes, plus
        // nothing else — but it was already zero, so zeroed = 1 of 3.
        assert_eq!(
            report,
            PruneReport {
                block_cols: 8,
                blocks_zeroed: 1,
                blocks_total: 3
            }
        );
        assert_eq!(w.as_slice(), &before[..], "survivors untouched");
        // One survivor: only the strongest block remains.
        let report = magnitude_prune_columns(&mut w, 8, 0.1).unwrap();
        assert_eq!((report.blocks_zeroed, report.blocks_total), (2, 3));
        assert!((report.kept_fraction() - 1.0 / 3.0).abs() < 1e-12);
        for r in 0..4 {
            assert_eq!(
                &w.as_slice()[r * 24..r * 24 + 8],
                &before[r * 24..r * 24 + 8]
            );
            assert!(w.as_slice()[r * 24 + 8..r * 24 + 24]
                .iter()
                .all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn keep_one_prunes_nothing_and_bad_arguments_fail_typed() {
        let mut w = graded(3, 4);
        let before = w.as_slice().to_vec();
        let report = magnitude_prune_columns(&mut w, 4, 1.0).unwrap();
        assert_eq!(report.blocks_zeroed, 1, "the all-zero block still counts");
        assert_eq!(w.as_slice(), &before[..]);
        for keep in [0.0, -0.5, 1.5, f32::NAN] {
            assert!(matches!(
                magnitude_prune_columns(&mut w, 4, keep),
                Err(TensorError::InvalidArgument(_))
            ));
        }
        assert!(matches!(
            magnitude_prune_columns(&mut w, 0, 0.5),
            Err(TensorError::InvalidArgument(_))
        ));
        let mut cube = Tensor::zeros(&[2, 2, 2]);
        assert!(matches!(
            magnitude_prune_columns(&mut cube, 4, 0.5),
            Err(TensorError::NotAMatrix { .. })
        ));
    }

    #[test]
    fn pruned_gcn_compiles_to_a_sparse_program_and_stays_bit_identical() {
        let g = GraphDataset::generate("t", 4, Difficulty::easy(3), 45, 8, 0.3);
        let mut model = Gcn::new(6, 8, 2 * PRUNE_BLOCK_COLS, 3);
        model.fit(
            &g,
            &TrainConfig {
                epochs: 2,
                lr: 1e-2,
                batch_size: 0,
                seed: 6,
            },
        );
        let mode = InferenceMode::Exact;
        let report = model.prune_hidden(0.5).unwrap();
        assert_eq!((report.blocks_zeroed, report.blocks_total), (1, 2));
        // The optimizer attaches the attribute and credits the cost...
        let program = model
            .compile((&mode, &g))
            .unwrap()
            .optimize(OptLevel::Standard)
            .unwrap();
        assert_eq!(program.opt_report().unwrap().totals.pruned, 1);
        assert_eq!(program.sparse_blocks(), (1, 2));
        let sparse_gemm = program
            .nodes()
            .iter()
            .find_map(|n| match &n.op {
                Op::Gemm {
                    sparsity: Some(s), ..
                } => Some(*s),
                _ => None,
            })
            .expect("W1 GEMM carries the attribute");
        assert_eq!(sparse_gemm.nnz_cols, PRUNE_BLOCK_COLS);
        // ...and the served path (logits → cached optimized program)
        // stays bit-identical to the direct layer-by-layer reference
        // on the pruned weights.
        assert_eq!(model.logits(&g, &mode), model.logits_direct(&g, &mode));
    }

    #[test]
    fn pruned_gcn_packs_each_constant_once_per_compiled_program() {
        use onesa_plan::{wire, Program};
        let g = GraphDataset::generate("t", 4, Difficulty::easy(3), 45, 8, 0.3);
        let mut model = Gcn::new(6, 8, 2 * PRUNE_BLOCK_COLS, 3);
        model.prune_hidden(0.5).unwrap();
        let mode = InferenceMode::cpwl(0.25).unwrap();
        let want = model.logits_direct(&g, &mode);
        for _ in 0..5 {
            assert_eq!(model.logits(&g, &mode), want);
        }
        // Five runs, each under a table cache of its own, through the one
        // cached program: Â (read by two GEMMs), the sparse W₁ and the
        // dense W₂ (from its second run on) were each packed once, into
        // their storage, which every clone of the program — and of the
        // weights — shares.
        let cache = model.compile_cache();
        assert_eq!((cache.misses(), cache.hits()), (1, 4));
        let cached = || -> Result<Program> { unreachable!("a hit compiles nothing") };
        let program = cache
            .get_or_compile_matching(mode.eval_mode(), g.x.dims(), |_| true, cached)
            .unwrap();
        assert_eq!(program.sparse_blocks(), (1, 2));
        assert_eq!(program.packed_consts(), 3);
        let clone = Program::clone(&program);
        assert_eq!(clone.packed_consts(), 3);
        // The wire carries no pack: a decoded program's constants are
        // copies, so it is equal, starts empty, and packs for itself — `Â`
        // and `W₁` on its first run, `W₂`, a right operand, on its second.
        let decoded = wire::decode_program(&wire::encode_program(&program)).unwrap();
        assert_eq!(decoded, *program);
        assert_eq!(decoded.packed_consts(), 0);
        let x = std::slice::from_ref(&g.x);
        for packs in [2, 3] {
            assert_eq!(crate::compile::run_compiled(&decoded, x, &mode), want);
            assert_eq!(
                (decoded.packed_consts(), program.packed_consts()),
                (packs, 3)
            );
        }
    }
}
