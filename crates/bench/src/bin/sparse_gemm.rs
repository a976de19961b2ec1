//! Emits the `BENCH_sparse_gemm.json` perf baseline: dense versus
//! packed column-block-sparse GEMM at three sizes and a block-density
//! sweep.
//!
//! ```sh
//! cargo run --release -q -p onesa-bench --bin sparse_gemm > BENCH_sparse_gemm.json
//! ```
//!
//! The committed copy at the repository root records the trajectory
//! later performance PRs must beat. Wall-clock numbers are
//! machine-dependent; the `speedup_sparse` ratios and the modeled
//! `mac_credit` column are the stable quantities. Both sides run the one
//! packed kernel of `onesa_tensor::parallel` on one thread — dense over
//! the whole weight, sparse over its payload — so the ratio is the gain
//! from skipping blocks and nothing else. `speedup_sparse` is the median
//! of three independent ratios, each from its own interleaved group of the
//! alternating samples (`onesa_bench::Timings::ratio`). The bin asserts
//! its own acceptance floor on it so the CI bench-smoke job enforces it:
//!
//! * at block density 1 (nothing to skip) sparse is within ±15% of dense
//!   at every size — a mismatched baseline cannot come back unnoticed;
//! * at 512³ the sparse kernel is ≥ 1.15× the dense kernel at 50% block
//!   density and ≥ 1.9× at 25% (recorded: ≈1.4× and ≈2.5×; the shortfall
//!   from 2× / 4× is the scattered store of panels that straddle a pruned
//!   block);
//! * the modeled-MAC credit (what `Op::Gemm`'s sparsity attribute
//!   takes off `modeled_macs`) is at least the measured block-skip
//!   fraction — admission budgets never under-credit pruned work.

use onesa_bench::time_rounds;
use onesa_plan::PRUNE_BLOCK_COLS;
use onesa_tensor::parallel::{self, Parallelism};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::sparse::{self, column_block_stats, SparseTensor};
use onesa_tensor::Tensor;

/// Zeroes column blocks of `b` so roughly `density` of them stay live
/// (block `i` survives iff `i % 4 < density·4`, so quarters sweep
/// exactly).
fn thin(b: &mut Tensor, density: f64) {
    let dims = b.dims().to_vec();
    let (rows, cols) = (dims[0], dims[1]);
    let live_per_4 = (density * 4.0).round() as usize;
    let data = b.as_mut_slice();
    for blk in 0..cols / PRUNE_BLOCK_COLS {
        if blk % 4 < live_per_4 {
            continue;
        }
        let j0 = blk * PRUNE_BLOCK_COLS;
        for r in 0..rows {
            data[r * cols + j0..r * cols + j0 + PRUNE_BLOCK_COLS].fill(0.0);
        }
    }
}

fn main() {
    let mut rng = Pcg32::seed_from_u64(2026);
    let sizes = [128usize, 256, 512];
    let densities = [1.0f64, 0.75, 0.5, 0.25];
    println!("{{");
    println!("  \"bench\": \"sparse_gemm\",");
    println!("  \"kernel\": \"onesa_tensor::sparse::matmul\",");
    println!("  \"block_cols\": {PRUNE_BLOCK_COLS},");
    println!("  \"sweep\": [");
    let entries = sizes.len() * densities.len();
    let mut emitted = 0;
    for &d in &sizes {
        let a = rng.randn(&[d, d], 1.0);
        let dense_b = rng.randn(&[d, d], 1.0);
        for &density in &densities {
            let mut b = dense_b.clone();
            thin(&mut b, density);
            let (nnz_blocks, total_blocks, nnz_cols) =
                column_block_stats(&b, PRUNE_BLOCK_COLS).expect("matrix");
            let packed = SparseTensor::from_dense(&b, PRUNE_BLOCK_COLS).expect("packs");
            let dense = || parallel::matmul(&a, &b, Parallelism::Sequential).expect("gemm");
            let sparse = || sparse::matmul(&a, &packed, Parallelism::Sequential).expect("gemm");
            assert_eq!(
                dense().as_slice(),
                sparse().as_slice(),
                "sparse kernel must stay bit-identical to dense"
            );
            // Alternate the two sides sample by sample, so a noisy stretch
            // of the host lands on both, not on one side of the ratio; more
            // samples at the small sizes, where one call is short enough
            // for a single preemption to double it.
            let rounds = 3 * 16 * (512 / d).pow(2);
            let times = time_rounds(rounds, 1, [&mut || dense(), &mut || sparse()]);
            let [dense_s, sparse_s] = times.best();
            // Skipped share of the modeled cost vs of the blocks: the
            // plan layer credits macs by nnz_cols, so the credit can
            // only exceed the block fraction (ragged last block).
            let mac_credit = 1.0 - nnz_cols as f64 / d as f64;
            let block_skip = 1.0 - nnz_blocks as f64 / total_blocks as f64;
            assert!(
                mac_credit + 1e-12 >= block_skip,
                "modeled credit {mac_credit} under-credits skip fraction {block_skip}"
            );
            let speedup = times.ratio(0, 1);
            if density == 1.0 {
                // Nothing to skip: both sides must be the same kernel
                // doing the same work, or every other row of this file
                // compares a fast kernel with a slow one.
                assert!(
                    (0.85..=1.15).contains(&speedup),
                    "at density 1 sparse is {speedup:.2}x dense at {d}^3: the baseline is not like-for-like"
                );
            }
            if d == 512 && density <= 0.5 {
                let floor = if density <= 0.25 { 1.9 } else { 1.15 };
                assert!(
                    speedup >= floor,
                    "sparse kernel only {speedup:.2}x at {density} density, need {floor}x"
                );
            }
            emitted += 1;
            println!("    {{");
            println!("      \"m\": {d}, \"k\": {d}, \"n\": {d},");
            println!(
                "      \"block_density\": {density}, \"nnz_blocks\": {nnz_blocks}, \"total_blocks\": {total_blocks},"
            );
            println!(
                "      \"dense_ms\": {:.3}, \"sparse_ms\": {:.3},",
                dense_s * 1e3,
                sparse_s * 1e3
            );
            println!(
                "      \"mac_credit\": {:.4}, \"block_skip_fraction\": {:.4},",
                mac_credit, block_skip
            );
            println!("      \"speedup_sparse\": {:.2}", speedup);
            println!("    }}{}", if emitted < entries { "," } else { "" });
        }
    }
    println!("  ]");
    println!("}}");
}
