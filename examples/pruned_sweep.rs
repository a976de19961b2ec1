//! Structured pruning: the accuracy-for-speed trade, measured.
//!
//! ```sh
//! cargo run --release --example pruned_sweep
//! ```
//!
//! Trains a GCN whose hidden layer is four prune blocks wide, then
//! sweeps [`magnitude_prune_columns`] keep fractions. At every rung:
//!
//! * the optimizer's prune-pack pass attaches the sparsity attribute
//!   and the program's `modeled_macs` drop by exactly the credited
//!   column share — the same number size-capped admission and
//!   energy-aware routing weigh;
//! * top-1 agreement against the unpruned model is printed and pinned
//!   (the run is fully seeded, so the bounds are exact floors — the
//!   same pattern as the degrade ladder's bit-identity pins);
//! * a served batch returns the pruned model's logits bit for bit.
//!
//! Like granularity degradation, pruning changes *which* program runs,
//! never how it runs: pruned logits stay bit-identical to the direct
//! layer-by-layer reference on the pruned weights.

use onesa_core::{BatchEngine, OneSa, Request};
use onesa_data::{Difficulty, GraphDataset};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::Gcn;
use onesa_nn::prune::magnitude_prune_columns;
use onesa_nn::train::TrainConfig;
use onesa_plan::{Compile, OptLevel, PRUNE_BLOCK_COLS};
use onesa_sim::ArrayConfig;
use onesa_tensor::stats;

/// (keep fraction, pinned top-1 agreement floor vs the unpruned model).
/// The floors are measured on this seeded run and rounded down: they
/// document the trade, and CI catches a kernel or pass change that
/// silently alters pruned predictions.
const RUNGS: [(f32, f64); 4] = [(1.0, 1.0), (0.75, 0.98), (0.5, 0.95), (0.25, 0.90)];

fn top1(logits: &onesa_tensor::Tensor) -> Vec<usize> {
    let (n, c) = logits.shape().as_matrix().expect("matrix");
    (0..n)
        .map(|i| stats::argmax(&logits.as_slice()[i * c..(i + 1) * c]).expect("non-empty row"))
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = GraphDataset::generate("communities", 4, Difficulty::easy(3), 60, 8, 0.3);
    let mut model = Gcn::new(6, 8, 4 * PRUNE_BLOCK_COLS, 3);
    model.fit(
        &g,
        &TrainConfig {
            epochs: 8,
            lr: 1e-2,
            batch_size: 0,
            seed: 6,
        },
    );
    let mode = InferenceMode::Exact;
    let reference = top1(&model.logits(&g, &mode));
    let dense_macs = model
        .compile((&mode, &g))?
        .optimize(OptLevel::Standard)?
        .modeled_macs();

    println!(
        "== magnitude pruning sweep: {}-wide hidden layer, {}-column blocks ==",
        4 * PRUNE_BLOCK_COLS,
        PRUNE_BLOCK_COLS
    );
    for (keep, floor) in RUNGS {
        let mut pruned = model.clone();
        let report = pruned.prune_hidden(keep)?;
        let program = pruned.compile((&mode, &g))?.optimize(OptLevel::Standard)?;
        let (skipped, _) = program.sparse_blocks();
        assert_eq!(
            (report.blocks_zeroed as u64, skipped),
            (report.blocks_zeroed as u64, report.blocks_zeroed as u64),
            "the pass credits exactly the pruned blocks"
        );
        // The modeled cost credits the skipped column share of the W1
        // GEMM — admission budgets and energy routing see this number.
        let macs = program.modeled_macs();
        assert!(
            (skipped == 0) == (macs == dense_macs),
            "pruning must show in the modeled cost exactly when blocks skip"
        );

        // Pruned predictions agree with the unpruned model above the
        // pinned floor — and stay bit-identical to the direct path.
        let logits = pruned.logits(&g, &mode);
        assert_eq!(logits, pruned.logits_direct(&g, &mode));
        let agree = top1(&logits)
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a == b)
            .count() as f64
            / reference.len() as f64;
        assert!(
            agree >= floor,
            "keep={keep}: agreement {agree:.2} fell below the pinned floor {floor}"
        );

        // Serve the pruned program: the same logits come back.
        let mut engine = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25)?;
        engine.submit(Request::program(program, vec![g.x.clone()]));
        let run = engine.run()?;
        assert_eq!(run.outcomes[0].output, logits);

        println!(
            "keep {:>4.2}: {}/{} blocks live, modeled MACs {:>5.1}% of dense, \
             top-1 agreement {:>5.1}% (floor {:>3.0}%), accuracy {:.2}",
            keep,
            report.blocks_total - report.blocks_zeroed,
            report.blocks_total,
            100.0 * macs as f64 / dense_macs as f64,
            100.0 * agree,
            100.0 * floor,
            pruned.evaluate(&g, &mode),
        );
    }

    // The helper is model-agnostic: prune any weight matrix directly.
    let mut w = onesa_tensor::rng::Pcg32::seed_from_u64(9).randn(&[32, 64], 1.0);
    let r = magnitude_prune_columns(&mut w, PRUNE_BLOCK_COLS, 0.5)?;
    println!(
        "-> standalone: kept {:.0}% of a [32, 64] matrix's blocks ({} zeroed)",
        r.kept_fraction() * 100.0,
        r.blocks_zeroed
    );
    Ok(())
}
