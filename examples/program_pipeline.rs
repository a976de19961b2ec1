//! Whole networks as first-class serving requests: compile models to
//! operator-graph `Program`s and execute them through the batch and
//! serve engines, coalescing across concurrent programs at every stage.
//!
//! ```sh
//! cargo run --release --example program_pipeline
//! ```
//!
//! The demo:
//!
//! 1. compiles a residual CNN and a transformer encoder to
//!    `onesa_core::plan::Program`s (via `onesa_nn`'s `Compile` impls)
//!    and runs the optimizer pipeline over them, printing its
//!    `OptTotals` (CSE shares, pruned GEMMs, dead ops),
//! 2. submits several instances of each to one `BatchEngine` and shows
//!    the per-stage kernel-group accounting — shared-weight GEMM
//!    stacking and shared-table IPF concatenation collapse each stage's
//!    ops into one kernel call, at *every* layer rather than only the
//!    final classifier,
//! 3. routes the same whole-network requests through an asynchronous
//!    `ServeEngine` pool under weight-affinity routing, where per-op
//!    `ExecStats` roll into the pool's `ServingReport`.
//!
//! Everything is bit-identical to the models' direct layer-by-layer
//! inference — asserted below, not just claimed.

use onesa_core::plan::{Compile, OptLevel};
use onesa_core::serve::{AdmissionPolicy, RoutePolicy, ServeConfig, ServeEngine, Ticket};
use onesa_core::{BatchEngine, OneSa, Parallelism};
use onesa_nn::models::{SmallCnn, TinyBert};
use onesa_nn::InferenceMode;
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mode = InferenceMode::cpwl(0.25)?;
    let cnn = SmallCnn::new(11, 1, 3);
    let bert = TinyBert::new(5, 32, 12, 2, 1);
    let mut rng = Pcg32::seed_from_u64(2026);

    // ---- 1. compile whole networks to Program IR and optimize -------
    let cnn_raw = cnn.compile((&mode, (8, 8)))?;
    let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    let bert_raw = bert.compile((&mode, seq.len()))?;
    println!("compiled programs ({}):", mode.label());
    for p in [&cnn_raw, &bert_raw] {
        println!(
            "  {:<12} {:>3} stages, {:>8} modeled MACs, output {:?}",
            p.name(),
            p.stages(),
            p.modeled_macs(),
            p.output_shape()
        );
    }

    // The serving wrappers run the bit-identical Standard level.
    let cnn_program = cnn_raw.optimize(OptLevel::Standard)?;
    let bert_program = bert_raw.optimize(OptLevel::Standard)?;
    println!("\noptimizer totals (OptTotals, per pass):");
    for (raw, optimized) in [(&cnn_raw, &cnn_program), (&bert_raw, &bert_program)] {
        let report = optimized.opt_report().expect("optimize records a report");
        let t = report.totals;
        println!(
            "  {:<12} {:>2} -> {:>2} ops ({:>4.1}% cut): cse={}, prune-pack={}, dead-slot={}",
            raw.name(),
            report.ops_before,
            optimized.stages(),
            report.ops_removed_fraction() * 100.0,
            t.shared,
            t.pruned,
            t.dead
        );
    }
    // `cse` shares the CNN's duplicated residual-skip boundary.
    assert_eq!((cnn_raw.stages(), cnn_program.stages()), (25, 24));

    // Repeated wrapper calls hit the model's CompileCache: no re-emit,
    // no weight copies — just an Arc clone per request.
    let warm = rng.randn(&[1, 8, 8], 1.0);
    let _ = cnn.logits(&warm, &mode);
    let hits_before = cnn.compile_cache().hits();
    let _ = cnn.logits(&warm, &mode);
    assert_eq!(cnn.compile_cache().hits(), hits_before + 1);
    println!(
        "\ncompile cache: {} hit(s), {} miss(es) after repeated logits calls",
        cnn.compile_cache().hits(),
        cnn.compile_cache().misses()
    );

    // ---- 2. concurrent programs through one BatchEngine -------------
    let images: Vec<Tensor> = (0..4).map(|_| rng.randn(&[1, 8, 8], 1.0)).collect();
    let mut engine = BatchEngine::new(OneSa::new(ArrayConfig::new(8, 16)), 0.25)?;
    for x in &images {
        engine.submit_program(cnn_program.clone(), vec![x.clone()])?;
    }
    let run = engine.run()?;
    for (outcome, x) in run.outcomes.iter().zip(&images) {
        assert_eq!(
            outcome.output.as_slice(),
            cnn.logits(x, &mode).as_slice(),
            "batched program output must be bit-identical to direct inference"
        );
    }
    let coalesced = run
        .program_stages
        .iter()
        .filter(|s| s.groups < s.ops)
        .count();
    println!(
        "\n4 concurrent CNN programs, {} stages: {} stages coalesced, \
         {} gemm + {} nonlinear kernel groups total, {:.2}x batching speedup",
        run.program_stages.len(),
        coalesced,
        run.report.gemm_groups,
        run.report.nonlinear_groups,
        run.report.batching_speedup()
    );
    assert!(
        coalesced >= 2,
        "coalescing must reach beyond the classifier"
    );
    println!("  per-stage kernel groups (ops -> groups):");
    for s in run.program_stages.iter().filter(|s| s.groups < s.ops) {
        println!(
            "    stage {:>2}: {} ops -> {} group(s) ({})",
            s.stage,
            s.ops,
            s.groups,
            if s.gemm_groups > 0 { "gemm" } else { "ipf+mhp" }
        );
    }

    // ---- 3. whole networks through the async shard pool -------------
    let pool = ServeEngine::start(
        ServeConfig::uniform(2, ArrayConfig::new(8, 16), Parallelism::Sequential)
            .with_admission(AdmissionPolicy::Fifo { window: 16 })
            .with_routing(RoutePolicy::WeightAffinity)
            .start_paused(),
    )?;
    let mut tickets: Vec<Ticket> = Vec::new();
    for x in &images {
        tickets.push(pool.submit_program(cnn_program.clone(), vec![x.clone()])?);
    }
    for _ in 0..2 {
        tickets.push(pool.submit_program(bert_program.clone(), vec![TinyBert::ids_tensor(&seq)])?);
    }
    pool.resume();
    let want_bert = bert.predict(&seq, &mode);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let served = ticket.wait()?;
        if i < images.len() {
            assert_eq!(
                served.output.as_slice(),
                cnn.logits(&images[i], &mode).as_slice()
            );
        } else {
            assert_eq!(served.output.as_slice(), want_bert.as_slice());
        }
        assert!(
            !served.op_stats.is_empty(),
            "program tickets carry op stats"
        );
    }
    let summary = pool.finish()?;
    println!(
        "\nserve pool: {} whole-network requests over {} shards, \
         {} gemm groups, {:.2}x modeled speedup, {} expired",
        summary.report.requests,
        summary.shards.len(),
        summary.report.gemm_groups,
        summary.modeled_speedup(),
        summary.expired
    );
    assert_eq!(summary.report.requests, 6);
    println!("\nall program outputs bit-identical to direct inference ✓");
    Ok(())
}
