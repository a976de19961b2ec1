//! Emits the `BENCH_program_optimizer.json` baseline: optimizer-pass
//! op/MAC reductions per model family, and the zero-copy compile
//! cache's per-request setup time versus PR-4's recompile-every-call.
//!
//! ```sh
//! cargo run --release -q -p onesa-bench --bin program_optimizer > BENCH_program_optimizer.json
//! ```
//!
//! The headlines are deterministic on any host: pre/post op counts,
//! modeled MACs and the per-pass [`onesa_core::plan::OptTotals`] of
//! each program as served (optimized at the default
//! [`onesa_core::plan::OptLevel`]). The `*_us_per_call` setup timings
//! follow the build machine — `setup_speedup` (recompile ÷ cached) is
//! the tracked ratio.

use onesa_core::plan::{Compile, OptLevel, Program};
use onesa_nn::models::{Gcn, SmallCnn, TinyBert, TinyCausalLm};
use onesa_nn::InferenceMode;
use onesa_tensor::rng::Pcg32;
use std::time::Instant;

/// One `programs` row for a served (optimized) program.
fn program_entry(name: &str, served: &Program, last: bool) {
    let report = served.opt_report().expect("served programs are optimized");
    let t = report.totals;
    println!("    {{");
    println!("      \"program\": \"{name}\",");
    println!(
        "      \"ops\": {{\"unoptimized\": {}, \"standard\": {}}}, \"modeled_macs\": {},",
        report.ops_before,
        served.stages(),
        served.modeled_macs()
    );
    println!(
        "      \"passes\": {{\"cse\": {}, \"prune-pack\": {}, \"dead-slot\": {}}},",
        t.shared, t.pruned, t.dead
    );
    println!(
        "      \"op_cut_standard\": {:.4}",
        report.ops_removed_fraction()
    );
    println!("    }}{}", if last { "" } else { "," });
}

fn main() {
    let mode = InferenceMode::cpwl(0.25).expect("valid granularity");
    let cnn = SmallCnn::new(11, 1, 3);
    let bert = TinyBert::new(5, 32, 12, 2, 2);
    let graph =
        onesa_data::GraphDataset::generate("bench", 4, onesa_data::Difficulty::easy(3), 20, 6, 0.3);
    let gcn = Gcn::new(6, 6, 8, 3);
    let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    // The decoder `serve_decode` serves.
    let lm = TinyCausalLm::new(2027, 64, 32, 2, true);

    println!("{{");
    println!("  \"bench\": \"program_optimizer\",");
    println!(
        "  \"layer\": \"onesa_plan::opt pass pipeline + CompileCache (zero-copy Arc consts)\","
    );
    println!("  \"mode\": \"cpwl(0.25,int16)\",");
    println!("  \"programs\": [");
    let optimized = |p: onesa_tensor::Result<Program>| {
        p.and_then(|p| p.optimize(OptLevel::default()))
            .expect("compiles and optimizes")
    };
    program_entry(
        "small_cnn 8x8",
        &optimized(cnn.compile((&mode, (8, 8)))),
        false,
    );
    program_entry(
        "tiny_bert L=8 x2 blocks",
        &optimized(bert.compile((&mode, seq.len()))),
        false,
    );
    program_entry(
        "gcn 20 nodes",
        &optimized(gcn.compile((&mode, &graph))),
        false,
    );
    program_entry(
        "tiny_causal_lm prefill 8 tokens",
        &lm.compiled_prefill(&mode, 8),
        false,
    );
    program_entry(
        "tiny_causal_lm decode ctx 8",
        &lm.compiled_decode(&mode, 8),
        true,
    );
    println!("  ],");

    // ---- per-request setup: recompile-every-call (PR-4) vs cached ----
    // The recompile path re-emits the operator graph, re-registers every
    // weight in Program::consts (sharing its storage) and re-hashes it on
    // each call; the cached path clones an Arc-backed program out of the
    // model's CompileCache.
    let calls = 200usize;
    let t0 = Instant::now();
    for _ in 0..calls {
        let p = cnn.compile((&mode, (8, 8))).expect("CNN compiles");
        std::hint::black_box(&p);
    }
    let recompile_us = t0.elapsed().as_secs_f64() * 1e6 / calls as f64;

    let x = Pcg32::seed_from_u64(1).randn(&[1, 8, 8], 1.0);
    let _ = cnn.logits(&x, &mode); // warm the cache (one compile)
    let cache = cnn.compile_cache();
    let t0 = Instant::now();
    for _ in 0..calls {
        let p = cache
            .get_or_compile(mode.eval_mode(), x.dims(), 0, || unreachable!("warm"))
            .expect("cache hit");
        std::hint::black_box(&p);
    }
    let cached_us = t0.elapsed().as_secs_f64() * 1e6 / calls as f64;

    println!("  \"compile_cache\": {{");
    println!("    \"model\": \"small_cnn cpwl(0.25,int16) 8x8\", \"calls\": {calls},");
    println!(
        "    \"recompile_us_per_call\": {:.2}, \"cached_us_per_call\": {:.2},",
        recompile_us, cached_us
    );
    println!(
        "    \"setup_speedup\": {:.1}, \"cache_hits\": {}, \"cache_misses\": {}",
        recompile_us / cached_us.max(1e-9),
        cache.hits(),
        cache.misses()
    );
    println!("  }},");
    println!(
        "  \"stable_quantity\": \"ops / modeled_macs / pass counts (deterministic); \
         setup_speedup is the tracked ratio, *_us_per_call follow the host\""
    );
    println!("}}");
}
