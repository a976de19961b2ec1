//! Quickstart: evaluate a nonlinear function on the ONE-SA array.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Shows the paper's three-step CPWL flow on real data: build a table,
//! submit a GELU request that runs as Intermediate Parameter Fetching +
//! a Matrix Hadamard Product on the array, and compare against the exact
//! function — then run a GEMM request on the same fabric. Both requests
//! go through a [`BatchEngine`], the one way tensors execute.

use onesa_core::{BatchEngine, OneSa, Request};
use onesa_cpwl::{NonlinearFn, PwlTable};
use onesa_sim::ArrayConfig;
use onesa_tensor::rng::Pcg32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's evaluation design point: 8×8 PEs, 16 MACs each.
    let engine = OneSa::new(ArrayConfig::new(8, 16));
    println!("ONE-SA engine: {:?} PEs, {} MACs/PE", 64, 16);
    println!("FPGA cost: {:?}", engine.cost());
    let peak_gops = engine.config().peak_gops();
    let mut serving = BatchEngine::new(engine, 0.25)?;

    // 1. Capped piecewise linearization of GELU at granularity 0.25 (the
    //    table the engine's requests evaluate through).
    let table = PwlTable::builder(NonlinearFn::Gelu)
        .granularity(0.25)
        .build()?;
    println!(
        "\nGELU table: {} segments over {:?}, {} bytes preloaded into L3",
        table.n_segments(),
        table.range(),
        table.table_bytes()
    );

    // 2. Evaluate a batch of activations through IPF + MHP.
    let mut rng = Pcg32::seed_from_u64(7);
    let x = rng.randn(&[64, 64], 1.5);
    serving.submit(Request::nonlinear(NonlinearFn::Gelu, x.clone()));
    let nonlinear = serving.run()?.outcomes.remove(0);
    let (y, stats) = (nonlinear.output, nonlinear.stats);
    let worst = x
        .as_slice()
        .iter()
        .zip(y.as_slice())
        .map(|(&xv, &yv)| (yv - NonlinearFn::Gelu.eval(xv)).abs())
        .fold(0.0f32, f32::max);
    println!(
        "\nnonlinear pass: {} evaluations in {} cycles ({:.3} µs, {:.2} GNFS)",
        stats.nonlinear_evals,
        stats.cycles(),
        stats.seconds() * 1e6,
        stats.gnfs()
    );
    println!("max |error| vs exact GELU: {worst:.4}");

    // 3. The same fabric runs GEMM natively.
    let a = rng.randn(&[128, 96], 1.0);
    let b = rng.randn(&[96, 64], 1.0);
    serving.submit(Request::gemm(a, b));
    let product = serving.run()?.outcomes.remove(0);
    let (c, gstats) = (product.output, product.stats);
    println!(
        "\nGEMM 128x96x64 → C {}: {} cycles, {:.1} GOPS (peak {peak_gops:.1})",
        c.shape(),
        gstats.cycles(),
        gstats.gops(),
    );
    Ok(())
}
