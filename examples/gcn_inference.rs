//! GCN inference under CPWL: train a two-layer GCN on a synthetic
//! citation graph and confirm the paper's observation that shallow GCNs
//! barely degrade under CPWL (ReLU is exactly representable; only INT16
//! noise remains).
//!
//! ```sh
//! cargo run --release --example gcn_inference
//! ```

use onesa_core::OneSa;
use onesa_data::{Difficulty, GraphDataset};
use onesa_nn::models::Gcn;
use onesa_nn::train::TrainConfig;
use onesa_nn::workloads;
use onesa_nn::InferenceMode;
use onesa_sim::ArrayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training a 2-layer GCN on a synthetic CORA-like graph…");
    let g = GraphDataset::generate("cora-like", 21, Difficulty::medium(7), 210, 32, 0.16);
    let mut model = Gcn::new(42, g.features, 16, g.classes);
    let loss = model.fit(
        &g,
        &TrainConfig {
            epochs: 10,
            lr: 1e-2,
            batch_size: 0,
            seed: 42,
        },
    );
    println!(
        "final training loss: {loss:.4} ({} nodes, {} classes)",
        g.nodes, g.classes
    );

    let exact = model.evaluate(&g, &InferenceMode::Exact);
    println!("\n{:<22}{:>10}", "backend", "accuracy");
    println!("{:<22}{:>9.1}%", "exact f32", exact * 100.0);
    for g_val in [0.1f32, 0.25, 0.5, 1.0] {
        let mode = InferenceMode::cpwl(g_val)?;
        let acc = model.evaluate(&g, &mode);
        println!(
            "{:<22}{:>9.1}%   (Δ {:+.1})",
            mode.label(),
            acc * 100.0,
            (acc - exact) * 100.0
        );
    }

    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let report = engine.run_workload(&workloads::gcn_reddit_like());
    println!("\nReddit-scale GCN (1.1 GMACs) on the simulated array:\n  {report}");
    Ok(())
}
