//! CNN inference under CPWL: train a small residual CNN on a synthetic
//! CIFAR-like task, then compare exact inference against the array's
//! CPWL + INT16 path at several granularities, and estimate how long the
//! real ResNet-50 would take on the array.
//!
//! ```sh
//! cargo run --release --example resnet_inference
//! ```

use onesa_core::OneSa;
use onesa_data::{Difficulty, ImageDataset};
use onesa_nn::models::SmallCnn;
use onesa_nn::train::TrainConfig;
use onesa_nn::workloads;
use onesa_nn::InferenceMode;
use onesa_sim::ArrayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training a residual CNN on a synthetic CIFAR-10-like task…");
    let data = ImageDataset::generate("cifar10-like", 5, Difficulty::hard(10), (1, 12, 12), 24);
    let mut model = SmallCnn::new(42, 1, 10);
    let loss = model.fit(
        &data,
        &TrainConfig {
            epochs: 12,
            lr: 4e-3,
            batch_size: 16,
            seed: 42,
        },
    );
    println!("final training loss: {loss:.4}");

    let exact = model.evaluate(&data, &InferenceMode::Exact);
    println!("\n{:<22}{:>10}", "backend", "accuracy");
    println!("{:<22}{:>9.1}%", "exact f32", exact * 100.0);
    for g in [0.1f32, 0.25, 0.5, 1.0] {
        let mode = InferenceMode::cpwl(g)?;
        let acc = model.evaluate(&data, &mode);
        println!(
            "{:<22}{:>9.1}%   (Δ {:+.1})",
            mode.label(),
            acc * 100.0,
            (acc - exact) * 100.0
        );
    }

    // Full ResNet-50 timing on the paper's design point.
    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let report = engine.run_workload(&workloads::resnet50(224));
    println!("\nResNet-50 (224², 4 GMACs) on the simulated array:\n  {report}");
    Ok(())
}
