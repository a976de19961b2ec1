//! Transformer inference under CPWL: train a two-block encoder on a
//! synthetic SST-2-like sentiment task, sweep granularities (softmax,
//! GELU and layer norm all go through the tables), and time BERT-base on
//! the array.
//!
//! ```sh
//! cargo run --release --example bert_inference
//! ```

use onesa_core::OneSa;
use onesa_data::{Difficulty, TextDataset};
use onesa_nn::models::TinyBert;
use onesa_nn::train::TrainConfig;
use onesa_nn::workloads;
use onesa_nn::InferenceMode;
use onesa_sim::ArrayConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training a 2-block encoder on a synthetic SST-2-like task…");
    let data = TextDataset::classification("sst2-like", 11, Difficulty::easy(2), 64, 16, 32);
    let mut model = TinyBert::new(42, data.vocab, data.seq_len, 2, 2);
    let loss = model.fit(
        &data,
        &TrainConfig {
            epochs: 6,
            lr: 2e-3,
            batch_size: 1,
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

    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let report = engine.run_workload(&workloads::bert_base(64));
    println!("\nBERT-base (seq 64, 5.5 GMACs) on the simulated array:\n  {report}");
    Ok(())
}
