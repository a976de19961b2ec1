//! ONE-SA reproduction — umbrella crate.
//!
//! This package ties the workspace together: it re-exports every
//! sub-crate under one roof and owns the cross-crate integration tests
//! (`tests/integration_*.rs`) and the runnable examples
//! (`cargo run --example quickstart`).
//!
//! The crates, bottom-up:
//!
//! * [`tensor`] — dense `f32` tensors, reference GEMM/MHP kernels,
//!   im2col, INT16 quantization, Q-format fixed point, PCG-32 RNG;
//! * [`cpwl`] — capped piecewise linearization tables (§III);
//! * [`sim`] — the cycle-level and analytic array models (§III–IV);
//! * [`plan`] — the operator-graph `Program` IR: whole networks as
//!   validated, costed, stage-schedulable requests;
//! * [`resources`] — Virtex-7 resource/power models (Tables I–II, Fig 9–10);
//! * [`data`] — deterministic synthetic datasets for the accuracy study;
//! * [`nn`] — layers, models, training and CPWL inference (Table III);
//! * [`baselines`] — published baseline processors (Table IV);
//! * [`core`] — the [`OneSa`] design point lowering whole workloads;
//! * `bench` (dev) — table/figure report generators and baseline bins.
//!
//! # Example
//!
//! ```
//! use onesa::{OneSa, ArrayConfig};
//!
//! let engine = OneSa::new(ArrayConfig::new(8, 16));
//! let report = engine.run_workload(&onesa::nn::workloads::bert_base(32));
//! assert!(report.latency_ms() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use onesa_baselines as baselines;
pub use onesa_core as core;
pub use onesa_cpwl as cpwl;
pub use onesa_data as data;
pub use onesa_nn as nn;
pub use onesa_plan as plan;
pub use onesa_resources as resources;
pub use onesa_sim as sim;
pub use onesa_tensor as tensor;

pub use onesa_core::OneSa;
pub use onesa_sim::ArrayConfig;
