//! Neural-network substrate for the ONE-SA reproduction.
//!
//! The paper's accuracy study (Table III) runs CNN, transformer and GCN
//! models whose nonlinear operations are replaced by capped
//! piecewise-linear approximations at several granularities. This crate
//! provides everything needed to repeat that study from scratch:
//!
//! * [`layers`] — trainable layers with hand-derived backward passes
//!   (linear, conv2d via im2col, batch norm, layer norm, embedding,
//!   multi-head attention, GCN propagation, activations, losses);
//! * [`models`] — the three model families: a residual CNN
//!   ([`models::SmallCnn`]), a BERT-style encoder ([`models::TinyBert`])
//!   and a two-layer GCN ([`models::Gcn`]);
//! * [`train`] — SGD/Adam training loops;
//! * [`infer`] — the inference backends: exact arithmetic, or CPWL
//!   tables (+ optional INT16 quantization) exactly as the array would
//!   compute;
//! * [`profile`] / [`workloads`] — op-class accounting and the real
//!   ResNet-50 / BERT-base / GCN layer shapes behind Fig 1 and Table IV.
//!
//! Whole networks compile to `onesa_plan::Program` operator graphs:
//! every model implements `onesa_plan::Compile`, and the
//! `logits`/`predict` entry points are thin compile-and-run wrappers over
//! the emitted programs (bit-identical to the retained `*_direct`
//! layer-by-layer reference paths). That program is also the only way to
//! serve a model: a batch of inferences is a batch of programs submitted
//! to `onesa_core`'s `BatchEngine` / `ServeEngine`, which coalesce them
//! stage by stage.
//!
//! # Example
//!
//! ```
//! use onesa_nn::InferenceMode;
//! use onesa_tensor::Tensor;
//!
//! // Exact vs CPWL inference of the same activation tensor.
//! let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[1, 3])?;
//! let exact = InferenceMode::Exact.gelu(&x);
//! let cpwl = InferenceMode::cpwl(0.25).expect("valid granularity").gelu(&x);
//! for (e, c) in exact.as_slice().iter().zip(cpwl.as_slice()) {
//!     assert!((e - c).abs() < 0.02); // GELU's chord error at 0.25 is ≈ 0.008
//! }
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
pub mod infer;
pub mod layers;
pub mod models;
pub mod profile;
pub mod prune;
pub mod train;
pub mod workloads;

pub use infer::InferenceMode;
