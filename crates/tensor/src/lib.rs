//! Dense tensor primitives for the ONE-SA reproduction.
//!
//! This crate provides the numeric substrate every other crate builds on:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with shape/stride
//!   machinery, elementwise math and reductions.
//! * [`gemm`] — reference general matrix multiplication plus the Hadamard
//!   ops (`X ⊙ K + B`) at the heart of the paper's MHP event.
//! * [`im2col`] — convolution-as-GEMM lowering used by the CNN substrate.
//! * [`quant`] — symmetric INT16 quantization matching the paper's
//!   evaluation precision, plus the INT8 rung below it.
//! * [`sparse`] — packed column-block sparse weights and a
//!   sparsity-aware GEMM that skips zero blocks entirely (bit-identical
//!   to the dense kernels on the same values).
//! * [`fixed`] — Q-format fixed-point scalar arithmetic used by the
//!   shift-based segment addressing of the L3 buffer.
//! * [`attention`] — multi-head scaled dot-product attention as one
//!   kernel, bit-identical to its per-head GEMM / softmax composition.
//! * [`parallel`] — the cache-blocked host execution backend behind the
//!   serving layer (bit-identical to the reference kernels).
//! * [`rng`] — a small deterministic PRNG (PCG-32) so every experiment in
//!   the repository is reproducible without external crates.
//!
//! # Example
//!
//! ```
//! use onesa_tensor::{Tensor, gemm};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = gemm::matmul(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod attention;
pub mod fixed;
pub mod gemm;
pub mod im2col;
pub mod parallel;
pub mod quant;
pub mod rng;
pub mod sparse;
pub mod stats;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::{tensor_fingerprint, Tensor};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
