//! Capped piecewise linearization (CPWL) of nonlinear functions.
//!
//! This crate implements the approximation scheme at the core of the
//! ONE-SA paper (§III): a continuous nonlinear function `y = f(x)` is cut
//! into uniform segments; within segment `s` the function is replaced by
//! the chord `y = k_s·x + b_s`; inputs outside the tabulated range are
//! *capped* to the boundary segments. Evaluating a whole matrix `X` then
//! becomes the paper's three steps:
//!
//! 1. compute the segment matrix `S` (data-addressing: a right shift when
//!    the segment length is a power of two),
//! 2. gather the slope/intercept matrices `K`, `B` (Intermediate
//!    Parameter Fetching),
//! 3. evaluate `Y = X ⊙ K + B` (Matrix Hadamard Product).
//!
//! [`PwlTable::ipf`] materialises steps 1–2 as the simulator consumes
//! them; what the host *serves* is the three steps fused into one
//! vectorised sweep over slices (behind [`PwlTable::eval_tensor`],
//! [`PwlTable::eval_in_place`] and every [`ops::TableSet`] operator),
//! bit-identical to the step-by-step form.
//!
//! # Example
//!
//! ```
//! use onesa_cpwl::{NonlinearFn, PwlTable};
//!
//! let table = PwlTable::builder(NonlinearFn::Gelu).granularity(0.25).build()?;
//! let y = table.eval(1.3);
//! assert!((y - 1.1743).abs() < 0.05); // GELU(1.3) ≈ 1.1743
//! # Ok::<(), onesa_cpwl::CpwlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod functions;
mod table;

pub mod analysis;
pub mod ops;

pub use error::CpwlError;
pub use functions::NonlinearFn;
pub use table::{IpfOutput, PwlTable, PwlTableBuilder, SegmentIndexer, MAX_SEGMENTS};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, CpwlError>;
