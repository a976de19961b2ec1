//! Cycle-level simulator of the ONE-SA systolic array.
//!
//! The simulator models the microarchitecture of the paper's §III–IV:
//!
//! * a `D × D` grid of processing elements, each with a `T`-wide MAC
//!   vector and a multi-layer accumulator;
//! * the three-level buffer hierarchy and the DRAM channel
//!   ([`ArrayConfig`], [`BufferSizes`]);
//! * the L3 data-addressing module that implements Intermediate
//!   Parameter Fetching ([`ipf`]);
//! * the GEMM dataflow (output-stationary, `T`-wide K streaming) and the
//!   MHP dataflow (diagonal computation PEs, off-diagonal transmission
//!   PEs) — both event-driven ([`mod@array`]) and in closed form
//!   ([`analytic`]).
//!
//! The event-driven paths compute *real values* while counting cycles, so
//! every schedule is checked for functional equality against the
//! reference kernels in `onesa-tensor`; the closed forms are checked for
//! cycle equality against the event-driven paths.
//!
//! # Example
//!
//! ```
//! use onesa_sim::{ArrayConfig, analytic};
//!
//! let cfg = ArrayConfig::default(); // 8×8 PEs, 16 MACs each — the paper's design point
//! let stats = analytic::gemm_stats(&cfg, 128, 128, 128);
//! assert!(stats.gops() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod array;
mod config;
mod dram;
pub mod fifo;
pub mod ipf;
mod pe;
mod stats;

pub use config::{ArrayConfig, BufferSizes, ParamStaging};
pub use stats::{CycleBreakdown, ExecStats};
