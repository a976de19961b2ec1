//! The ONE-SA engine: one systolic array that executes *every* phase of a
//! neural network — GEMMs natively, and nonlinear operations through
//! capped piecewise linearization lowered to Intermediate Parameter
//! Fetching + Matrix Hadamard Products.
//!
//! [`OneSa`] is a design point: an array configuration
//! ([`onesa_sim::ArrayConfig`]) with its FPGA cost ([`onesa_resources`])
//! and power model, which lowers whole-network [`Workload`]s into
//! execution reports — the machinery behind the paper's Fig 8, Fig 10
//! and Table IV. Tensors execute one way, as [`Program`]s: a
//! [`BatchEngine`] runs a queue of them on one array, and a
//! [`ServeEngine`] puts a live, sharded front door on top.
//!
//! # Example
//!
//! ```
//! use onesa_core::OneSa;
//! use onesa_sim::ArrayConfig;
//! use onesa_nn::workloads;
//!
//! let engine = OneSa::new(ArrayConfig::new(8, 16)); // the paper's design point
//! let report = engine.run_workload(&workloads::bert_base(64));
//! assert!(report.latency_ms() > 0.0);
//! assert!(report.gops() <= engine.config().peak_gops());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod flex;
mod report;

mod batch;
pub mod net;
pub mod serve;

/// The operator-graph Program IR (re-export of the `onesa-plan` crate).
///
/// Whole networks compile to [`plan::Program`]s (see
/// `onesa_nn::compile`) and execute through [`BatchEngine`]'s staged
/// scheduler, which coalesces compatible ops **across concurrent
/// programs at every stage** — shared-weight row-stacking and
/// shared-table concatenation per layer, not just at the classifier.
pub mod plan {
    pub use onesa_plan::*;
}

pub use batch::{
    BatchEngine, BatchRun, Latencies, Request, RequestId, RequestOutcome, ServingReport,
};
pub use engine::OneSa;
pub use flex::split_accelerator_cycles;
pub use net::{default_worker_path, ProcessConfig, Transport, WeightCacheStats};
pub use onesa_nn::workloads::Workload;
pub use onesa_plan::{Compile, Program, StageGroups};
pub use onesa_tensor::parallel::Parallelism;
pub use report::ExecutionReport;
pub use serve::{
    AdmissionPolicy, DegradeInfo, DegradePolicy, PoolPolicy, PowerSummary, RoutePolicy,
    ServeConfig, ServeEngine, ServeError, ServeSummary, ServedOutcome, ShardBackend, ShardPower,
    ShardSpec, ShardStats, Ticket, TicketId, TrySubmitError,
};
