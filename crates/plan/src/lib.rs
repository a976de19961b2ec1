//! The operator-graph **Program IR**: whole networks compiled to a
//! topologically-ordered list of array operations.
//!
//! ONE-SA's core claim is that *one* systolic array executes the entire
//! network — GEMMs natively, nonlinear operations through capped
//! piecewise linearization — by mode-switching. This crate makes that
//! claim a first-class software object: a [`Program`] is a list of
//! [`Op`]s over numbered value *slots*, with per-op shape inference, a
//! validator and modeled-MAC costing, plus two executors:
//!
//! * [`Program::run`] — execute one program solo (what `onesa-nn`'s
//!   `logits`/`predict` wrappers call after compiling a model);
//! * [`run_staged`] — execute *many concurrent programs stage by stage*,
//!   coalescing compatible ops across programs at **every** stage:
//!   GEMMs that share a constant weight matrix row-stack (or, for a
//!   shared constant left operand, column-stack) into one kernel call,
//!   and nonlinear/softmax/layer-norm ops that share a function, table
//!   granularity and parameters concatenate into one IPF + MHP pass.
//!   This is the general mechanism behind `onesa_core::BatchEngine`'s
//!   program scheduler — the whole network coalesces, not just the final
//!   shared-weight classifier.
//!
//! Between emission and execution sits the **optimizer**: an
//! ordered pass pipeline behind [`OptLevel`] (`cse`, which also shares
//! duplicate boundaries; `prune-pack`; the dead-slot sweep) that is
//! bit-identical to the raw emission. Compilation is memoized through
//! [`CompileCache`], and a program's op list, [`Program::consts`] and
//! execution plan are `Arc`-shared, so cloning a compiled program —
//! which the serving layer does once per request — copies no op and no
//! weight data.
//!
//! The IR sits *below* `onesa-nn` in the crate DAG so models can emit
//! programs (via [`Compile`]) while `onesa-core` re-exports everything
//! here as `onesa_core::plan` and schedules programs through its batch
//! and serve engines.
//!
//! # Building a program by hand
//!
//! A two-layer perceptron — GEMM, GELU, GEMM — over a single input slot:
//!
//! ```
//! use onesa_plan::{EvalMode, Op, Program, TableCache};
//! use onesa_cpwl::NonlinearFn;
//! use onesa_tensor::parallel::Parallelism;
//! use onesa_tensor::rng::Pcg32;
//!
//! let mut rng = Pcg32::seed_from_u64(7);
//! let w1 = rng.randn(&[16, 8], 1.0);
//! let w2 = rng.randn(&[8, 4], 1.0);
//!
//! let mut b = Program::builder("mlp", EvalMode::Exact);
//! let x = b.input(&[2, 16]);                    // [batch, features]
//! let w1 = b.constant(w1);
//! let w2 = b.constant(w2);
//! let h = b.push(Op::Gemm { bias: None, sparsity: None }, &[x, w1]);
//! let g = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[h]);
//! b.push(Op::Gemm { bias: None, sparsity: None }, &[g, w2]);
//! let program = b.finish()?;                    // validates + infers shapes
//!
//! assert_eq!(program.stages(), 3);
//! assert_eq!(program.output_shape(), &[2, 4]);
//! assert!(program.modeled_macs() > 0);
//!
//! let input = Pcg32::seed_from_u64(8).randn(&[2, 16], 1.0);
//! let run = program.run(&[input], Parallelism::Sequential, &mut TableCache::new())?;
//! assert_eq!(run.output.dims(), &[2, 4]);
//! assert_eq!(run.op_stats.len(), 3);            // one ExecStats per op
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod exec;
mod opt;
mod program;
pub mod wire;

pub use cache::CompileCache;
pub use exec::{run_staged, ProgramRun, StageGroups, StagedRun, TableCache};
pub use opt::{OptLevel, OptReport, OptTotals, PRUNE_BLOCK_COLS};
pub use program::{
    same_tensor, tensor_fingerprint, EvalMode, GemmSparsity, Op, OpNode, Operand, PoolKind,
    Precision, Program, ProgramBuilder,
};

/// A model that can compile itself into a [`Program`].
///
/// `Ctx` carries whatever per-request specialization the model needs —
/// an inference mode plus input geometry for a CNN, a sequence length
/// for a transformer, a graph for a GCN. The emitted program replays the
/// model's inference math op for op, so running it is bit-identical to
/// the model's direct layer-by-layer path (`onesa-nn` locks this in by
/// test for all three model families).
pub trait Compile<Ctx> {
    /// Compiles the whole network into a validated [`Program`].
    ///
    /// # Errors
    ///
    /// Shape errors if `Ctx` describes inputs the model cannot consume.
    fn compile(&self, ctx: Ctx) -> onesa_tensor::Result<Program>;

    /// Compiles and runs the optimizer pipeline at `level` (see
    /// [`OptLevel`]): what the serving-side wrappers call, usually through a
    /// [`CompileCache`].
    ///
    /// # Errors
    ///
    /// As for [`Compile::compile`].
    fn compile_optimized(&self, ctx: Ctx, level: OptLevel) -> onesa_tensor::Result<Program> {
        self.compile(ctx)?.optimize(level)
    }
}
