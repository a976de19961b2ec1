//! The Program IR: ops, slots, shape inference, validation and costing.

use crate::exec::Plan;
use crate::opt::OptReport;
use crate::wire::{Wire, WireSink};
use onesa_cpwl::NonlinearFn;
use onesa_resources::array::ArrayResources;
use onesa_resources::power::PowerModel;
use onesa_resources::Design;
use onesa_sim::{analytic, ArrayConfig, CycleBreakdown, ExecStats};
use onesa_tensor::im2col::Conv2dGeometry;
pub use onesa_tensor::tensor_fingerprint;
use onesa_tensor::{Result, Tensor, TensorError};
use std::sync::Arc;

/// How a program evaluates its nonlinear operations — the compile-time
/// image of `onesa_nn::infer::InferenceMode` (the IR sits below `nn` in
/// the crate DAG, so it carries the mode by value, not by reference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvalMode {
    /// Reference floating-point arithmetic.
    Exact,
    /// CPWL tables at one granularity. `quantize` records whether the
    /// compiler emitted INT16 [`Op::Quantize`] boundaries (the executor
    /// itself only reads `granularity`).
    Cpwl {
        /// Shared table granularity.
        granularity: f32,
        /// Whether layer boundaries round-trip through INT16.
        quantize: bool,
    },
}

impl EvalMode {
    /// The table granularity, if the mode uses CPWL tables.
    pub fn granularity(&self) -> Option<f32> {
        match self {
            EvalMode::Exact => None,
            EvalMode::Cpwl { granularity, .. } => Some(*granularity),
        }
    }

    /// Coalescing key: programs whose nonlinears may share an IPF pass
    /// hash identically (exact, or CPWL at the same granularity).
    pub(crate) fn coalesce_key(&self) -> u64 {
        match self {
            EvalMode::Exact => 1,
            EvalMode::Cpwl { granularity, .. } => 2 | (u64::from(granularity.to_bits()) << 8),
        }
    }
}

/// Where an op reads a value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A runtime value: a program input or an earlier op's output.
    Slot(usize),
    /// A compile-time constant (weights, attention projections, Â, …),
    /// indexed into [`Program::consts`].
    Const(usize),
}

/// The integer width an [`Op::Quantize`] boundary rounds through.
///
/// [`Precision::Int16`] is the paper's evaluation precision and the
/// default every compiler emits; [`Precision::Int8`] is the coarser rung
/// below it for models that tolerate the larger step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Symmetric INT16 round trip (`onesa_tensor::quant::QuantTensor`).
    Int16,
    /// Symmetric INT8 round trip (`onesa_tensor::quant::QuantTensor8`).
    Int8,
}

/// Column-block sparsity attribute of an [`Op::Gemm`] whose (constant)
/// right operand has zero column blocks. The optimizer's `prune-pack`
/// pass attaches this after scanning the weight; the executor then runs
/// the sparsity-aware kernel (`onesa_tensor::sparse`) and the cost model
/// credits the skipped blocks. Validation re-scans the weight, so an
/// attribute that disagrees with the constant (e.g. corrupted wire
/// bytes) fails typed at build time, never inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSparsity {
    /// Column-block width the weight was scanned at.
    pub block_cols: usize,
    /// Column blocks holding data.
    pub nnz_blocks: usize,
    /// Total column blocks (`ceil(n / block_cols)`).
    pub total_blocks: usize,
    /// Surviving columns across the non-zero blocks (edge blocks are
    /// clipped, so this is not always `nnz_blocks · block_cols`).
    pub nnz_cols: usize,
}

impl GemmSparsity {
    /// Column blocks the kernel skips entirely.
    pub(crate) fn skipped_blocks(&self) -> usize {
        self.total_blocks - self.nnz_blocks
    }
}

/// Which pooling reduction an [`Op::Pool`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Global average pooling: `[C, H, W] → [1, C]` (mean over `H·W`
    /// per channel — a GEMM against a `1/(H·W)` vector on the array).
    GlobalAvg,
    /// Mean over rows: `[L, D] → [1, D]` (transformer mean-pooling).
    MeanRows,
}

/// One operation of the IR.
///
/// The set covers everything the repository's three model families need
/// end to end. GEMM-bearing ops run on the array natively; `Nonlinear`,
/// `Softmax` and `LayerNorm` lower to IPF + MHP passes per the paper,
/// and `Attention` to per-head GEMMs around a softmax lowering;
/// `Affine`/`Add` are bare MHP passes; the rest are data-layout
/// movements costed at zero array cycles.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `out = a · b` (+ per-column `bias`). Inputs: `[a, b]`; either
    /// operand may be a constant. A constant right operand is the
    /// shared-weight case the staged scheduler row-stacks across
    /// programs; a constant left operand (a GCN's Â) column-stacks.
    Gemm {
        /// Per-output-column bias, applied after the product.
        bias: Option<Vec<f32>>,
        /// Column-block sparsity of a constant right operand, attached
        /// by the optimizer's `prune-pack` pass (`None` = dense). The
        /// validator re-checks the attribute against the weight.
        sparsity: Option<GemmSparsity>,
    },
    /// A pointwise nonlinear evaluation (IPF + MHP under CPWL modes,
    /// the exact scalar function otherwise). One input, any shape.
    Nonlinear(NonlinearFn),
    /// Row-wise softmax over a matrix (the paper's 6-step lowering).
    Softmax,
    /// Row-wise layer normalization with a learned affine.
    LayerNorm {
        /// Scale γ (length = row width).
        gamma: Vec<f32>,
        /// Shift β (length = row width).
        beta: Vec<f32>,
        /// Variance epsilon.
        eps: f32,
    },
    /// Unrolls a `[C, H, W]` input into the `[OH·OW, C·k·k]` patch
    /// matrix (convolution-as-GEMM).
    Im2col(Conv2dGeometry),
    /// Reassembles a `[OH·OW, C]` GEMM result into a `[C, OH, OW]`
    /// feature map.
    Col2im {
        /// Output channels.
        channels: usize,
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
    },
    /// Elementwise sum of two same-shape inputs (residual connections).
    Add,
    /// Per-channel affine `y = x⊙k + b` over a `[C, H, W]` map — folded
    /// inference-time batch norm, a single MHP on the array.
    Affine {
        /// Per-channel scale.
        k: Vec<f32>,
        /// Per-channel shift.
        b: Vec<f32>,
    },
    /// A per-channel affine followed by a pointwise nonlinear, executed
    /// as **one** MHP pass: the IPF stage folds the affine's `(k, b)`
    /// into the table segment parameters, so the array evaluates
    /// `f(k·x + b)` without a separate affine pass. No compiler or
    /// optimizer pass emits this op; it is built by hand. It
    /// reassociates the multiply-add chain, so CPWL results may differ
    /// from the unfused pair by a few ULPs (exact mode is unchanged).
    AffineNonlinear {
        /// Per-channel scale of the folded affine.
        k: Vec<f32>,
        /// Per-channel shift of the folded affine.
        b: Vec<f32>,
        /// The nonlinear applied to the affine output.
        func: NonlinearFn,
    },
    /// A pooling reduction (see [`PoolKind`]).
    Pool(PoolKind),
    /// Quantize→dequantize round trip at a layer boundary, at the
    /// chosen [`Precision`] rung ([`Precision::Int16`] is the paper's
    /// evaluation precision).
    Quantize {
        /// Integer width of the round trip.
        precision: Precision,
    },
    /// Embedding lookup: inputs `[ids, table, pos]` where `ids` is a
    /// `[1, L]` tensor of token indices (exact non-negative integers) and
    /// `table`/`pos` are the `[vocab, D]` / `[max_len, D]` tables; output
    /// row `i` sums token row `ids[i]` and positional row `offset + i`.
    /// A whole prompt embeds from `offset` 0; a decode step's single new
    /// token sits at absolute position `ctx`.
    EmbedAt {
        /// Absolute position of the first input token.
        offset: usize,
    },
    /// Copies rows `start .. start+len` of a matrix (a prefill's last-row
    /// pick: only the final position feeds the LM head).
    SliceRows {
        /// First row.
        start: usize,
        /// Number of rows.
        len: usize,
    },
    /// Concatenates same-width matrices row-wise (KV-cache append: a
    /// session's cached `[ctx, D]` rows followed by the step's new
    /// rows). Any number of inputs; a data-layout movement costed at
    /// zero array cycles.
    ConcatRows,
    /// Row-wise causal softmax over a `[M, offset+M]` score matrix: row
    /// `i` softmaxes columns `0 ..= offset + i` (its own and all earlier
    /// positions) and writes exact `0.0` elsewhere. Masked entries never
    /// enter the lowering, so each visible prefix is bit-identical to a
    /// plain [`Op::Softmax`] over that prefix alone. No compiler emits it
    /// ([`Op::Attention`] masks its own scores the same way).
    CausalSoftmax {
        /// Number of context columns preceding the first query row's own
        /// position (`0` for pure prefill).
        offset: usize,
    },
    /// Per-row INT16 quantize→dequantize round trip over a matrix: each
    /// row is scaled independently (per-token activation quantization).
    /// Unlike [`Op::Quantize`], whose single tensor-wide scale couples
    /// every element to the whole tensor's maximum, the row-wise round
    /// trip is row-decomposable — row `i`'s result is a pure function of
    /// row `i` — which is what lets a KV-cached decode step reproduce a
    /// recompute-from-scratch run bit for bit at any context length. The
    /// causal-LM compiler emits this at every layer boundary.
    QuantizeRows,
    /// Multi-head scaled dot-product attention over inputs `[q, k, v]`: a
    /// `[M, D]` query against `[N, D]` keys and values, output `[M, D]`
    /// whose head-`h` columns are `softmax(q_h · k_hᵀ · scale) · v_h` over
    /// that head's `D / heads` columns (`onesa_tensor::attention`). Under
    /// `causal`, query row `i` sees key rows `0 ..= (N − M) + i` — the
    /// first `N − M` are context ahead of the first query row — and each
    /// visible prefix is softmaxed alone, as [`Op::CausalSoftmax`] does;
    /// a prompt's prefill is `N = M`. Bit-identical to slicing the heads,
    /// the two GEMMs, the scale, the row softmax and a `+=` merge. On the
    /// array, per head: two GEMMs, an MHP scale pass and the softmax
    /// lowering.
    Attention {
        /// Number of heads; divides `D`.
        heads: usize,
        /// The scores' scale (the compilers emit `1/√(D/heads)`).
        scale: f32,
        /// Whether query rows see only their own and earlier positions.
        causal: bool,
    },
}

impl Op {
    /// Number of inputs the op expects (`None` = variadic, at least 1).
    fn arity(&self) -> Option<usize> {
        match self {
            Op::Gemm { .. } | Op::Add => Some(2),
            Op::EmbedAt { .. } | Op::Attention { .. } => Some(3),
            Op::ConcatRows => None,
            _ => Some(1),
        }
    }
}

/// One node of a [`Program`]: an op plus where it reads its inputs.
/// Node `i` writes slot `n_inputs + i`; nodes are topologically ordered
/// by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// The operation.
    pub op: Op,
    /// Input operands, in op-defined order.
    pub inputs: Vec<Operand>,
}

/// A compiled whole-network request: program inputs, constants and a
/// topologically-ordered op list. See the [crate docs](crate) for the
/// execution model and a worked construction example.
///
/// A `Program` value is **sealed**: built
/// ([`ProgramBuilder::finish`]), re-granularized
/// ([`Program::with_granularity`]) or decoded (`wire::get_program`), it
/// passed [`Program::validate`]
/// once and is immutable afterwards. The executor and the engines
/// therefore never re-validate a program; they check only the tensors a
/// caller hands them ([`Program::check_inputs`]).
///
/// Everything a program holds is behind an `Arc`, so cloning one — which
/// the serving layer does once per request — copies no op, shape or
/// weight: the clone shares them, and its execution plan too.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: Arc<str>,
    mode: EvalMode,
    input_shapes: Arc<[Vec<usize>]>,
    consts: Arc<[Arc<Tensor>]>,
    /// [`tensor_fingerprint`] of each constant, read from its storage
    /// when the program is built (hashed there only the first time the
    /// buffer is): the program fingerprint and the staged scheduler's
    /// weight-group keys read these.
    const_fingerprints: Arc<[u64]>,
    nodes: Arc<[OpNode]>,
    /// Input-slot indices holding session-resident state (per-layer KV
    /// tensors), in session-state order. Empty for stateless programs.
    session_inputs: Arc<[usize]>,
    /// Slot indices whose values the serving layer writes back to the
    /// session after a run (the appended KV tensors), in the same
    /// session-state order as [`Program::session_inputs`].
    session_outputs: Arc<[usize]>,
    /// Cached at [`ProgramBuilder::finish`]: the serving layer reads
    /// both on every admission/routing decision, and a program is
    /// immutable once built.
    fingerprint: u64,
    modeled_macs: u64,
    /// What the executor needs to know about the op list, derived when
    /// the program is sealed.
    plan: Arc<Plan>,
    /// Pass accounting of the optimizer run that produced this program
    /// (`None` for a freshly-emitted, unoptimized program).
    pub(crate) opt: Option<Arc<OptReport>>,
}

/// An `Im2col` → `Gemm` → `Col2im` chain — a convolution as the compilers
/// emit it — that the executor may run as one
/// `onesa_tensor::parallel::conv2d` sweep, by the node indices of its three
/// links. The `Gemm` is dense and multiplies the patch matrix (its left
/// operand) by a constant; the patch matrix and the product are each read
/// exactly once, by the next link, and neither is a session output, so no
/// one but the chain ever sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvChain {
    pub(crate) im2col: usize,
    pub(crate) gemm: usize,
    pub(crate) col2im: usize,
}

/// Incrementally builds a [`Program`]; see [`Program::builder`].
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    mode: EvalMode,
    input_shapes: Vec<Vec<usize>>,
    consts: Vec<Arc<Tensor>>,
    nodes: Vec<OpNode>,
    session_inputs: Vec<usize>,
    session_outputs: Vec<usize>,
}

impl ProgramBuilder {
    /// Declares a program input with the given shape, returning its
    /// operand. All inputs must be declared before the first op.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ProgramBuilder::push`] (slot numbering
    /// places all inputs before all op outputs).
    pub fn input(&mut self, shape: &[usize]) -> Operand {
        assert!(
            self.nodes.is_empty(),
            "declare all program inputs before pushing ops"
        );
        self.input_shapes.push(shape.to_vec());
        Operand::Slot(self.input_shapes.len() - 1)
    }

    /// Declares a session-resident input (a KV-cache tensor the serving
    /// layer binds from per-session state rather than from the request),
    /// returning its operand. To the executor a session input is an
    /// ordinary input; the recorded index tells the serving layer which
    /// session tensor to bind, in session-state order.
    ///
    /// # Panics
    ///
    /// As for [`ProgramBuilder::input`].
    pub fn session_input(&mut self, shape: &[usize]) -> Operand {
        let op = self.input(shape);
        if let Operand::Slot(s) = op {
            self.session_inputs.push(s);
        }
        op
    }

    /// Marks an already-declared input as session-resident (the wire
    /// decoder's path; compilers use [`ProgramBuilder::session_input`]).
    ///
    /// # Panics
    ///
    /// Panics on a `Const` operand.
    pub(crate) fn mark_session_input(&mut self, x: Operand) {
        match x {
            Operand::Slot(s) => self.session_inputs.push(s),
            Operand::Const(_) => panic!("session inputs must be slots"),
        }
    }

    /// Marks an op output as session state to write back after each run
    /// (the appended KV tensor), in the same session-state order as the
    /// session inputs.
    ///
    /// # Panics
    ///
    /// Panics on a `Const` operand.
    pub fn mark_session_output(&mut self, x: Operand) {
        match x {
            Operand::Slot(s) => self.session_outputs.push(s),
            Operand::Const(_) => panic!("session outputs must be slots"),
        }
    }

    /// Registers a compile-time constant tensor, returning its operand. A
    /// clone of a tensor the caller holds shares its storage, so
    /// registering one copies no data.
    pub fn constant(&mut self, t: Tensor) -> Operand {
        self.constant_shared(Arc::new(t))
    }

    /// Registers an already-shared constant, keeping its `Arc` — the path
    /// the optimizer and the wire decoder use to carry a constant from one
    /// program into another with its identity.
    pub(crate) fn constant_shared(&mut self, t: Arc<Tensor>) -> Operand {
        self.consts.push(t);
        Operand::Const(self.consts.len() - 1)
    }

    /// Appends an op reading `inputs`, returning the operand of its
    /// output slot.
    pub fn push(&mut self, op: Op, inputs: &[Operand]) -> Operand {
        self.nodes.push(OpNode {
            op,
            inputs: inputs.to_vec(),
        });
        Operand::Slot(self.input_shapes.len() + self.nodes.len() - 1)
    }

    /// Validates the program (topology, arities, shape inference) and
    /// returns it.
    ///
    /// # Errors
    ///
    /// Shape or argument errors from [`Program::validate`].
    pub fn finish(self) -> Result<Program> {
        let mut program = Program {
            name: self.name.into(),
            mode: self.mode,
            input_shapes: self.input_shapes.into(),
            const_fingerprints: self.consts.iter().map(|t| tensor_fingerprint(t)).collect(),
            consts: self.consts.into(),
            nodes: self.nodes.into(),
            session_inputs: self.session_inputs.into(),
            session_outputs: self.session_outputs.into(),
            fingerprint: 0,
            modeled_macs: 0,
            plan: Arc::default(),
            opt: None,
        };
        program.seal()?;
        Ok(program)
    }
}

impl Program {
    /// Starts building a program evaluated under `mode`.
    pub fn builder(name: &str, mode: EvalMode) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            mode,
            input_shapes: Vec::new(),
            consts: Vec::new(),
            nodes: Vec::new(),
            session_inputs: Vec::new(),
            session_outputs: Vec::new(),
        }
    }

    /// The program's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The evaluation mode the program was compiled for.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Number of program inputs.
    pub(crate) fn n_inputs(&self) -> usize {
        self.input_shapes.len()
    }

    /// Expected shapes of the program inputs.
    pub fn input_shapes(&self) -> &[Vec<usize>] {
        &self.input_shapes
    }

    /// The registered constants (shared, so cloning a program never
    /// copies weight data).
    pub fn consts(&self) -> &[Arc<Tensor>] {
        &self.consts
    }

    /// The [`tensor_fingerprint`] of each constant, recorded when the
    /// program was built (reading them never rehashes a tensor): the keys
    /// the wire names the constants by.
    pub(crate) fn const_fingerprints(&self) -> &[u64] {
        &self.const_fingerprints
    }

    /// The convolution chain node `stage` is a link of, if any.
    pub(crate) fn conv_chain(&self, stage: usize) -> Option<ConvChain> {
        self.plan.chain(stage)
    }

    /// What the executor knows about the op list, planned when the
    /// program was sealed.
    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }

    /// How many kernel packs this program's constants keep in their
    /// storage — one per layout a run (of this program, of a clone, or of
    /// any program holding a clone of the same weight) has asked for: a
    /// constant left operand's, a constant right operand's, a sparse
    /// weight's and a convolution weight's. A pack is made once per
    /// buffer, however many runs there were; a *copy* of a weight starts
    /// with none.
    pub fn packed_consts(&self) -> usize {
        self.consts.iter().map(|c| c.packs()).sum()
    }

    /// Pass accounting of the [`Program::optimize`] run that
    /// produced this program; `None` for an unoptimized program.
    pub fn opt_report(&self) -> Option<&OptReport> {
        self.opt.as_deref()
    }

    /// Input-slot indices the serving layer binds from per-session state
    /// (per-layer KV tensors), in session-state order. Empty for
    /// stateless programs.
    pub fn session_inputs(&self) -> &[usize] {
        &self.session_inputs
    }

    /// Slot indices written back to the session after each run (the
    /// appended KV tensors), in the same order as
    /// [`Program::session_inputs`].
    pub fn session_outputs(&self) -> &[usize] {
        &self.session_outputs
    }

    /// Whether the program carries session-resident state.
    pub fn is_session(&self) -> bool {
        !self.session_inputs.is_empty() || !self.session_outputs.is_empty()
    }

    /// The topologically-ordered op nodes.
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Number of stages (= ops): the staged scheduler aligns concurrent
    /// programs stage index by stage index.
    pub fn stages(&self) -> usize {
        self.nodes.len()
    }

    /// Shape of the program output (the last op's output).
    pub fn output_shape(&self) -> Vec<usize> {
        self.plan.shapes.last().expect("non-empty program").clone()
    }

    /// Validates the whole program: every op's arity, operand indices
    /// (slots must be program inputs or *earlier* op outputs), shape
    /// inference across all nodes, at most 2³² elements per slot and
    /// constant, mode sanity (a positive, finite CPWL granularity) and —
    /// under a CPWL mode — table coverage of every nonlinear op (see
    /// `TableSet::supports`).
    ///
    /// Every constructor runs this before handing a program out, so on a
    /// `Program` a caller holds it always succeeds; it stays public as
    /// the statement of what "sealed" guarantees.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] or [`TensorError::ShapeMismatch`]
    /// naming the offending op.
    pub fn validate(&self) -> Result<()> {
        self.checked_slot_shapes().map(|_| ())
    }

    /// [`Program::validate`], returning the inferred [`Program::slot_shapes`].
    fn checked_slot_shapes(&self) -> Result<Vec<Vec<usize>>> {
        if let EvalMode::Cpwl { granularity, .. } = self.mode {
            if !(granularity.is_finite() && granularity > 0.0) {
                return Err(TensorError::InvalidArgument(
                    "program granularity must be positive and finite",
                ));
            }
            // Table coverage: an op referencing a function outside the
            // standard table set must be rejected here, not at run time
            // (where it would fail an engine's whole batch).
            for node in self.nodes.iter() {
                let func = match node.op {
                    Op::Nonlinear(func) | Op::AffineNonlinear { func, .. } => func,
                    _ => continue,
                };
                if !onesa_cpwl::ops::TableSet::supports(func) {
                    return Err(TensorError::InvalidArgument(
                        "program nonlinear not in the CPWL table set",
                    ));
                }
            }
        }
        if self.nodes.is_empty() {
            return Err(TensorError::InvalidArgument(
                "program must contain at least one op",
            ));
        }
        // The cost model (and the array schedules it mirrors) assumes
        // every dimension is at least 1. A zero-sized shape — typically
        // from corrupted wire bytes — must fail typed here, not
        // underflow inside the cycle model.
        if self
            .input_shapes
            .iter()
            .any(|s| s.is_empty() || s.contains(&0))
        {
            return Err(TensorError::InvalidArgument(
                "program input has a zero dimension",
            ));
        }
        if self.consts.iter().any(|c| c.dims().contains(&0)) {
            return Err(TensorError::InvalidArgument(
                "program constant has a zero dimension",
            ));
        }
        // A sparsity attribute is a claim about a constant weight; it is
        // re-checked against the actual tensor here so corrupted or
        // hand-forged attributes (wire bytes are untrusted) fail typed
        // at build time, never inside the sparse kernel or the cost
        // model.
        for node in self.nodes.iter() {
            let Op::Gemm {
                sparsity: Some(s), ..
            } = &node.op
            else {
                continue;
            };
            let Some(&Operand::Const(c)) = node.inputs.get(1) else {
                return Err(TensorError::InvalidArgument(
                    "sparse GEMM weight must be a program constant",
                ));
            };
            let w = self.consts.get(c).ok_or(TensorError::InvalidArgument(
                "op reads an unregistered constant",
            ))?;
            let (nnz, total, cols) = onesa_tensor::sparse::column_block_stats(w, s.block_cols)?;
            if (s.nnz_blocks, s.total_blocks, s.nnz_cols) != (nnz, total, cols) {
                return Err(TensorError::InvalidArgument(
                    "sparsity attribute disagrees with the constant weight",
                ));
            }
        }
        // Session metadata (set by the builder, but also rebuilt by the
        // wire decoder from untrusted bytes): inputs must name declared
        // inputs, outputs must name op-output slots, no repeats.
        for &i in self.session_inputs.iter() {
            if i >= self.input_shapes.len() {
                return Err(TensorError::InvalidArgument(
                    "session input is not a program input",
                ));
            }
        }
        for &s in self.session_outputs.iter() {
            if s < self.input_shapes.len() || s >= self.input_shapes.len() + self.nodes.len() {
                return Err(TensorError::InvalidArgument(
                    "session output is not an op output slot",
                ));
            }
        }
        for list in [&self.session_inputs, &self.session_outputs] {
            let mut seen = list.to_vec();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != list.len() {
                return Err(TensorError::InvalidArgument(
                    "session slot listed more than once",
                ));
            }
        }
        let shapes = self.slot_shapes()?;
        let consts = self.consts.iter().map(|c| c.dims());
        let mut every = shapes.iter().map(Vec::as_slice).chain(consts);
        if !every.all(within_cap) {
            return Err(TensorError::InvalidArgument(
                "program slot or constant exceeds 2^32 elements",
            ));
        }
        Ok(shapes)
    }

    /// Infers the shape of every slot (inputs first, then one per op).
    ///
    /// # Errors
    ///
    /// As for [`Program::validate`].
    pub fn slot_shapes(&self) -> Result<Vec<Vec<usize>>> {
        let mut shapes: Vec<Vec<usize>> = self.input_shapes.to_vec();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(arity) = node.op.arity() {
                if node.inputs.len() != arity {
                    return Err(TensorError::InvalidArgument("op arity mismatch"));
                }
            } else if node.inputs.is_empty() {
                return Err(TensorError::InvalidArgument(
                    "variadic op needs at least one input",
                ));
            }
            let mut ins: Vec<&[usize]> = Vec::with_capacity(node.inputs.len());
            for operand in &node.inputs {
                match *operand {
                    Operand::Slot(s) => {
                        if s >= self.input_shapes.len() + i {
                            return Err(TensorError::InvalidArgument(
                                "op reads a slot no earlier node produces",
                            ));
                        }
                        ins.push(&shapes[s]);
                    }
                    Operand::Const(c) => {
                        let t = self.consts.get(c).ok_or(TensorError::InvalidArgument(
                            "op reads an unregistered constant",
                        ))?;
                        ins.push(t.dims());
                    }
                }
            }
            shapes.push(infer_shape(&node.op, &ins)?);
        }
        Ok(shapes)
    }

    /// Modeled per-op execution statistics of a *solo* run on `cfg`
    /// (what each op would cost alone; the staged scheduler reports the
    /// coalesced cost separately).
    ///
    /// # Errors
    ///
    /// As for [`Program::validate`].
    pub fn op_stats(&self, cfg: &ArrayConfig) -> Result<Vec<ExecStats>> {
        Ok(self
            .plan
            .read_solo_stats(cfg, || self.solo_op_stats(cfg), <[_]>::to_vec))
    }

    /// Modeled execution statistics of a *solo* run on `cfg`: the merge
    /// of [`Program::op_stats`], read without copying them.
    ///
    /// # Errors
    ///
    /// As for [`Program::validate`].
    pub fn solo_stats(&self, cfg: &ArrayConfig) -> Result<ExecStats> {
        let idle = ExecStats::new(cfg, CycleBreakdown::default(), 0, 0);
        Ok(self.plan.read_solo_stats(
            cfg,
            || self.solo_op_stats(cfg),
            |ops| ops.iter().fold(idle, |acc, s| acc.merged(s)),
        ))
    }

    /// [`Program::op_stats`], worked out op by op.
    fn solo_op_stats(&self, cfg: &ArrayConfig) -> Vec<ExecStats> {
        let shapes = &self.plan.shapes;
        let base = self.input_shapes.len();
        let dims = |operand: &Operand| match *operand {
            Operand::Slot(s) => &shapes[s][..],
            Operand::Const(c) => self.consts[c].dims(),
        };
        let mut ins: Vec<&[usize]> = Vec::new();
        let mut stats = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            ins.clear();
            ins.extend(node.inputs.iter().map(dims));
            stats.push(op_cost(&node.op, &ins, &shapes[base + i], cfg));
        }
        stats
    }

    /// Total modeled array work in MAC-equivalents — the admission and
    /// routing weight of every request, since a bare GEMM or nonlinear
    /// lowers to a one-op program. Cached at build time.
    ///
    /// The weight is the per-op MAC count of [`Program::op_stats`] plus,
    /// under a CPWL mode, the L3 table-preload footprint: two words
    /// (`k`, `b`) per segment per table the program stages (see
    /// `TableSet::preload_segments`). The footprint shrinks with coarser
    /// granularity, so a degraded recompile of the same program models
    /// strictly less admission work — which is what lets overloaded
    /// admission windows fit more degraded requests.
    pub fn modeled_macs(&self) -> u64 {
        self.modeled_macs
    }

    /// The CPWL table-preload MAC-equivalents folded into
    /// [`Program::modeled_macs`]: `2 · segments(func, g)` summed over
    /// every table-staging op. Zero for exact-mode programs.
    pub(crate) fn staging_macs(&self) -> u64 {
        let Some(g) = self.mode.granularity() else {
            return 0;
        };
        let preload = |func: NonlinearFn| {
            onesa_cpwl::ops::TableSet::preload_segments(func, g).unwrap_or(0) as u64 * 2
        };
        self.nodes
            .iter()
            .map(|node| match node.op {
                Op::Nonlinear(func) | Op::AffineNonlinear { func, .. } => preload(func),
                Op::Softmax | Op::CausalSoftmax { .. } => {
                    preload(NonlinearFn::Exp) + preload(NonlinearFn::Reciprocal)
                }
                // Every head's softmax stages its tables.
                Op::Attention { heads, .. } => {
                    heads as u64 * (preload(NonlinearFn::Exp) + preload(NonlinearFn::Reciprocal))
                }
                Op::LayerNorm { .. } => preload(NonlinearFn::Rsqrt),
                _ => 0,
            })
            .sum()
    }

    /// Validates the program and fills the cached build-time metadata
    /// (fingerprint + modeled MAC-equivalents).
    fn seal(&mut self) -> Result<()> {
        let shapes = self.checked_slot_shapes()?;
        self.fingerprint = self.compute_fingerprint();
        self.plan = Arc::new(Plan::derive(self, shapes));
        // MAC counts depend only on shapes, not on the array config.
        self.modeled_macs = self
            .op_stats(&ArrayConfig::default())?
            .iter()
            .map(|s| s.macs)
            .chain([self.staging_macs()])
            .try_fold(0u64, u64::checked_add)
            .ok_or(TensorError::InvalidArgument(
                "program modeled MACs overflow",
            ))?;
        Ok(())
    }

    /// Every [`ConvChain`] of the op list (see there for the conditions).
    pub(crate) fn derive_conv_chains(&self) -> Vec<ConvChain> {
        let base = self.input_shapes.len();
        let mut reads = vec![0usize; base + self.nodes.len()];
        for node in self.nodes.iter() {
            for operand in &node.inputs {
                if let Operand::Slot(s) = *operand {
                    reads[s] += 1;
                }
            }
        }
        // A slot only its next link reads, and not written back to a session.
        let private = |slot: usize| reads[slot] == 1 && !self.session_outputs.contains(&slot);
        let mut chains = Vec::new();
        for (gemm, node) in self.nodes.iter().enumerate() {
            let Op::Gemm { sparsity: None, .. } = node.op else {
                continue;
            };
            let [Operand::Slot(cols), Operand::Const(_)] = node.inputs[..] else {
                continue;
            };
            let is_im2col = |&i: &usize| matches!(self.nodes[i].op, Op::Im2col(_));
            let Some(im2col) = cols.checked_sub(base).filter(is_im2col) else {
                continue;
            };
            if !(private(cols) && private(base + gemm)) {
                continue;
            }
            let product = [Operand::Slot(base + gemm)];
            let col2im = self
                .nodes
                .iter()
                .position(|n| matches!(n.op, Op::Col2im { .. }) && n.inputs[..] == product[..]);
            if let Some(col2im) = col2im {
                chains.push(ConvChain {
                    im2col,
                    gemm,
                    col2im,
                });
            }
        }
        chains
    }

    /// Re-compiles the program at a different CPWL granularity — the
    /// serving layer's degrade ladder. The op list and every constant
    /// stay shared (zero copies or weight rehashes); the fingerprint, the
    /// plan and the modeled MAC-equivalents are recomputed, so the result
    /// coalesces, caches and admission-weighs
    /// exactly like a program compiled at `granularity` from scratch.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for an exact-mode program (there
    /// is no table granularity to change) or a non-positive/non-finite
    /// `granularity`.
    pub fn with_granularity(&self, granularity: f32) -> Result<Program> {
        let EvalMode::Cpwl { quantize, .. } = self.mode else {
            return Err(TensorError::InvalidArgument(
                "cannot re-granularize an exact-mode program",
            ));
        };
        let mode = EvalMode::Cpwl {
            granularity,
            quantize,
        };
        self.retargeted(mode)
    }

    fn retargeted(&self, mode: EvalMode) -> Result<Program> {
        let mut program = Program {
            mode,
            ..self.clone()
        };
        program.seal()?;
        Ok(program)
    }

    /// Modeled energy of each op in joules on `cfg`'s array: the
    /// calibrated Virtex-7 power model (`onesa_resources::power`)
    /// evaluated at the op's MAC utilization for the op's solo seconds,
    /// over the resource cost of a `cfg`-sized ONE-SA. Zero-cycle data
    /// movements cost zero energy.
    ///
    /// # Errors
    ///
    /// As for [`Program::validate`].
    pub(crate) fn op_energy(&self, cfg: &ArrayConfig) -> Result<Vec<f64>> {
        let model = PowerModel::virtex7();
        let cost = ArrayResources::calibrated().total(Design::OneSa, cfg.dim, cfg.macs_per_pe);
        Ok(self
            .op_stats(cfg)?
            .iter()
            .map(|s| model.energy_joules(&cost, s.seconds(), s.utilization(cfg)))
            .collect())
    }

    /// Total modeled energy in joules of a solo run on `cfg`
    /// (the sum of its ops' energies).
    ///
    /// # Errors
    ///
    /// As for [`Program::validate`].
    pub fn modeled_energy(&self, cfg: &ArrayConfig) -> Result<f64> {
        Ok(self.op_energy(cfg)?.iter().sum())
    }

    /// Structural fingerprint: an FNV-1a hash of the program's wire encoding
    /// — its mode, its op list with every operand, each constant's
    /// [`tensor_fingerprint`] and, for a session program, its input
    /// shapes and session wiring; never its name. Programs compiled from
    /// the same model under the same mode hash identically, so the
    /// serving layer's weight-affinity router keeps them on one shard
    /// where their per-stage GEMMs and tables coalesce. Cached at build
    /// time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Column-block totals over the program's sparse GEMMs: `(skipped,
    /// total)` blocks. `(0, 0)` for a program with no sparsity
    /// attributes.
    pub fn sparse_blocks(&self) -> (u64, u64) {
        let mut skipped = 0u64;
        let mut total = 0u64;
        for node in self.nodes.iter() {
            if let Op::Gemm {
                sparsity: Some(s), ..
            } = &node.op
            {
                skipped += s.skipped_blocks() as u64;
                total += s.total_blocks as u64;
            }
        }
        (skipped, total)
    }

    fn compute_fingerprint(&self) -> u64 {
        let mut h = FnvSink(FNV_OFFSET);
        self.mode.put(&mut h);
        OpNode::put_seq(&self.nodes, &mut h);
        u64::put_seq(&self.const_fingerprints, &mut h);
        // Session-bearing programs (per-context decode steps) share one
        // op list across context lengths, so they also hash their input
        // shapes and session wiring. A stateless program does not, so
        // every row count of one `[rows, k] · W` GEMM is one program to
        // weight-affinity routing and to the degrade memo.
        if self.is_session() {
            Vec::<usize>::put_seq(&self.input_shapes, &mut h);
            usize::put_seq(&self.session_inputs, &mut h);
            usize::put_seq(&self.session_outputs, &mut h);
        }
        h.0
    }

    /// Checks caller-supplied `inputs` against the input slots: one
    /// tensor per slot, each with the slot's declared dims. The program
    /// itself is sealed — [`ProgramBuilder::finish`],
    /// [`Program::with_granularity`] and the wire decoder all validate, and nothing
    /// mutates a program afterwards — so this is the only check left to
    /// make before a run.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] on a wrong input count,
    /// [`TensorError::ShapeMismatch`] naming the first ill-shaped input.
    pub fn check_inputs(&self, inputs: &[Tensor]) -> Result<()> {
        if inputs.len() != self.input_shapes.len() {
            return Err(TensorError::InvalidArgument("program input count mismatch"));
        }
        for (t, expect) in inputs.iter().zip(self.input_shapes.iter()) {
            if t.dims() != expect.as_slice() {
                return Err(shape_err(t.dims(), expect, "Program::check_inputs"));
            }
        }
        Ok(())
    }

    /// Executes the program solo (a one-program staged run on the
    /// default array configuration): the path `onesa-nn`'s `logits` /
    /// `predict` wrappers take after compiling.
    ///
    /// # Errors
    ///
    /// Input count or shape mismatches, or table-construction failures
    /// for the program's granularity.
    pub fn run(
        &self,
        inputs: &[Tensor],
        par: onesa_tensor::parallel::Parallelism,
        tables: &mut crate::TableCache,
    ) -> Result<crate::ProgramRun> {
        let mut staged =
            crate::run_staged(&[(self, inputs)], &ArrayConfig::default(), par, tables)?;
        Ok(staged.runs.remove(0))
    }
}

/// Shape inference for one op given its input shapes.
fn infer_shape(op: &Op, ins: &[&[usize]]) -> Result<Vec<usize>> {
    let matrix = |dims: &[usize]| -> Result<(usize, usize)> {
        match dims {
            [m, n] => Ok((*m, *n)),
            _ => Err(TensorError::NotAMatrix { rank: dims.len() }),
        }
    };
    match op {
        Op::Gemm { bias, .. } => {
            let (m, ka) = matrix(ins[0])?;
            let (kb, n) = matrix(ins[1])?;
            if ka != kb {
                return Err(shape_err(ins[0], ins[1], "plan::Gemm"));
            }
            if let Some(b) = bias {
                if b.len() != n {
                    return Err(shape_err(&[n], &[b.len()], "plan::Gemm bias"));
                }
            }
            Ok(vec![m, n])
        }
        Op::Nonlinear(_) | Op::Quantize { .. } => Ok(ins[0].to_vec()),
        Op::Softmax | Op::QuantizeRows => {
            matrix(ins[0])?;
            Ok(ins[0].to_vec())
        }
        Op::LayerNorm { gamma, beta, .. } => {
            let (_, n) = matrix(ins[0])?;
            if gamma.len() != n || beta.len() != n {
                return Err(shape_err(
                    &[n],
                    &[gamma.len(), beta.len()],
                    "plan::LayerNorm",
                ));
            }
            Ok(ins[0].to_vec())
        }
        // Geometry arrives from untrusted wire bytes too: its arithmetic is
        // checked, so a hostile program fails typed here, never overflows.
        Op::Im2col(geo) => match *ins[0] {
            [c, h, w] if c == geo.in_channels => {
                Ok(vec![geo.output_pixels(h, w)?, geo.checked_patch_len()?])
            }
            _ => Err(shape_err(ins[0], &[geo.in_channels, 0, 0], "plan::Im2col")),
        },
        Op::Col2im { channels, oh, ow } => {
            let (rows, ch) = matrix(ins[0])?;
            let pixels = oh
                .checked_mul(*ow)
                .ok_or(TensorError::InvalidArgument("Col2im pixel count overflows"))?;
            if rows != pixels || ch != *channels {
                return Err(shape_err(ins[0], &[pixels, *channels], "plan::Col2im"));
            }
            Ok(vec![*channels, *oh, *ow])
        }
        Op::Add => {
            if ins[0] != ins[1] {
                return Err(shape_err(ins[0], ins[1], "plan::Add"));
            }
            Ok(ins[0].to_vec())
        }
        Op::Affine { k, b } => match *ins[0] {
            [c, h, w] if k.len() == c && b.len() == c => Ok(vec![c, h, w]),
            _ => Err(shape_err(ins[0], &[k.len(), 0, 0], "plan::Affine")),
        },
        Op::AffineNonlinear { k, b, .. } => match *ins[0] {
            [c, h, w] if k.len() == c && b.len() == c => Ok(vec![c, h, w]),
            _ => Err(shape_err(ins[0], &[k.len(), 0, 0], "plan::AffineNonlinear")),
        },
        Op::SliceRows { start, len } => {
            let (m, n) = matrix(ins[0])?;
            let end = checked_sum(*start, *len, "SliceRows range overflows")?;
            if end > m || *len == 0 {
                return Err(shape_err(ins[0], &[end, n], "plan::SliceRows"));
            }
            Ok(vec![*len, n])
        }
        Op::Pool(PoolKind::GlobalAvg) => match *ins[0] {
            [c, _, _] => Ok(vec![1, c]),
            _ => Err(TensorError::NotAMatrix { rank: ins[0].len() }),
        },
        Op::Pool(PoolKind::MeanRows) => {
            let (_, d) = matrix(ins[0])?;
            Ok(vec![1, d])
        }
        Op::EmbedAt { offset } => {
            let (one, l) = matrix(ins[0])?;
            let (_, d) = matrix(ins[1])?;
            let (max_len, d2) = matrix(ins[2])?;
            let end = checked_sum(l, *offset, "EmbedAt position overflows")?;
            if one != 1 || d != d2 || end > max_len {
                return Err(shape_err(ins[0], ins[2], "plan::EmbedAt"));
            }
            Ok(vec![l, d])
        }
        Op::ConcatRows => {
            let (mut total, n) = matrix(ins[0])?;
            for dims in &ins[1..] {
                let (mi, ni) = matrix(dims)?;
                if ni != n {
                    return Err(shape_err(ins[0], dims, "plan::ConcatRows"));
                }
                total = checked_sum(total, mi, "ConcatRows height overflows")?;
            }
            Ok(vec![total, n])
        }
        Op::CausalSoftmax { offset } => {
            let (m, n) = matrix(ins[0])?;
            let width = checked_sum(*offset, m, "CausalSoftmax width overflows")?;
            if width != n {
                return Err(shape_err(&[m, width], &[m, n], "plan::CausalSoftmax"));
            }
            Ok(ins[0].to_vec())
        }
        Op::Attention { heads, causal, .. } => {
            let (m, d) = matrix(ins[0])?;
            let (n, kd) = matrix(ins[1])?;
            if kd != d || ins[2] != ins[1] || (*causal && n < m) {
                return Err(shape_err(ins[0], ins[1], "plan::Attention"));
            }
            if *heads == 0 || d % heads != 0 {
                return Err(TensorError::InvalidArgument(
                    "attention heads must divide the model width",
                ));
            }
            // Every head's `[M, N]` scores, together, within a slot's cap:
            // the cost model's `u64` arithmetic then cannot overflow.
            if !within_cap(&[*heads, m, n]) {
                return Err(TensorError::InvalidArgument(
                    "attention scores exceed 2^32 elements",
                ));
            }
            Ok(vec![m, d])
        }
    }
}

/// Most elements a program slot or constant may hold. Shapes arrive
/// from untrusted wire bytes too; at 2³² a GEMM's `m·k·n` stays below
/// √(mk · kn · mn) ≤ 2⁴⁸, so the cost model's `u64` arithmetic cannot
/// overflow on any op.
const MAX_ELEMS: u64 = 1 << 32;

fn within_cap(dims: &[usize]) -> bool {
    let volume = dims.iter().try_fold(1u64, |v, &d| v.checked_mul(d as u64));
    volume.is_some_and(|v| v <= MAX_ELEMS)
}

/// `a + b` for [`infer_shape`]: attributes and shapes arrive from
/// untrusted wire bytes too, so a sum that overflows is a typed error.
fn checked_sum(a: usize, b: usize, what: &'static str) -> Result<usize> {
    a.checked_add(b).ok_or(TensorError::InvalidArgument(what))
}

fn shape_err(lhs: &[usize], rhs: &[usize], op: &'static str) -> TensorError {
    TensorError::ShapeMismatch {
        lhs: lhs.to_vec(),
        rhs: rhs.to_vec(),
        op,
    }
}

/// Modeled solo cost of one op whose inputs have the shapes `ins` (an
/// op's first input is all any op but [`Op::Attention`] reads). GEMM-bearing
/// ops use the tiled GEMM model; nonlinears an IPF + MHP pass;
/// softmax/layer-norm their composite lowerings; attention its per-head
/// GEMMs, scale pass and softmax; `Affine`/`Add` a bare MHP pass;
/// pooling a GEMM against a constant mean vector; pure data movements
/// (im2col/col2im/slice/concat/quantize/embed) cost zero array cycles.
pub(crate) fn op_cost(op: &Op, ins: &[&[usize]], out: &[usize], cfg: &ArrayConfig) -> ExecStats {
    let in0 = ins[0];
    let mat_or_row = |dims: &[usize]| -> (usize, usize) {
        match dims {
            [m, n] => (*m, *n),
            _ => (1, dims.iter().product()),
        }
    };
    match op {
        Op::Gemm { sparsity, .. } => {
            let (m, k) = mat_or_row(in0);
            let n = out[1];
            match sparsity {
                // The sparse kernel packs and sweeps only the surviving
                // columns, so the op costs exactly a dense `m × k ×
                // nnz_cols` product — this single crediting point is
                // what `modeled_macs`/`modeled_energy` (and through
                // them `SizeCapped` admission and `EnergyAware`
                // routing) all read.
                Some(s) if s.nnz_cols == 0 => ExecStats::new(cfg, CycleBreakdown::default(), 0, 0),
                Some(s) => analytic::gemm_stats(cfg, m, k, s.nnz_cols),
                None => analytic::gemm_stats(cfg, m, k, n),
            }
        }
        Op::Nonlinear(_) => {
            let (m, n) = mat_or_row(in0);
            analytic::nonlinear_stats(cfg, m, n)
        }
        // The fused affine+nonlinear is exactly one IPF + MHP pass: the
        // affine's (k, b) fold into the fetched segment parameters, so
        // the separate affine MHP the unfused pair would cost is gone.
        Op::AffineNonlinear { .. } => {
            let (m, n) = mat_or_row(in0);
            analytic::nonlinear_stats(cfg, m, n)
        }
        // A causal softmax is costed like a full-width softmax over its
        // `[M, ctx+M]` scores: the width term grows with the session's
        // context, so a decode step's modeled MACs track how much cache
        // its attention actually reads.
        Op::Softmax | Op::CausalSoftmax { .. } => {
            let (m, n) = mat_or_row(in0);
            analytic::softmax_stats(cfg, m, n)
        }
        Op::LayerNorm { .. } => {
            let (m, n) = mat_or_row(in0);
            analytic::norm_stats(cfg, m, n)
        }
        Op::Attention { heads, .. } => {
            let ((m, d), n) = (mat_or_row(in0), ins[1][0]);
            attention_member_cost(cfg, *heads, m, n, d)
                .merged(&attention_softmax_cost(cfg, *heads, m, n))
        }
        Op::Add | Op::Affine { .. } => {
            let (m, n) = mat_or_row(in0);
            analytic::mhp_pass_stats(cfg, m, n)
        }
        Op::Pool(PoolKind::GlobalAvg) => {
            // [C, H·W] · [H·W, 1] mean reduction.
            let (c, hw) = (in0[0], in0[1] * in0[2]);
            analytic::gemm_stats(cfg, c, hw, 1)
        }
        Op::Pool(PoolKind::MeanRows) => {
            // [1, L] · [L, D] mean reduction.
            let (l, d) = (in0[0], in0[1]);
            analytic::gemm_stats(cfg, 1, l, d)
        }
        Op::Im2col(_)
        | Op::Col2im { .. }
        | Op::SliceRows { .. }
        | Op::ConcatRows
        | Op::Quantize { .. }
        | Op::QuantizeRows
        | Op::EmbedAt { .. } => ExecStats::new(cfg, CycleBreakdown::default(), 0, 0),
    }
}

/// What an [`Op::Attention`] costs per member, less its softmax passes:
/// every head's `[M, D/heads] · [D/heads, N]` scores GEMM, its `[M, N]`
/// scale pass and its `[M, N] · [N, D/heads]` context GEMM — the ops the
/// per-head composition runs alone, and so never shares with another
/// program.
pub(crate) fn attention_member_cost(
    cfg: &ArrayConfig,
    heads: usize,
    m: usize,
    n: usize,
    d: usize,
) -> ExecStats {
    let dk = d / heads;
    let scores = analytic::gemm_stats(cfg, m, dk, n);
    let scale = analytic::mhp_pass_stats(cfg, m, n);
    let context = analytic::gemm_stats(cfg, m, n, dk);
    per_head(cfg, heads, &scores.merged(&scale).merged(&context))
}

/// The softmax passes of an [`Op::Attention`] over `rows` query rows of
/// `n` scores: one per head. Coalesced members stack their rows into the
/// one pass, as stacked [`Op::Softmax`] rows share one.
pub(crate) fn attention_softmax_cost(
    cfg: &ArrayConfig,
    heads: usize,
    rows: usize,
    n: usize,
) -> ExecStats {
    per_head(cfg, heads, &analytic::softmax_stats(cfg, rows, n))
}

/// `heads` runs of `one` back to back.
fn per_head(cfg: &ArrayConfig, heads: usize, one: &ExecStats) -> ExecStats {
    let none = ExecStats::new(cfg, CycleBreakdown::default(), 0, 0);
    (0..heads).fold(none, |acc, _| acc.merged(one))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: `h` absorbs `v`. A bijection in `h` for a fixed `v`
/// and in `v` for a fixed `h` (the prime is odd), so a chain of steps
/// tells apart any two equally long inputs that differ in one value.
fn fnv_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// A [`WireSink`] that hashes what is written instead of storing it
/// (FNV-1a, one [`fnv_step`] per byte): an allocation-free key over a
/// value's wire encoding.
struct FnvSink(u64);

impl WireSink for FnvSink {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| fnv_step(h, u64::from(b)));
    }
}

/// `seed` extended by `value`'s wire encoding: the staged scheduler's
/// coalescing keys, exact comparisons behind them.
pub(crate) fn hash_encoding(seed: u64, value: &impl Wire) -> u64 {
    let mut h = FnvSink(seed);
    value.put(&mut h);
    h.0
}

/// Whether two tensors are the same shape and bit pattern (`-0.0` is not
/// `+0.0`, a NaN equals itself) — the exact check behind every
/// fingerprint-keyed merge and cache hit. Dims are compared first, since a
/// reshape shares its source's storage under other dims. Two tensors on one
/// buffer ([`Tensor::shares_storage`]: clones of one weight, a dataset's
/// `Â` in every program compiled from it) are then equal in O(1). Two
/// buffers are compared 64 elements at a time: each chunk without a
/// branch, stopping at the first chunk that differs.
pub fn same_tensor(x: &Tensor, y: &Tensor) -> bool {
    let differ = |(a, b): (&[f32], &[f32])| {
        a.iter()
            .zip(b)
            .fold(0, |bits, (a, b)| bits | (a.to_bits() ^ b.to_bits()))
            != 0
    };
    x.dims() == y.dims()
        && (x.shares_storage(y)
            || !x
                .as_slice()
                .chunks(64)
                .zip(y.as_slice().chunks(64))
                .any(differ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_tensor::rng::Pcg32;

    fn mlp(mode: EvalMode) -> Program {
        mlp_rows(mode, 2)
    }

    /// The [`mlp`] fed `rows` input rows.
    fn mlp_rows(mode: EvalMode, rows: usize) -> Program {
        let mut rng = Pcg32::seed_from_u64(1);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let mut b = Program::builder("mlp", mode);
        let x = b.input(&[rows, 6]);
        let w1 = b.constant(w1);
        let w2 = b.constant(w2);
        let h = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w1],
        );
        let g = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[h]);
        b.push(
            Op::Gemm {
                bias: Some(vec![0.1, 0.2, 0.3]),
                sparsity: None,
            },
            &[g, w2],
        );
        b.finish().unwrap()
    }

    #[test]
    fn builder_shapes_and_cost() {
        let p = mlp(EvalMode::Exact);
        assert_eq!(p.stages(), 3);
        assert_eq!(p.n_inputs(), 1);
        assert_eq!(p.output_shape(), &[2, 3]);
        let shapes = p.slot_shapes().unwrap();
        assert_eq!(shapes, vec![vec![2, 6], vec![2, 4], vec![2, 4], vec![2, 3]]);
        // 2·6·4 + 2·(2·4) nonlinear MACs + 2·4·3 (exact mode: no
        // table-preload term).
        assert_eq!(p.modeled_macs(), 48 + 16 + 24);
        assert_eq!(p.staging_macs(), 0);
        let stats = p.op_stats(&ArrayConfig::default()).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[1].nonlinear_evals, 8);
    }

    #[test]
    fn cpwl_modeled_macs_include_the_table_preload_footprint() {
        let cpwl = |g| {
            mlp(EvalMode::Cpwl {
                granularity: g,
                quantize: true,
            })
        };
        let exact = mlp(EvalMode::Exact);
        let fine = cpwl(0.25);
        let coarse = cpwl(1.0);
        // One GELU table staged: 2 words per segment.
        let segs = |g| onesa_cpwl::ops::TableSet::preload_segments(NonlinearFn::Gelu, g).unwrap();
        assert_eq!(fine.staging_macs(), 2 * segs(0.25) as u64);
        assert_eq!(
            fine.modeled_macs(),
            exact.modeled_macs() + fine.staging_macs()
        );
        // Coarser granularity models strictly less admission work.
        assert!(coarse.modeled_macs() < fine.modeled_macs());
        assert!(coarse.modeled_macs() > exact.modeled_macs());
        // The preload term is a modeled admission weight, not an op
        // cost: per-op stats are unchanged.
        assert_eq!(
            fine.op_stats(&ArrayConfig::default()).unwrap(),
            exact.op_stats(&ArrayConfig::default()).unwrap()
        );
    }

    #[test]
    fn with_granularity_recompiles_sharing_consts() {
        let p = mlp(EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        });
        let d = p.with_granularity(1.0).unwrap();
        assert_eq!(d.mode().granularity(), Some(1.0));
        assert_eq!(d.stages(), p.stages());
        assert_eq!(d.name(), p.name());
        // Consts are Arc-shared, not copied.
        for (a, b) in p.consts().iter().zip(d.consts()) {
            assert!(Arc::ptr_eq(a, b));
        }
        // The recompile is indistinguishable from compiling at the
        // coarser granularity directly.
        let oracle = mlp(EvalMode::Cpwl {
            granularity: 1.0,
            quantize: true,
        });
        assert_eq!(d.fingerprint(), oracle.fingerprint());
        assert_eq!(d.modeled_macs(), oracle.modeled_macs());
        assert!(d.modeled_macs() < p.modeled_macs());
        // Quantize flag carries over; exact-mode programs are not
        // degradable; bad granularities are rejected.
        assert_eq!(d.mode(), oracle.mode());
        assert!(mlp(EvalMode::Exact).with_granularity(1.0).is_err());
        assert!(p.with_granularity(0.0).is_err());
        assert!(p.with_granularity(f32::NAN).is_err());
    }

    #[test]
    fn op_energy_tracks_the_power_model() {
        let p = mlp(EvalMode::Exact);
        let cfg = ArrayConfig::default();
        let energy = p.op_energy(&cfg).unwrap();
        assert_eq!(energy.len(), p.stages());
        assert!(energy.iter().all(|&e| e > 0.0));
        let total = p.modeled_energy(&cfg).unwrap();
        assert!((total - energy.iter().sum::<f64>()).abs() < 1e-18);
        // Energy = power × time, bounded by the design's full-activity
        // power over the program's modeled seconds.
        let model = PowerModel::virtex7();
        let cost = ArrayResources::calibrated().total(Design::OneSa, cfg.dim, cfg.macs_per_pe);
        let seconds: f64 = p.op_stats(&cfg).unwrap().iter().map(|s| s.seconds()).sum();
        assert!(total <= model.power_watts(&cost) * seconds + 1e-18);
        assert!(total >= model.power_at_utilization(&cost, 0.0) * seconds - 1e-18);
    }

    #[test]
    fn validator_rejects_malformed_programs() {
        // Mismatched GEMM inner dims.
        let mut b = Program::builder("bad", EvalMode::Exact);
        let x = b.input(&[2, 5]);
        let w = b.constant(Tensor::zeros(&[6, 3]));
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w],
        );
        assert!(b.finish().is_err());

        // Empty program.
        let b = Program::builder("empty", EvalMode::Exact);
        assert!(b.finish().is_err());

        // Bad granularity.
        let mut b = Program::builder(
            "bad-g",
            EvalMode::Cpwl {
                granularity: -1.0,
                quantize: true,
            },
        );
        let x = b.input(&[2, 2]);
        b.push(Op::Nonlinear(NonlinearFn::Relu), &[x]);
        assert!(b.finish().is_err());

        // Wrong arity.
        let mut b = Program::builder("arity", EvalMode::Exact);
        let x = b.input(&[2, 2]);
        b.push(Op::Add, &[x]);
        assert!(b.finish().is_err());

        // Bias length mismatch.
        let mut b = Program::builder("bias", EvalMode::Exact);
        let x = b.input(&[2, 2]);
        let w = b.constant(Tensor::zeros(&[2, 3]));
        b.push(
            Op::Gemm {
                bias: Some(vec![0.0; 2]),
                sparsity: None,
            },
            &[x, w],
        );
        assert!(b.finish().is_err());
    }

    #[test]
    fn cpwl_programs_reject_functions_outside_the_table_set() {
        // Silu has no table in the standard set: a CPWL-mode program
        // using it must fail validation (not poison a batch at run
        // time) — exact mode evaluates it directly and stays fine.
        let build = |mode: EvalMode| {
            let mut b = Program::builder("silu", mode);
            let x = b.input(&[1, 4]);
            b.push(Op::Nonlinear(NonlinearFn::Silu), &[x]);
            b.finish()
        };
        assert!(build(EvalMode::Cpwl {
            granularity: 0.25,
            quantize: false,
        })
        .is_err());
        let exact = build(EvalMode::Exact).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 0.5, 2.0], &[1, 4]).unwrap();
        let run = exact
            .run(
                std::slice::from_ref(&x),
                onesa_tensor::parallel::Parallelism::Sequential,
                &mut crate::TableCache::new(),
            )
            .unwrap();
        assert_eq!(run.output, x.map(|v| NonlinearFn::Silu.eval(v)));
    }

    #[test]
    fn fingerprints_distinguish_programs() {
        let a = mlp(EvalMode::Exact);
        let b = mlp(EvalMode::Exact);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = mlp(EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        });
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn nan_payloads_fingerprint_apart() {
        let normed = |bits: u32| {
            let mut b = Program::builder("nan", EvalMode::Exact);
            let x = b.input(&[2, 3]);
            let op = Op::LayerNorm {
                gamma: vec![1.0; 3],
                beta: vec![0.0; 3],
                eps: f32::from_bits(bits),
            };
            b.push(op, &[x]);
            b.finish().unwrap()
        };
        let (a, b) = (normed(0x7fc0_0001), normed(0x7fc0_0002));
        // The two ops render identically under `Debug`, yet they
        // compute different bits.
        assert_eq!(format!("{:?}", a.nodes()), format!("{:?}", b.nodes()));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), normed(0x7fc0_0001).fingerprint());
    }

    #[test]
    fn fingerprints_hash_the_encoding_but_not_the_name_or_a_stateless_shape() {
        let cpwl = |quantize| EvalMode::Cpwl {
            granularity: 0.25,
            quantize,
        };
        assert_ne!(
            mlp(cpwl(true)).fingerprint(),
            mlp(cpwl(false)).fingerprint()
        );
        let embed = |name: &str, offset| {
            let mut b = Program::builder(name, EvalMode::Exact);
            let ids = b.input(&[1, 2]);
            let table = b.constant(Tensor::zeros(&[4, 3]));
            let pos = b.constant(Tensor::zeros(&[8, 3]));
            b.push(Op::EmbedAt { offset }, &[ids, table, pos]);
            b.finish().unwrap()
        };
        assert_ne!(embed("e", 0).fingerprint(), embed("e", 1).fingerprint());
        assert_eq!(embed("e", 0).fingerprint(), embed("f", 0).fingerprint());
        // A stateless program's row count is not part of it; a session
        // program's shapes are its context length, so they count.
        let taller = mlp_rows(EvalMode::Exact, 5);
        assert_eq!(taller.fingerprint(), mlp(EvalMode::Exact).fingerprint());
        let session = |ctx| {
            let mut b = Program::builder("kv", EvalMode::Exact);
            let x = b.input(&[1, 3]);
            let cache = b.session_input(&[ctx, 3]);
            let grown = b.push(Op::ConcatRows, &[cache, x]);
            b.mark_session_output(grown);
            b.finish().unwrap()
        };
        assert_ne!(session(2).fingerprint(), session(3).fingerprint());
    }

    #[test]
    fn movement_ops_infer_shapes() {
        let geo = Conv2dGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut b = Program::builder(
            "conv",
            EvalMode::Cpwl {
                granularity: 0.25,
                quantize: false,
            },
        );
        let x = b.input(&[2, 4, 4]);
        let wt = b.constant(Tensor::zeros(&[geo.patch_len(), 3]));
        let cols = b.push(Op::Im2col(geo), &[x]);
        let prod = b.push(
            Op::Gemm {
                bias: Some(vec![0.0; 3]),
                sparsity: None,
            },
            &[cols, wt],
        );
        let fm = b.push(
            Op::Col2im {
                channels: 3,
                oh: 4,
                ow: 4,
            },
            &[prod],
        );
        let aff = b.push(
            Op::Affine {
                k: vec![1.0; 3],
                b: vec![0.0; 3],
            },
            &[fm],
        );
        let r = b.push(Op::Nonlinear(NonlinearFn::Relu), &[aff]);
        let pooled = b.push(Op::Pool(PoolKind::GlobalAvg), &[r]);
        b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[pooled],
        );
        let p = b.finish().unwrap();
        assert_eq!(p.output_shape(), &[1, 3]);
        let shapes = p.slot_shapes().unwrap();
        assert_eq!(shapes[1], vec![16, geo.patch_len()]);
        assert_eq!(shapes[3], vec![3, 4, 4]);
    }

    #[test]
    fn hostile_conv_geometry_fails_typed_and_never_panics() {
        let geo = |in_channels, kernel, stride, padding| Conv2dGeometry {
            in_channels,
            out_channels: 3,
            kernel,
            stride,
            padding,
        };
        let im2col = |g: Conv2dGeometry| {
            let mut b = Program::builder("hostile", EvalMode::Exact);
            let x = b.input(&[g.in_channels, 4, 4]);
            b.push(Op::Im2col(g), &[x]);
            b.finish()
        };
        for g in [
            geo(2, 3, 1, 1 << 63),       // the padded size overflows
            geo(2, 1 << 33, 1, 1 << 33), // oh · ow and C·k·k overflow
            geo(1 << 62, 3, 1, 1),       // C·k·k overflows
            geo(2, 0, 1, 1),             // no kernel
            geo(2, 3, 0, 1),             // no stride
            geo(2, usize::MAX, 1, 0),    // the kernel does not fit
        ] {
            let err = im2col(g).unwrap_err();
            assert!(
                matches!(err, TensorError::InvalidArgument(_)),
                "{g:?}: {err}"
            );
        }
        // A `Col2im` whose pixel count overflows.
        let mut b = Program::builder("hostile", EvalMode::Exact);
        let x = b.input(&[16, 3]);
        let col2im = Op::Col2im {
            channels: 3,
            oh: 1 << 33,
            ow: 1 << 33,
        };
        b.push(col2im, &[x]);
        assert!(matches!(b.finish(), Err(TensorError::InvalidArgument(_))));
    }

    #[test]
    fn conv_chains_are_the_compilers_convolutions_only() {
        let geo = Conv2dGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let gemm = || Op::Gemm {
            bias: None,
            sparsity: None,
        };
        let col2im = Op::Col2im {
            channels: 3,
            oh: 4,
            ow: 4,
        };
        let wide = Conv2dGeometry {
            in_channels: 3,
            ..geo
        };
        let mut b = Program::builder("convs", EvalMode::Exact);
        let x = b.input(&[2, 4, 4]);
        let w = b.constant(Tensor::zeros(&[geo.patch_len(), 3]));
        let w3 = b.constant(Tensor::zeros(&[wide.patch_len(), 3]));
        // Nodes 0-2: a chain. Nodes 3-6: a product read twice, no chain.
        let c = b.push(Op::Im2col(geo), &[x]);
        let g = b.push(gemm(), &[c, w]);
        let f = b.push(col2im.clone(), &[g]);
        let c = b.push(Op::Im2col(wide), &[f]);
        let g = b.push(gemm(), &[c, w3]);
        b.push(col2im, &[g]);
        b.push(Op::Nonlinear(NonlinearFn::Relu), &[g]);
        let p = b.finish().unwrap();
        let chain = ConvChain {
            im2col: 0,
            gemm: 1,
            col2im: 2,
        };
        let links: Vec<_> = (0..p.stages()).map(|s| p.conv_chain(s)).collect();
        assert_eq!(
            links,
            [Some(chain); 3]
                .into_iter()
                .chain([None; 4])
                .collect::<Vec<_>>()
        );
        // Clones share the op list and its plan.
        let clone = p.clone();
        assert!(Arc::ptr_eq(&p.nodes, &clone.nodes) && Arc::ptr_eq(&p.plan, &clone.plan));
        assert_eq!(clone.conv_chain(1), Some(chain));
    }

    /// A weight whose second 4-column block is all zero, plus the
    /// matching (and a deliberately wrong) sparsity attribute.
    fn sparse_weight_and_attr() -> (Tensor, GemmSparsity) {
        let mut rng = Pcg32::seed_from_u64(31);
        let mut w = rng.randn(&[3, 8], 1.0);
        for r in 0..3 {
            for c in 4..8 {
                w.as_mut_slice()[r * 8 + c] = 0.0;
            }
        }
        let attr = GemmSparsity {
            block_cols: 4,
            nnz_blocks: 1,
            total_blocks: 2,
            nnz_cols: 4,
        };
        (w, attr)
    }

    #[test]
    fn sparsity_attribute_validates_against_the_weight() {
        let (w, attr) = sparse_weight_and_attr();
        let mut b = Program::builder("sparse-ok", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let wc = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: Some(attr),
            },
            &[x, wc],
        );
        let p = b.finish().unwrap();
        assert_eq!(p.sparse_blocks(), (1, 2));
        // Sparse credit: half the columns, half the modeled MACs.
        assert_eq!(p.modeled_macs(), 2 * 3 * 4);
    }

    #[test]
    fn disagreeing_sparsity_attribute_fails_typed() {
        let (w, attr) = sparse_weight_and_attr();
        let wrong = GemmSparsity {
            nnz_blocks: 2,
            nnz_cols: 8,
            ..attr
        };
        let mut b = Program::builder("sparse-bad", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let wc = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: Some(wrong),
            },
            &[x, wc],
        );
        let err = b.finish().unwrap_err();
        assert!(
            err.to_string().contains("disagrees"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sparsity_on_a_non_const_weight_fails_typed() {
        let (_, attr) = sparse_weight_and_attr();
        let mut b = Program::builder("sparse-slot", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let y = b.input(&[3, 8]);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: Some(attr),
            },
            &[x, y],
        );
        let err = b.finish().unwrap_err();
        assert!(
            err.to_string().contains("constant"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn dense_and_sparse_fingerprints_differ_and_int8_is_distinct() {
        let (w, attr) = sparse_weight_and_attr();
        let build = |sparsity| {
            let mut b = Program::builder("fp", EvalMode::Exact);
            let x = b.input(&[2, 3]);
            let wc = b.constant(w.clone());
            b.push(
                Op::Gemm {
                    bias: None,
                    sparsity,
                },
                &[x, wc],
            );
            b.finish().unwrap()
        };
        assert_ne!(
            build(None).fingerprint(),
            build(Some(attr)).fingerprint(),
            "sparse attribute must be fingerprint-visible"
        );
        let quant = |precision| {
            let mut b = Program::builder("fp-q", EvalMode::Exact);
            let x = b.input(&[2, 3]);
            b.push(Op::Quantize { precision }, &[x]);
            b.finish().unwrap()
        };
        assert_ne!(
            quant(Precision::Int16).fingerprint(),
            quant(Precision::Int8).fingerprint(),
            "precision rung must be fingerprint-visible"
        );
    }

    #[test]
    fn same_tensor_is_identity_first_then_every_bit() {
        let mut t = Pcg32::seed_from_u64(4).randn(&[3, 70], 1.0);
        let data = t.as_mut_slice();
        data[5] = f32::NAN;
        data[6] = -0.0;
        assert!(same_tensor(&t, &t));
        assert!(same_tensor(&t, &t.clone()));
        let copy = Tensor::from_vec(t.as_slice().to_vec(), t.dims()).unwrap();
        assert!(!copy.shares_storage(&t));
        assert!(same_tensor(&t, &copy), "a NaN equals itself bit for bit");
        let mut signed = t.clone();
        signed.as_mut_slice()[6] = 0.0;
        assert!(!same_tensor(&t, &signed), "-0.0 is not +0.0");
        let mut last = t.clone();
        last.as_mut_slice()[209] += 0.125;
        assert!(!same_tensor(&t, &last));
        // A reshape shares the storage under other dims: not the same tensor.
        let view = t.reshape(&[70, 3]).unwrap();
        assert!(view.shares_storage(&t));
        assert!(!same_tensor(&t, &view));
        // An edited clone owns a copy, so it is compared bit for bit: equal
        // once the edit is undone, unequal while it stands.
        let mut edited = t.clone();
        edited.as_mut_slice()[0] += 1.0;
        assert!(!edited.shares_storage(&t));
        assert!(!same_tensor(&t, &edited));
        edited.as_mut_slice()[0] = t.as_slice()[0];
        assert!(same_tensor(&t, &edited));
    }

    #[test]
    fn tensor_fingerprint_reads_contents_and_shape_not_the_allocation() {
        let t = Pcg32::seed_from_u64(9).randn(&[2, 3], 1.0);
        let copy = Tensor::from_vec(t.as_slice().to_vec(), &[2, 3]).unwrap();
        assert_ne!(t.as_slice().as_ptr(), copy.as_slice().as_ptr());
        assert_eq!(tensor_fingerprint(&t), tensor_fingerprint(&copy));
        let turned = t.reshape(&[3, 2]).unwrap();
        assert_ne!(tensor_fingerprint(&t), tensor_fingerprint(&turned));
    }

    #[test]
    fn tensor_fingerprint_is_pinned() {
        // Three full 64-value chunks and a 5-value tail, every value's bits
        // distinct: a change to the hash (lane count, order, tail or
        // fold) moves this literal, and with it every recorded program
        // fingerprint on the wire.
        let values = (0..197u16).map(|i| f32::from(i) * 0.5 - 7.0).collect();
        let t = Tensor::from_vec(values, &[197]).unwrap();
        assert_eq!(tensor_fingerprint(&t), 0x441a_3644_dc36_a3a0);
    }
}
