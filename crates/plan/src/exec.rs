//! Program execution: a table cache, single-op kernels and the staged
//! multi-program scheduler with per-stage cross-program coalescing.
//!
//! What the scheduler needs to know about a program's op list is worked
//! out once, when the program is sealed, into its [`Plan`]: every slot's
//! shape, every op's coalescing key (static: the mode, the constants'
//! fingerprints, γ / β / ε, the widths of softmax, layer-norm, row-quantize
//! and add rows and attention's key rows all belong to the sealed
//! program), every op's convolution chain, when each op's output dies, and
//! — on first use per array configuration — the program's solo op stats.
//! [`run_staged`] then groups a stage's members by their planned keys in
//! index buffers it reuses from stage to stage, and drops each
//! intermediate after its last reader. The liveness
//! rule: an op's output dies after the last stage that reads it — where
//! a convolution chain's GEMM stage counts as a reader of the chain's
//! image, which a declined sweep unrolls there — and the program's output
//! and its session outputs never die; they move out of their slots into
//! the [`ProgramRun`].
//!
//! A slot holds a `Value`: a tensor of the member's own, or its rows of
//! a row-stacked group's product. Such a group keeps its product as one
//! block, and the next row-stacked group whose members' operands are
//! exactly that block's rows, in member order, reads it in place; so a
//! window's members stay stacked from stage to stage as their rows stream
//! through one array. Whatever needs one member's value alone copies its
//! rows out of the block once.

use crate::program::{
    attention_member_cost, attention_softmax_cost, hash_encoding, op_cost, same_tensor, ConvChain,
    EvalMode, Op, OpNode, Operand, PoolKind, Precision, Program,
};
use onesa_cpwl::ops::{self, TableSet};
use onesa_cpwl::NonlinearFn;
use onesa_sim::{ArrayConfig, CycleBreakdown, ExecStats};
use onesa_tensor::parallel::{self, PackedLhs, Right};
use onesa_tensor::quant::{QuantTensor, QuantTensor8};
use onesa_tensor::sparse::SparseTensor;
use onesa_tensor::{attention, gemm, im2col, Result, Tensor, TensorError};
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};

/// Lazily-built CPWL table sets keyed by granularity, shared across
/// programs (and across `BatchEngine` runs, which own one cache per
/// shard). Sets are `Arc`-shared, so seeding the cache with a set a
/// caller already holds (an `InferenceMode`'s, an engine's) is a
/// refcount bump, never a copy of the table data.
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    sets: Vec<Arc<TableSet>>,
    builds: usize,
}

impl TableCache {
    /// An empty cache.
    pub fn new() -> Self {
        TableCache::default()
    }

    /// Adds an already-built set (no-op if its granularity is cached).
    pub fn seed(&mut self, set: TableSet) {
        self.seed_shared(Arc::new(set));
    }

    /// Adds an already-shared set without copying its tables (no-op if
    /// its granularity is cached) — the zero-copy path `onesa-nn`'s
    /// compiled-inference wrappers and `onesa-core`'s engines use.
    pub fn seed_shared(&mut self, set: Arc<TableSet>) {
        let bits = set.granularity().to_bits();
        if !self.sets.iter().any(|s| s.granularity().to_bits() == bits) {
            self.sets.push(set);
        }
    }

    /// The table set at `granularity`, building it on first use.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] if the table builder rejects the
    /// granularity.
    pub fn get(&mut self, granularity: f32) -> Result<&TableSet> {
        let bits = granularity.to_bits();
        if let Some(i) = self
            .sets
            .iter()
            .position(|s| s.granularity().to_bits() == bits)
        {
            return Ok(&self.sets[i]);
        }
        let set = TableSet::for_granularity(granularity)
            .map_err(|_| TensorError::InvalidArgument("invalid CPWL granularity"))?;
        self.builds += 1;
        self.sets.push(Arc::new(set));
        Ok(self.sets.last().expect("just pushed"))
    }

    /// Number of granularities cached (seeded or built).
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the cache holds no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// How many table sets [`TableCache::get`] actually *built* (cache
    /// misses that were not satisfied by a seed). A serving engine that
    /// reuses its cache across batches reports a stable number here no
    /// matter how many runs it serves.
    pub fn builds(&self) -> usize {
        self.builds
    }
}

/// One program's result from a (solo or staged) run.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// The output tensor of the program's last op.
    pub output: Tensor,
    /// Values of the program's session-output slots (appended KV
    /// tensors), in [`Program::session_outputs`] order — empty for
    /// stateless programs. The serving layer writes these back to the
    /// owning session.
    pub session_outputs: Vec<Tensor>,
}

/// Coalescing accounting for one stage of a staged run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageGroups {
    /// Stage index (op position within each program).
    pub stage: usize,
    /// Ops that executed at this stage (one per program still running).
    pub ops: usize,
    /// Kernel groups they coalesced into (`groups < ops` means the
    /// stage shared weight loads or IPF passes across programs).
    pub groups: usize,
    /// Of those, groups that ran a GEMM kernel.
    pub gemm_groups: usize,
    /// Of those, groups that ran an IPF + MHP (nonlinear, softmax or
    /// layer-norm) pass.
    pub nonlinear_groups: usize,
}

/// Everything [`run_staged`] produces.
#[derive(Debug, Clone)]
pub struct StagedRun {
    /// Per-program outputs, in job order.
    pub runs: Vec<ProgramRun>,
    /// Per-stage coalescing accounting.
    pub stages: Vec<StageGroups>,
    /// Modeled array stats of the coalesced schedule actually executed.
    pub batched: ExecStats,
    /// Total GEMM kernel calls across all stages.
    pub gemm_groups: usize,
    /// Total IPF + MHP passes across all stages.
    pub nonlinear_groups: usize,
    /// Of the GEMM groups, those that ran an `Im2col` → `Gemm` → `Col2im`
    /// chain as one convolution sweep; every other GEMM group ran its own
    /// kernel.
    pub conv_sweeps: usize,
}

/// What the executor needs to know about a sealed program's op list,
/// derived once, when the program is sealed, and shared by its clones:
/// [`run_staged`] reads it instead of working it out again for every
/// member of every stage.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct Plan {
    /// Shape of every slot: the inputs, then one per op.
    pub(crate) shapes: Vec<Vec<usize>>,
    /// Per op: how it coalesces with the same stage of other programs.
    keys: Vec<GroupKey>,
    /// Per op: the convolution chain it is a link of.
    chains: Vec<Option<ConvChain>>,
    /// `(stage, op)`: op `op`'s output is dead once `stage` has run — no
    /// later op reads it, and it is neither the program's output nor a
    /// session output. Sorted by stage.
    drops: Vec<(usize, usize)>,
    /// The program's solo op stats per array configuration, computed on
    /// first use: every request a serving run completes reads their total.
    solo_stats: SoloStats,
}

/// At most this many array configurations keep their solo op stats in a
/// [`Plan`]; another configuration's are computed on every call.
const SOLO_STATS_CONFIGS: usize = 4;

/// The solo op stats a [`Plan`] has computed, per array configuration.
/// A pure function of the sealed program, so not part of its identity:
/// every `SoloStats` compares equal.
#[derive(Debug, Default)]
struct SoloStats(Mutex<Vec<(ArrayConfig, Vec<ExecStats>)>>);

impl PartialEq for SoloStats {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Plan {
    /// The plan of `program`, whose slots have the (validated) `shapes`.
    pub(crate) fn derive(program: &Program, shapes: Vec<Vec<usize>>) -> Plan {
        let chains = program.derive_conv_chains();
        let link = |stage: usize| {
            let links = |c: &&ConvChain| [c.im2col, c.gemm, c.col2im].contains(&stage);
            chains.iter().find(links).copied()
        };
        // The last stage that reads each op's output; a value nothing
        // reads is dead once written. A chain's image is read again at
        // its GEMM stage, where a declined sweep unrolls it after all.
        let (base, nodes) = (program.n_inputs(), program.nodes());
        let mut last_read: Vec<usize> = (0..nodes.len()).collect();
        let chain_reads = chains
            .iter()
            .map(|c| (c.gemm, &nodes[c.im2col].inputs[..1]));
        let reads = nodes.iter().map(|n| &n.inputs[..]).enumerate();
        for (stage, operands) in reads.chain(chain_reads) {
            for operand in operands {
                if let Some(op) = slot_op(*operand, base) {
                    last_read[op] = last_read[op].max(stage);
                }
            }
        }
        let kept =
            |op: usize| op + 1 == nodes.len() || program.session_outputs().contains(&(base + op));
        let mut drops: Vec<(usize, usize)> = (0..nodes.len())
            .filter(|&op| !kept(op))
            .map(|op| (last_read[op], op))
            .collect();
        drops.sort_unstable();
        Plan {
            keys: nodes
                .iter()
                .map(|node| group_key(program, &shapes, node))
                .collect(),
            chains: (0..nodes.len()).map(link).collect(),
            drops,
            shapes,
            solo_stats: SoloStats::default(),
        }
    }

    /// What `read` makes of the solo op stats on `cfg`, as `compute`
    /// works them out: cached for the first few configurations asked for.
    pub(crate) fn read_solo_stats<R>(
        &self,
        cfg: &ArrayConfig,
        compute: impl FnOnce() -> Vec<ExecStats>,
        read: impl FnOnce(&[ExecStats]) -> R,
    ) -> R {
        // A poisoned lock still holds whole entries: each is pushed built.
        let mut cached = self
            .solo_stats
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, stats)) = cached.iter().find(|(c, _)| c == cfg) {
            return read(stats);
        }
        let stats = compute();
        let out = read(&stats);
        if cached.len() < SOLO_STATS_CONFIGS {
            cached.push((cfg.clone(), stats));
        }
        out
    }

    /// The convolution chain op `stage` is a link of, if any.
    pub(crate) fn chain(&self, stage: usize) -> Option<ConvChain> {
        self.chains[stage]
    }
}

/// The op whose output `operand` is, if it is an op's output.
fn slot_op(operand: Operand, base: usize) -> Option<usize> {
    match operand {
        Operand::Slot(s) => s.checked_sub(base),
        Operand::Const(_) => None,
    }
}

/// What a slot holds.
enum Value {
    /// A tensor of the member's own.
    Own(Tensor),
    /// Rows `start .. start + len` of a row-stacked group's product, which
    /// the group's members share.
    Rows {
        block: Rc<Tensor>,
        start: usize,
        len: usize,
    },
}

impl Value {
    /// The value's elements in row-major order: rows are a slice of their
    /// block.
    fn data(&self) -> &[f32] {
        match self {
            Value::Own(t) => t.as_slice(),
            Value::Rows { block, start, len } => {
                let width = block.dims()[1];
                &block.as_slice()[start * width..(start + len) * width]
            }
        }
    }

    /// The value as a tensor of the member's own, its rows copied out of
    /// their block.
    fn into_tensor(self) -> Tensor {
        match self {
            Value::Own(t) => t,
            rows => rows.to_tensor(),
        }
    }

    /// A copy of the value as a tensor of its own.
    fn to_tensor(&self) -> Tensor {
        match self {
            Value::Own(t) => t.clone(),
            Value::Rows { block, len, .. } => {
                Tensor::from_vec(self.data().to_vec(), &[*len, block.dims()[1]])
                    .expect("rows of a matrix")
            }
        }
    }
}

/// Per-job runtime state.
struct JobState<'a> {
    program: &'a Program,
    /// The caller's tensors behind the input slots — read in place,
    /// never copied.
    inputs: &'a [Tensor],
    /// One slot per executed op, after the input slots. A convolution
    /// chain's `Im2col` slot stays `None` unless a fallback needs it, and
    /// a slot is emptied again once its value is dead.
    outputs: Vec<Option<Value>>,
    /// How many of the plan's `drops` have been made.
    dropped: usize,
}

impl JobState<'_> {
    /// The value of the op `operand` is the output of, if it is one.
    fn value(&self, operand: Operand) -> Option<&Value> {
        let op = slot_op(operand, self.inputs.len())?;
        Some(self.outputs[op].as_ref().expect("slot written before read"))
    }

    /// `operand` as a tensor: an input, a constant or a value of the
    /// member's own — rows are copied out of their block ([`JobState::own`])
    /// before a lone read.
    fn resolve(&self, operand: Operand) -> &Tensor {
        match (operand, self.value(operand)) {
            (_, Some(Value::Own(t))) => t,
            (_, Some(Value::Rows { .. })) => unreachable!("rows are copied out before a lone read"),
            (Operand::Slot(s), None) => &self.inputs[s],
            (Operand::Const(c), None) => self.program.consts()[c].as_ref(),
        }
    }

    /// `operand`'s elements in row-major order, wherever they lie.
    fn data(&self, operand: Operand) -> &[f32] {
        match self.value(operand) {
            Some(value) => value.data(),
            None => self.resolve(operand).as_slice(),
        }
    }

    /// `operand`'s planned shape.
    fn dims(&self, operand: Operand) -> &[usize] {
        match operand {
            Operand::Slot(s) => &self.program.plan().shapes[s],
            Operand::Const(c) => self.program.consts()[c].dims(),
        }
    }

    /// The planned shape of the member's output at `stage`.
    fn out_dims(&self, stage: usize) -> &[usize] {
        &self.program.plan().shapes[self.inputs.len() + stage]
    }

    /// Copies `operand`'s rows out of their block, once: every later
    /// reader reads the member's own tensor.
    fn own(&mut self, operand: Operand) {
        if let Some(op) = slot_op(operand, self.inputs.len()) {
            let slot = &mut self.outputs[op];
            if let Some(Value::Rows { .. }) = slot {
                *slot = slot.take().map(|rows| Value::Own(rows.into_tensor()));
            }
        }
    }

    /// Drops every value the plan says is dead once `stage` has run.
    fn drop_dead(&mut self, stage: usize) {
        let drops = &self.program.plan().drops;
        while let Some(&(_, op)) = drops.get(self.dropped).filter(|(at, _)| *at <= stage) {
            self.outputs[op] = None;
            self.dropped += 1;
        }
    }

    /// The program's result. The output moves out of the last slot and
    /// each session output out of its own, rows copied out of their
    /// block; a session output that *is* the last slot is copied first.
    fn finish(mut self) -> ProgramRun {
        let last = self.outputs.len() - 1;
        let mut session_outputs = Vec::with_capacity(self.program.session_outputs().len());
        for &slot in self.program.session_outputs() {
            // A sealed program's session outputs are distinct op slots.
            let op = slot - self.inputs.len();
            let value = if op == last {
                self.outputs[op].as_ref().map(Value::to_tensor)
            } else {
                self.outputs[op].take().map(Value::into_tensor)
            };
            session_outputs.push(value.expect("session output written"));
        }
        let output = self.outputs.pop().flatten().expect("program executed");
        ProgramRun {
            output: output.into_tensor(),
            session_outputs,
        }
    }
}

/// How a stage member coalesces with its peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKey {
    /// GEMM against a shared constant right operand: row-stack.
    GemmRight(u64),
    /// GEMM with a shared constant left operand: column-stack.
    GemmLeft(u64),
    /// Pointwise nonlinear sharing (function, eval mode): row-stack
    /// matrices of one width, concatenate anything else.
    Nonlinear(u64),
    /// Row-wise softmax sharing (eval mode, width): row-stack.
    Softmax(u64, usize),
    /// Row-wise layer-norm sharing (eval mode, γ/β/ε, width): row-stack.
    LayerNorm(u64, usize),
    /// Row-wise INT16 round trip of rows of one width: row-stack.
    QuantizeRows(usize),
    /// Elementwise sum of two matrices of one width: row-stack both.
    Add(usize),
    /// Unmasked attention sharing (eval mode and op, key rows): each
    /// member runs alone, and every head's softmax pass is credited once
    /// over all members' query rows.
    Attention(u64, usize),
    /// Everything else executes per program.
    Solo,
}

impl GroupKey {
    /// Which operands differ per member, and the axis they stack along: a
    /// shared right matrix takes row-stacked activations, a shared left
    /// one (a GCN's Â) column-stacked ones, and a row-wise op stacks every
    /// operand it has. `None` for a solo op.
    fn stacking(self) -> Option<(Axis, Range<usize>)> {
        match self {
            GroupKey::GemmRight(_)
            | GroupKey::Softmax(..)
            | GroupKey::LayerNorm(..)
            | GroupKey::QuantizeRows(_) => Some((Axis::Rows, 0..1)),
            GroupKey::Add(_) => Some((Axis::Rows, 0..2)),
            GroupKey::GemmLeft(_) => Some((Axis::Cols, 1..2)),
            GroupKey::Nonlinear(_) => Some((Axis::Flat, 0..1)),
            GroupKey::Attention(..) | GroupKey::Solo => None,
        }
    }
}

/// One stage's kernel groups, over index buffers reused from stage to
/// stage: no list per group.
#[derive(Default)]
struct Groups {
    /// Each group's key and first member, in first-seen order.
    heads: Vec<(GroupKey, usize)>,
    /// Every member of the stage and its group, in job order.
    members: Vec<(usize, usize)>,
    /// The members group by group (job order within a group); group `g`
    /// is `ids[bounds[g]..bounds[g + 1]]`.
    ids: Vec<usize>,
    bounds: Vec<usize>,
}

impl Groups {
    /// Groups the members of `stage` — every job whose program still has
    /// an op there — by their planned keys, verifying exact equality of
    /// shared constants and parameters behind the hash unless both members
    /// run clones of one sealed program. A solo op is a group of its own
    /// without a search.
    fn collect(&mut self, states: &[JobState], stage: usize) {
        self.heads.clear();
        self.members.clear();
        for (j, state) in states.iter().enumerate() {
            let Some(&key) = state.program.plan().keys.get(stage) else {
                continue;
            };
            #[cfg(debug_assertions)]
            assert_eq!(key, member_key(state, stage), "planned key, stage {stage}");
            // Clones of one sealed program share its plan, and with it
            // every constant and parameter behind the key.
            let peer_of = |&(k, first): &(GroupKey, usize)| {
                k == key
                    && (std::ptr::eq(states[first].program.plan(), state.program.plan())
                        || keys_truly_equal(states, stage, first, j))
            };
            let peer = match key {
                GroupKey::Solo => None,
                _ => self.heads.iter().position(peer_of),
            };
            let g = peer.unwrap_or_else(|| {
                self.heads.push((key, j));
                self.heads.len() - 1
            });
            self.members.push((j, g));
        }
        // The members group by group, job order within a group: every
        // group has a member, so group `g`'s run starts where `g` is
        // first seen in the sorted list.
        self.members.sort_unstable_by_key(|&(j, g)| (g, j));
        self.ids.clear();
        self.bounds.clear();
        for (i, &(j, g)) in self.members.iter().enumerate() {
            if self.bounds.len() == g {
                self.bounds.push(i);
            }
            self.ids.push(j);
        }
        self.bounds.push(self.ids.len());
    }

    /// The members of group `g`.
    fn ids(&self, g: usize) -> &[usize] {
        &self.ids[self.bounds[g]..self.bounds[g + 1]]
    }
}

/// Executes `jobs` — `(program, inputs)` pairs — stage by stage,
/// coalescing compatible ops across programs at every stage. Outputs
/// are bit-identical to running each program alone (row stacking,
/// column stacking and concatenation never change an element's
/// floating-point op sequence), which is what lets `onesa_core`'s
/// engines schedule whole networks the way they batch single GEMMs.
///
/// A [`Program`] is sealed — validated when it was built, re-targeted
/// or decoded, and immutable since — so only the caller's `inputs` are
/// checked here ([`Program::check_inputs`]), and its group keys,
/// convolution chains and slot lifetimes were planned when it was sealed.
///
/// # Errors
///
/// Input count or shape mismatches, kernel shape errors, or
/// table-construction failures.
pub fn run_staged(
    jobs: &[(&Program, &[Tensor])],
    cfg: &ArrayConfig,
    tables: &mut TableCache,
) -> Result<StagedRun> {
    let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
    for (program, inputs) in jobs {
        debug_assert!(program.validate().is_ok(), "a Program value is sealed");
        program.check_inputs(inputs)?;
        states.push(JobState {
            program,
            inputs,
            outputs: (0..program.stages()).map(|_| None).collect(),
            dropped: 0,
        });
    }

    let max_stages = states.iter().map(|s| s.program.stages()).max().unwrap_or(0);
    let mut stages: Vec<StageGroups> = Vec::with_capacity(max_stages);
    let mut batched = ExecStats::new(cfg, CycleBreakdown::default(), 0, 0);
    let (mut total_gemm, mut total_nl, mut conv_sweeps) = (0usize, 0usize, 0usize);
    let mut groups = Groups::default();

    for stage in 0..max_stages {
        groups.collect(&states, stage);
        let (mut stage_gemm, mut stage_nl) = (0usize, 0usize);
        for (g, &(key, first)) in groups.heads.iter().enumerate() {
            let ids = groups.ids(g);
            let op = &states[first].program.nodes()[stage].op;
            match op {
                Op::Gemm { .. } => stage_gemm += 1,
                Op::Nonlinear(_) | Op::Softmax | Op::LayerNorm { .. } => stage_nl += 1,
                _ => {}
            }
            let is_gemm = matches!(op, Op::Gemm { .. });
            let produced = if matches!(op, Op::Attention { .. }) {
                exec_attention(ids, &mut states, stage, cfg, tables)?
            } else {
                match conv_links(ids, &mut states, stage, cfg)? {
                    Some(produced) => {
                        conv_sweeps += usize::from(is_gemm);
                        produced
                    }
                    None => exec_group(key, ids, &mut states, stage, cfg, tables)?,
                }
            };
            batched = batched.merged(&produced);
        }
        for state in &mut states {
            state.drop_dead(stage);
        }
        total_gemm += stage_gemm;
        total_nl += stage_nl;
        stages.push(StageGroups {
            stage,
            ops: groups.members.len(),
            groups: groups.heads.len(),
            gemm_groups: stage_gemm,
            nonlinear_groups: stage_nl,
        });
    }

    Ok(StagedRun {
        runs: states.into_iter().map(JobState::finish).collect(),
        stages,
        batched,
        gemm_groups: total_gemm,
        nonlinear_groups: total_nl,
        conv_sweeps,
    })
}

/// The coalescing key of `node`, an op of `program` whose slots have the
/// shapes `shapes`.
fn group_key(program: &Program, shapes: &[Vec<usize>], node: &OpNode) -> GroupKey {
    let mode = program.mode().coalesce_key();
    let dims = |operand: Operand| match operand {
        Operand::Slot(s) => &shapes[s][..],
        Operand::Const(c) => program.consts()[c].dims(),
    };
    let width = |operand: Operand| dims(operand)[1];
    match &node.op {
        Op::Gemm { sparsity, .. } => match (node.inputs[0], node.inputs[1]) {
            (Operand::Slot(_), Operand::Const(c)) => {
                // Mix the sparsity attribute into the key: a sparse and
                // a dense GEMM over the same weight run different
                // kernels and must never coalesce into one group.
                GroupKey::GemmRight(hash_encoding(program.const_fingerprints()[c], sparsity))
            }
            (Operand::Const(c), Operand::Slot(_)) => {
                GroupKey::GemmLeft(program.const_fingerprints()[c])
            }
            _ => GroupKey::Solo,
        },
        Op::Nonlinear(func) => GroupKey::Nonlinear(hash_encoding(mode, func)),
        Op::Softmax => GroupKey::Softmax(mode, width(node.inputs[0])),
        Op::LayerNorm { .. } => {
            GroupKey::LayerNorm(hash_encoding(mode, &node.op), width(node.inputs[0]))
        }
        Op::QuantizeRows => GroupKey::QuantizeRows(width(node.inputs[0])),
        Op::Add if dims(node.inputs[0]).len() == 2 => GroupKey::Add(width(node.inputs[0])),
        Op::Attention { causal: false, .. } => {
            GroupKey::Attention(hash_encoding(mode, &node.op), dims(node.inputs[1])[0])
        }
        _ => GroupKey::Solo,
    }
}

/// The coalescing key of a member's op at `stage`, computed from its
/// resolved operands as the executor did before keys were planned — the
/// oracle every debug-build run checks the planned key against.
#[cfg(debug_assertions)]
fn member_key(state: &JobState, stage: usize) -> GroupKey {
    let node = &state.program.nodes()[stage];
    let mode = state.program.mode().coalesce_key();
    // The shape of the value an operand holds.
    let held = |operand: Operand| match state.value(operand) {
        Some(Value::Rows { block, len, .. }) => vec![*len, block.dims()[1]],
        _ => state.resolve(operand).dims().to_vec(),
    };
    match &node.op {
        Op::Gemm { sparsity, .. } => match (node.inputs[0], node.inputs[1]) {
            (Operand::Slot(_), Operand::Const(c)) => GroupKey::GemmRight(hash_encoding(
                state.program.const_fingerprints()[c],
                sparsity,
            )),
            (Operand::Const(c), Operand::Slot(_)) => {
                GroupKey::GemmLeft(state.program.const_fingerprints()[c])
            }
            _ => GroupKey::Solo,
        },
        Op::Nonlinear(func) => GroupKey::Nonlinear(hash_encoding(mode, func)),
        Op::Softmax => GroupKey::Softmax(mode, held(node.inputs[0])[1]),
        Op::LayerNorm { .. } => {
            GroupKey::LayerNorm(hash_encoding(mode, &node.op), held(node.inputs[0])[1])
        }
        Op::QuantizeRows => GroupKey::QuantizeRows(held(node.inputs[0])[1]),
        Op::Add => match held(node.inputs[0])[..] {
            [_, n] => GroupKey::Add(n),
            _ => GroupKey::Solo,
        },
        Op::Attention { causal: false, .. } => {
            GroupKey::Attention(hash_encoding(mode, &node.op), held(node.inputs[1])[0])
        }
        _ => GroupKey::Solo,
    }
}

/// Whether `candidate`'s op at `stage` may join the group `first` heads:
/// equal keys are hashes, so the constants and parameters behind them
/// are compared exactly.
fn keys_truly_equal(states: &[JobState], stage: usize, first: usize, candidate: usize) -> bool {
    let a = &states[first].program.nodes()[stage];
    let node = &states[candidate].program.nodes()[stage];
    match (&a.op, &node.op) {
        (Op::Gemm { sparsity: s1, .. }, Op::Gemm { sparsity: s2, .. }) => {
            if s1 != s2 {
                return false;
            }
            let const_of = |j: usize| -> Option<&Tensor> {
                let n = &states[j].program.nodes()[stage];
                n.inputs.iter().find_map(|op| match *op {
                    Operand::Const(c) => Some(states[j].program.consts()[c].as_ref()),
                    Operand::Slot(_) => None,
                })
            };
            match (const_of(first), const_of(candidate)) {
                (Some(x), Some(y)) => same_tensor(x, y),
                _ => false,
            }
        }
        (Op::Nonlinear(f), Op::Nonlinear(g)) => f == g,
        (Op::Softmax, Op::Softmax) | (Op::QuantizeRows, Op::QuantizeRows) | (Op::Add, Op::Add) => {
            true
        }
        (
            Op::LayerNorm { gamma, beta, eps },
            Op::LayerNorm {
                gamma: g2,
                beta: b2,
                eps: e2,
            },
        ) => same_f32s(gamma, g2) && same_f32s(beta, b2) && eps.to_bits() == e2.to_bits(),
        (
            Op::Attention {
                heads,
                scale,
                causal,
            },
            Op::Attention {
                heads: h2,
                scale: s2,
                causal: c2,
            },
        ) => heads == h2 && scale.to_bits() == s2.to_bits() && causal == c2,
        _ => false,
    }
}

fn same_f32s(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The axis along which a group's members stack into one operand.
#[derive(Clone, Copy)]
enum Axis {
    /// Whole rows, one member after another.
    Rows,
    /// Whole columns, side by side.
    Cols,
    /// Every element, flattened into one `[1, total]` row.
    Flat,
}

/// Every member's `side` operand of the group `ids` at `stage`: its
/// elements wherever they lie, and its planned shape.
fn parts<'s>(
    ids: &[usize],
    states: &'s [JobState],
    stage: usize,
    side: usize,
) -> Vec<(&'s [f32], &'s [usize])> {
    ids.iter()
        .map(|&j| {
            let operand = states[j].program.nodes()[stage].inputs[side];
            (states[j].data(operand), states[j].dims(operand))
        })
        .collect()
}

/// Gather: the one operand a group's kernel reads — every member's part
/// stacked along `axis`.
fn gather(axis: Axis, parts: &[(&[f32], &[usize])]) -> Result<Tensor> {
    match axis {
        Axis::Rows | Axis::Flat => {
            let mut vals = Vec::with_capacity(parts.iter().map(|(data, _)| data.len()).sum());
            for (data, _) in parts {
                vals.extend_from_slice(data);
            }
            let dims = match axis {
                Axis::Rows => [parts.iter().map(|(_, dims)| dims[0]).sum(), parts[0].1[1]],
                _ => [1, vals.len()],
            };
            Tensor::from_vec(vals, &dims)
        }
        Axis::Cols => {
            let k = parts[0].1[0];
            let total_n: usize = parts.iter().map(|(_, dims)| dims[1]).sum();
            let mut vals = vec![0.0f32; k * total_n];
            for (r, row) in vals.chunks_mut(total_n).enumerate() {
                let mut off = 0usize;
                for (data, dims) in parts {
                    let nj = dims[1];
                    row[off..off + nj].copy_from_slice(&data[r * nj..(r + 1) * nj]);
                    off += nj;
                }
            }
            Tensor::from_vec(vals, &[k, total_n])
        }
    }
}

/// Scatter: each member's share of a column-stacked or flattened group's
/// `product`, in member order — the columns or elements its part
/// contributed to [`gather`], in its part's shape.
fn scatter(axis: Axis, product: &Tensor, parts: &[(&[f32], &[usize])]) -> Result<Vec<Tensor>> {
    let all = product.as_slice();
    let mut off = 0usize;
    parts
        .iter()
        .map(|(data, dims)| match axis {
            Axis::Cols => {
                let (m, total_n, nj) = (product.dims()[0], product.dims()[1], dims[1]);
                let mut vals = Vec::with_capacity(m * nj);
                for row in all.chunks(total_n) {
                    vals.extend_from_slice(&row[off..off + nj]);
                }
                off += nj;
                Tensor::from_vec(vals, &[m, nj])
            }
            _ => {
                off += data.len();
                Tensor::from_vec(all[off - data.len()..off].to_vec(), dims)
            }
        })
        .collect()
}

/// Runs one group and returns the modeled stats of its one kernel call.
/// The group's shared operands and parameters are its first member's
/// (`keys_truly_equal` vouched for the rest); the operands that differ
/// per member are stacked along the key's axis and [`exec_single`] runs
/// once over them. Every member's output is its share of the product plus
/// — for a GEMM — its *own* bias (each output element is an independent
/// dot product plus that add, so this is bit-identical to the member run
/// alone). Row-stacked members — and a nonlinear's, when they are
/// matrices of one width — run through [`exec_rows`], the rest as gather →
/// kernel → scatter; a group of one runs [`exec_alone`].
fn exec_group(
    key: GroupKey,
    ids: &[usize],
    states: &mut [JobState],
    stage: usize,
    cfg: &ArrayConfig,
    tables: &mut TableCache,
) -> Result<ExecStats> {
    let Some((axis, sides)) = key.stacking().filter(|_| ids.len() > 1) else {
        return exec_alone(ids[0], states, stage, cfg, tables);
    };
    let width = |j: usize| match states[j].dims(states[j].program.nodes()[stage].inputs[0]) {
        [_, n] => Some(*n),
        _ => None,
    };
    let rows = match axis {
        Axis::Rows => true,
        Axis::Flat => width(ids[0]).is_some() && ids.iter().all(|&j| width(j) == width(ids[0])),
        Axis::Cols => false,
    };
    if rows {
        return exec_rows(key, sides, ids, states, stage, cfg, tables);
    }
    let side = sides.start;
    let parts = parts(ids, states, stage, side);
    let (first, program) = (&states[ids[0]], states[ids[0]].program);
    let node = &program.nodes()[stage];
    let stacked = gather(axis, &parts)?;
    let mut ins = [&stacked, &stacked];
    if side == 1 {
        ins[0] = first.resolve(node.inputs[0]);
    }
    let ins = &ins[..node.inputs.len()];
    let product = exec_single(program, node, ins, tables)?;
    // A nonlinear is costed as the one `[1, total]` row the array sweeps.
    let batched = op_cost(&node.op, &[ins[0].dims()], product.dims(), cfg);
    let shares = scatter(axis, &product, &parts)?;
    for (&j, share) in ids.iter().zip(shares) {
        store(&mut states[j], stage, share);
    }
    Ok(batched)
}

/// The block a row-stacked group's `side` operands lie in, if they are
/// exactly its rows, member after member: the kernel reads it in place.
fn block_in_place<'s>(
    ids: &[usize],
    states: &'s [JobState],
    stage: usize,
    side: usize,
) -> Option<&'s Tensor> {
    let (mut block, mut next): (Option<&Rc<Tensor>>, usize) = (None, 0);
    for &j in ids {
        let operand = states[j].program.nodes()[stage].inputs[side];
        let Some(Value::Rows {
            block: b,
            start,
            len,
        }) = states[j].value(operand)
        else {
            return None;
        };
        if *start != next || block.is_some_and(|block| !Rc::ptr_eq(block, b)) {
            return None;
        }
        (block, next) = (Some(b), next + len);
    }
    block.filter(|b| b.dims()[0] == next).map(|b| &**b)
}

/// Runs a row-stacked group of several members. Each stacked operand is
/// the block its members' rows already lie in ([`block_in_place`]), or
/// else — for a GEMM — its members' rows where they lie, handed to the
/// sweep in parts, or their rows gathered; the kernel runs once, and its
/// product stays one block: each member's own GEMM bias is added on its
/// rows, and its slot holds those rows. A row-stacked `Add` is credited
/// as its members' solo passes, the sum of their costs.
#[allow(clippy::too_many_arguments)]
fn exec_rows(
    key: GroupKey,
    sides: Range<usize>,
    ids: &[usize],
    states: &mut [JobState],
    stage: usize,
    cfg: &ArrayConfig,
    tables: &mut TableCache,
) -> Result<ExecStats> {
    let (first, program) = (&states[ids[0]], states[ids[0]].program);
    let node = &program.nodes()[stage];
    let blocks = [0, 1].map(|side| {
        let stacked = sides.contains(&side);
        stacked
            .then(|| block_in_place(ids, states, stage, side))
            .flatten()
    });
    // A GEMM's left rows not in one block are read where they lie.
    let in_parts = matches!(key, GroupKey::GemmRight(_)) && blocks[0].is_none();
    let mut gathered: [Option<Tensor>; 2] = [None, None];
    for side in sides
        .clone()
        .filter(|&side| blocks[side].is_none() && !in_parts)
    {
        gathered[side] = Some(gather(Axis::Rows, &parts(ids, states, stage, side))?);
    }
    let stacked = in_parts.then(|| parts(ids, states, stage, 0));
    let in0 = match (blocks[0], &gathered[0], &stacked) {
        (Some(block), ..) => [block.dims()[0], block.dims()[1]],
        (None, Some(rows), _) => [rows.dims()[0], rows.dims()[1]],
        (None, None, Some(parts)) => [parts.iter().map(|(_, dims)| dims[0]).sum(), parts[0].1[1]],
        (None, None, None) => {
            let dims = first.resolve(node.inputs[0]).dims();
            [dims[0], dims[1]]
        }
    };
    let mut product = match (&node.op, gathered[0].take(), stacked) {
        // The group owns the rows it gathered, and nothing else reads
        // them: a nonlinear sweeps them in place.
        (Op::Nonlinear(func), Some(mut rows), _) => {
            sweep_in_place(program.mode(), *func, &mut rows, tables)?;
            rows
        }
        (_, _, Some(parts)) => {
            let rows: Vec<&[f32]> = parts.iter().map(|&(data, _)| data).collect();
            let b = first.resolve(node.inputs[1]);
            gemm_rows(node, &rows, in0[0], in0[1], b)?
        }
        (_, rows, None) => {
            gathered[0] = rows;
            let operand = |side: usize| match (blocks[side], &gathered[side]) {
                (Some(block), _) => block,
                (None, Some(rows)) => rows,
                (None, None) => first.resolve(node.inputs[side]),
            };
            let ins = [operand(0), operand(node.inputs.len() - 1)];
            exec_single(program, node, &ins[..node.inputs.len()], tables)?
        }
    };
    let batched = match key {
        GroupKey::Add(_) => ids.iter().fold(
            ExecStats::new(cfg, CycleBreakdown::default(), 0, 0),
            |sum, &j| {
                let dims = states[j].out_dims(stage);
                sum.merged(&op_cost(&node.op, &[dims], dims, cfg))
            },
        ),
        // A nonlinear is costed as the one `[1, total]` row the array sweeps.
        GroupKey::Nonlinear(_) => op_cost(&node.op, &[&[1, in0[0] * in0[1]]], &in0, cfg),
        _ => op_cost(&node.op, &[&in0], product.dims(), cfg),
    };
    let width = product.dims()[1];
    let mut start = 0;
    for &j in ids {
        let len = states[j].out_dims(stage)[0];
        let rows = &mut product.as_mut_slice()[start * width..(start + len) * width];
        add_bias(&states[j].program.nodes()[stage].op, rows);
        start += len;
    }
    let block = Rc::new(product);
    let mut start = 0;
    for &j in ids {
        let len = states[j].out_dims(stage)[0];
        let block = Rc::clone(&block);
        states[j].outputs[stage] = Some(Value::Rows { block, start, len });
        start += len;
    }
    Ok(batched)
}

/// Runs a group of one — a solo op, or the only member of its key — on
/// the member's own operands: rows are copied out of their block first,
/// once, except by a `ConcatRows` or a `SliceRows`, which read their
/// rows where they lie.
fn exec_alone(
    j: usize,
    states: &mut [JobState],
    stage: usize,
    cfg: &ArrayConfig,
    tables: &mut TableCache,
) -> Result<ExecStats> {
    let state = &mut states[j];
    let program = state.program;
    let node = &program.nodes()[stage];
    let product = match node.op {
        Op::ConcatRows => {
            let mut vals = Vec::with_capacity(state.out_dims(stage).iter().product());
            for &operand in &node.inputs {
                vals.extend_from_slice(state.data(operand));
            }
            Tensor::from_vec(vals, state.out_dims(stage))?
        }
        Op::SliceRows { start, len } => {
            let width = state.out_dims(stage)[1];
            let rows = &state.data(node.inputs[0])[start * width..(start + len) * width];
            Tensor::from_vec(rows.to_vec(), state.out_dims(stage))?
        }
        _ => {
            for &operand in &node.inputs {
                state.own(operand);
            }
            // Every op but `ConcatRows` has at most three operands.
            let mut ins = [state.resolve(node.inputs[0]); 3];
            for (slot, &operand) in ins.iter_mut().zip(&node.inputs) {
                *slot = state.resolve(operand);
            }
            exec_single(program, node, &ins[..node.inputs.len()], tables)?
        }
    };
    // A nonlinear is costed as the one `[1, total]` row the array sweeps,
    // whatever shape its operand has.
    let in0 = state.dims(node.inputs[0]);
    let row = [1, in0.iter().product()];
    let in0 = match node.op {
        Op::Nonlinear(_) => &row[..],
        _ => in0,
    };
    let batched = op_cost(&node.op, &[in0], product.dims(), cfg);
    store(state, stage, product);
    Ok(batched)
}

/// Runs an attention group: each member's [`Op::Attention`] over its own
/// operands (rows copied out of their block once), credited as the
/// per-head composition it stands for — each member's GEMMs and scale
/// passes alone, and one softmax pass per head over every member's query
/// rows, stacked (an unmasked group's members share their key-row count;
/// a causal op is a group of one).
fn exec_attention(
    ids: &[usize],
    states: &mut [JobState],
    stage: usize,
    cfg: &ArrayConfig,
    tables: &mut TableCache,
) -> Result<ExecStats> {
    let Op::Attention { heads, .. } = states[ids[0]].program.nodes()[stage].op else {
        unreachable!("an attention group runs attention")
    };
    let mut batched = ExecStats::new(cfg, CycleBreakdown::default(), 0, 0);
    let (mut rows, mut kv_rows) = (0, 0);
    for &j in ids {
        let state = &mut states[j];
        let node = &state.program.nodes()[stage];
        for &operand in &node.inputs {
            state.own(operand);
        }
        let ins = [0, 1, 2].map(|i| state.resolve(node.inputs[i]));
        let (m, d, n) = (ins[0].dims()[0], ins[0].dims()[1], ins[1].dims()[0]);
        let out = exec_single(state.program, node, &ins, tables)?;
        batched = batched.merged(&attention_member_cost(cfg, heads, m, n, d));
        (rows, kv_rows) = (rows + m, n);
        store(state, stage, out);
    }
    Ok(batched.merged(&attention_softmax_cost(cfg, heads, rows, kv_rows)))
}

/// Adds — for a GEMM with a bias — the bias to every row of `rows`.
fn add_bias(op: &Op, rows: &mut [f32]) {
    if let Op::Gemm {
        bias: Some(bias), ..
    } = op
    {
        for row in rows.chunks_mut(bias.len().max(1)) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }
}

/// Writes `out` into the slot of the member's op at `stage`, adding — for
/// a GEMM — the member's own bias to every row.
fn store(state: &mut JobState, stage: usize, mut out: Tensor) {
    add_bias(&state.program.nodes()[stage].op, out.as_mut_slice());
    state.outputs[stage] = Some(Value::Own(out));
}

/// Runs the group `ids` at `stage` as a link of a convolution chain
/// ([`Program::conv_chain`]) where it can: a chain's `Im2col` leaves its
/// slot unmaterialised; a `Gemm` group whose members are all chains over
/// one geometry runs as one [`parallel::conv2d`] sweep, each member's
/// product landing as its `[cout, oh, ow]` map; and the `Col2im` of a chain
/// that ran that way is a reshape — the map moves into its slot.
/// Everything reported is computed from shapes, exactly as the three
/// kernels report it, and the outputs are theirs bit for bit (see
/// `onesa_tensor::parallel`, "Four sources of `B`").
///
/// `None` means: run the group through [`exec_group`] as usual. A `Gemm`
/// group that cannot take the sweep — a member outside a chain, members
/// unrolling with different geometries, or operands the sweep declines —
/// first gets back every patch matrix its members' `Im2col`s deferred.
fn conv_links(
    ids: &[usize],
    states: &mut [JobState],
    stage: usize,
    cfg: &ArrayConfig,
) -> Result<Option<ExecStats>> {
    let chain = |state: &JobState| state.program.conv_chain(stage);
    let first = &states[ids[0]];
    let node = &first.program.nodes()[stage];
    match node.op {
        Op::Im2col(geo) if chain(first).is_some() => {
            let x = first.dims(node.inputs[0]);
            let cols = [geo.output_pixels(x[1], x[2])?, geo.patch_len()];
            Ok(Some(op_cost(&node.op, &[x], &cols, cfg)))
        }
        Op::Col2im { .. } => {
            let Some(link) = chain(first) else {
                return Ok(None);
            };
            let col2im = node.op.clone();
            let state = &mut states[ids[0]];
            let slot = &mut state.outputs[link.gemm];
            // A product of rank 3 is a map the sweep made; a matrix means
            // this chain fell back, and its `Col2im` runs as usual.
            if !matches!(slot, Some(Value::Own(t)) if t.dims().len() == 3) {
                return Ok(None);
            }
            let Some(Value::Own(map)) = slot.take() else {
                unreachable!("checked above")
            };
            let (cout, pixels) = (map.dims()[0], map.dims()[1] * map.dims()[2]);
            let stats = op_cost(&col2im, &[&[pixels, cout]], map.dims(), cfg);
            state.outputs[stage] = Some(Value::Own(map));
            Ok(Some(stats))
        }
        Op::Gemm { .. } => {
            let chains: Option<Vec<ConvChain>> = ids.iter().map(|&j| chain(&states[j])).collect();
            if let Some(chains) = &chains {
                if let Some(produced) = conv_group(ids, chains, states, stage, cfg)? {
                    return Ok(Some(produced));
                }
            }
            for &j in ids {
                let state = &mut states[j];
                let Some(link) = chain(state) else {
                    continue;
                };
                let im2col = &state.program.nodes()[link.im2col];
                let Op::Im2col(geo) = im2col.op else {
                    unreachable!("a chain starts at an Im2col")
                };
                if state.outputs[link.im2col].is_none() {
                    let cols = im2col::im2col(state.resolve(im2col.inputs[0]), &geo)?;
                    state.outputs[link.im2col] = Some(Value::Own(cols));
                }
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}

/// A `Gemm` group of convolution chains as one [`parallel::conv2d`] sweep
/// over every member's image, against the first member's packed weight
/// (`keys_truly_equal` vouched for the rest), each member's own bias
/// added per channel plane. `None` if the members unroll with different
/// geometries or the sweep declines their operands.
fn conv_group(
    ids: &[usize],
    chains: &[ConvChain],
    states: &mut [JobState],
    stage: usize,
    cfg: &ArrayConfig,
) -> Result<Option<ExecStats>> {
    let first = &states[ids[0]];
    let im2col = |j: usize, link: &ConvChain| &states[j].program.nodes()[link.im2col];
    let Op::Im2col(geo) = im2col(ids[0], &chains[0]).op else {
        unreachable!("a chain starts at an Im2col")
    };
    let mut images = Vec::with_capacity(ids.len());
    for (&j, link) in ids.iter().zip(chains) {
        let node = im2col(j, link);
        if node.op != Op::Im2col(geo) {
            return Ok(None);
        }
        images.push(states[j].resolve(node.inputs[0]));
    }
    let node = &first.program.nodes()[stage];
    let Operand::Const(w) = node.inputs[1] else {
        unreachable!("a chain's GEMM multiplies by a constant")
    };
    let weight = PackedLhs::of_transposed(&first.program.consts()[w])?;
    let Some(maps) = parallel::conv2d(&weight, &images, &geo)? else {
        return Ok(None);
    };
    // The costs of the GEMMs this sweep stands for: `[pixels, C·k·k]`
    // patch matrices times the `[C·k·k, cout]` weight, row-stacked.
    let (k, cout) = (geo.patch_len(), first.program.consts()[w].dims()[1]);
    let pixels = |map: &Tensor| map.dims()[1] * map.dims()[2];
    let total: usize = maps.iter().map(pixels).sum();
    let batched = op_cost(&node.op, &[&[total, k]], &[total, cout], cfg);
    for (&j, mut map) in ids.iter().zip(maps) {
        let state = &mut states[j];
        if let Op::Gemm {
            bias: Some(bias), ..
        } = &state.program.nodes()[stage].op
        {
            let p = pixels(&map);
            for (plane, b) in map.as_mut_slice().chunks_mut(p).zip(bias) {
                for v in plane {
                    *v += b;
                }
            }
        }
        state.outputs[stage] = Some(Value::Own(map));
    }
    Ok(Some(batched))
}

/// The table `func` evaluates through at `granularity`.
fn table_for(
    tables: &mut TableCache,
    granularity: f32,
    func: NonlinearFn,
) -> Result<&onesa_cpwl::PwlTable> {
    tables
        .get(granularity)?
        .table(func)
        .ok_or(TensorError::InvalidArgument("function not in table set"))
}

/// Row-wise softmax of `x` under `mode`. `causal: None` is `Op::Softmax`
/// over whole rows; `Some(offset)` is `Op::CausalSoftmax`, row `i` seeing
/// its prefix `0 ..= offset + i` and holding exact `0.0` beyond it. Whole
/// CPWL rows run sixteen side by side (`TableSet::softmax_rows`); every
/// other case runs the one row routine, whose bits those are.
fn softmax_rows(
    x: &Tensor,
    mode: EvalMode,
    tables: &mut TableCache,
    causal: Option<usize>,
) -> Result<Tensor> {
    let (m, n) = x.shape().as_matrix()?;
    let set = match mode {
        EvalMode::Exact => None,
        EvalMode::Cpwl { granularity, .. } => Some(tables.get(granularity)?),
    };
    if let (Some(set), None) = (set, causal) {
        return Ok(set.softmax_rows(x)?);
    }
    let mut out = Tensor::zeros(&[m, n]);
    let rows = out.as_mut_slice().chunks_mut(n.max(1));
    for (i, (row, src)) in rows.zip(x.as_slice().chunks(n.max(1))).enumerate() {
        let row = &mut row[..causal.map_or(n, |offset| offset + i + 1)];
        row.copy_from_slice(&src[..row.len()]);
        match set {
            Some(set) => set.softmax_row(row),
            None => ops::softmax_row_exact(row),
        }
    }
    Ok(out)
}

/// Executes `node`'s op on resolved inputs: the one kernel site of every
/// op, reached through [`exec_group`] with a group's stacked operands or
/// a lone member's own (through [`exec_attention`], member by member),
/// and kept op-for-op identical to the direct model code it replaces (see
/// `onesa-nn`'s `*_direct` reference implementations). The exceptions are
/// a convolution chain run as one sweep, whose three links [`conv_links`]
/// stands in for, and `ConcatRows` and `SliceRows`, which [`exec_alone`]
/// copies from their rows where they lie. A GEMM's bias is *not* added here — it
/// belongs to the member, not the group, so [`exec_group`] adds it to the
/// member's share.
fn exec_single(
    program: &Program,
    node: &OpNode,
    ins: &[&Tensor],
    tables: &mut TableCache,
) -> Result<Tensor> {
    let mode = program.mode();
    match &node.op {
        // A constant left matrix is packed once per buffer, in its
        // storage, and so is a constant right operand (in `gemm_rows`).
        Op::Gemm { sparsity, .. } => match (sparsity, node.inputs[0]) {
            (None, Operand::Const(_)) => {
                let lhs = PackedLhs::of(ins[0])?;
                parallel::matmul_packed(&lhs, ins[1])
            }
            _ => {
                let (m, k) = ins[0].shape().as_matrix()?;
                gemm_rows(node, &[ins[0].as_slice()], m, k, ins[1])
            }
        },
        Op::Nonlinear(func) => match mode {
            EvalMode::Exact => Ok(ins[0].map(|v| func.eval(v))),
            EvalMode::Cpwl { granularity, .. } => {
                Ok(table_for(tables, granularity, *func)?.eval_tensor(ins[0])?)
            }
        },
        Op::Softmax => softmax_rows(ins[0], mode, tables, None),
        Op::LayerNorm { gamma, beta, eps } => Ok(match mode {
            EvalMode::Exact => ops::layernorm_rows_exact(ins[0], gamma, beta, *eps)?,
            EvalMode::Cpwl { granularity, .. } => tables
                .get(granularity)?
                .layernorm_rows(ins[0], gamma, beta, *eps)?,
        }),
        Op::Im2col(geo) => im2col::im2col(ins[0], geo),
        Op::Col2im { channels, oh, ow } => im2col::col2im_output(ins[0], *channels, *oh, *ow),
        Op::Add => ins[0].add(ins[1]),
        Op::Affine { k, b } => {
            let mut y = ins[0].clone();
            let planes = y.as_mut_slice().chunks_mut(plane_len(ins[0]));
            for (plane, (k, b)) in planes.zip(k.iter().zip(b)) {
                for v in plane {
                    *v = *v * k + b;
                }
            }
            Ok(y)
        }
        Op::AffineNonlinear { k, b, func } => match mode {
            EvalMode::Exact => {
                let mut y = ins[0].clone();
                let planes = y.as_mut_slice().chunks_mut(plane_len(ins[0]));
                for (plane, (k, b)) in planes.zip(k.iter().zip(b)) {
                    for v in plane {
                        *v = func.eval(*v * k + b);
                    }
                }
                Ok(y)
            }
            EvalMode::Cpwl { granularity, .. } => {
                // One MHP pass: the IPF stage indexes the table on the
                // affine output t = k·x + b and folds (k, b) into the
                // fetched segment parameters, so the array evaluates
                // f(k·x + b) as a single x ⊙ k' + b' sweep.
                let table = table_for(tables, granularity, *func)?;
                let plane = plane_len(ins[0]);
                let mut y = Tensor::zeros(ins[0].dims());
                let planes = y.as_mut_slice().chunks_mut(plane);
                let planes = planes.zip(ins[0].as_slice().chunks(plane));
                for ((out, x), (&k, &b)) in planes.zip(k.iter().zip(b)) {
                    table.eval_affine_slice(k, b, x, out);
                }
                Ok(y)
            }
        },
        Op::Pool(PoolKind::GlobalAvg) => {
            // Each channel's plane summed from `-0.0` left to right, as
            // `iter().sum()` sums it, sixteen planes side by side.
            let dims = ins[0].dims();
            let (c, plane) = (dims[0], dims[1] * dims[2]);
            let mut pooled = vec![-0.0f32; c];
            let blocks = ins[0].as_slice().chunks(16 * plane.max(1));
            for (sums, block) in pooled.chunks_mut(16).zip(blocks) {
                let mut acc = [-0.0f32; 16];
                gemm::fold_rows(block, plane, &mut acc, |s, v| s + v);
                sums.copy_from_slice(&acc[..sums.len()]);
            }
            for v in &mut pooled {
                *v /= plane as f32;
            }
            Tensor::from_vec(pooled, &[1, c])
        }
        Op::Pool(PoolKind::MeanRows) => {
            let (l, d) = ins[0].shape().as_matrix()?;
            let mut pooled = Tensor::zeros(&[1, d]);
            for row in ins[0].as_slice().chunks(d.max(1)) {
                for (p, v) in pooled.as_mut_slice().iter_mut().zip(row) {
                    *p += v / l as f32;
                }
            }
            Ok(pooled)
        }
        Op::Quantize { precision } => Ok(match precision {
            Precision::Int16 => QuantTensor::round_trip(ins[0]),
            Precision::Int8 => QuantTensor8::round_trip(ins[0]),
        }),
        Op::QuantizeRows => {
            // Each row round-trips through INT16 with its own scale, so
            // the result for row i is a pure function of row i — the
            // row-decomposability the KV-cache decode path relies on.
            QuantTensor::round_trip_rows(ins[0])
        }
        Op::EmbedAt { offset } => {
            let (_, l) = ins[0].shape().as_matrix()?;
            let d = ins[1].dims()[1];
            let mut out = Tensor::zeros(&[l, d]);
            for i in 0..l {
                let id = ins[0].as_slice()[i];
                if !(id >= 0.0 && id.fract() == 0.0) {
                    return Err(TensorError::InvalidArgument(
                        "token id is not a non-negative integer",
                    ));
                }
                let tok = ins[1].row(id as usize)?;
                let pos = ins[2].row(offset + i)?;
                let row = out.row_mut(i)?;
                for j in 0..d {
                    row[j] = tok[j] + pos[j];
                }
            }
            Ok(out)
        }
        Op::ConcatRows | Op::SliceRows { .. } => {
            unreachable!("a row copy reads its rows where they lie")
        }
        Op::CausalSoftmax { offset } => {
            // Row i softmaxes its visible prefix `0 ..= offset + i`
            // through the SAME row-softmax routine a plain `Op::Softmax`
            // over that prefix would use, and writes exact 0.0 beyond it
            // — so a prefill's row is bit-identical to a later decode
            // step's full-row softmax at the same context length.
            softmax_rows(ins[0], mode, tables, Some(*offset))
        }
        Op::Attention {
            heads,
            scale,
            causal,
        } => {
            let set = match mode {
                EvalMode::Exact => None,
                EvalMode::Cpwl { granularity, .. } => Some(tables.get(granularity)?),
            };
            // The rows' softmax as `Op::Softmax` runs it; a causal row goes
            // alone, and one row of the block routine is the row routine's
            // bits, as `Op::CausalSoftmax` computes them. The kernel merges
            // heads with a `+=` into zeros, like the attention layer's
            // `head_write`, so the merged heads are bit-identical to the
            // direct path.
            let softmax = |rows: &mut [f32], n: usize| match set {
                Some(set) => set.softmax_rows_in_place(rows, n),
                None => rows.chunks_mut(n).for_each(ops::softmax_row_exact),
            };
            let [q, k, v] = [ins[0], ins[1], ins[2]];
            attention::attention(q, k, v, *heads, *scale, *causal, softmax)
        }
    }
}

/// The product of a GEMM's left operand — `m × k`, the rows of `parts`,
/// read where they lie — by its right operand `b`. A constant `b` is
/// packed once per buffer, in its storage: a sparse weight's payload, or
/// a dense one's column panels, which the sweep then reads in place. An
/// activation `b` is packed panel by panel per call. No bias is added.
fn gemm_rows(node: &OpNode, parts: &[&[f32]], m: usize, k: usize, b: &Tensor) -> Result<Tensor> {
    let Op::Gemm { sparsity, .. } = &node.op else {
        unreachable!("a GEMM's operands")
    };
    match (sparsity, node.inputs[1]) {
        (Some(s), Operand::Const(_)) => {
            let sparse = SparseTensor::of(b, s.block_cols)?;
            parallel::matmul_rows(parts, m, k, Right::Sparse(&sparse))
        }
        (Some(_), _) => unreachable!("a sealed program's sparse weight is a constant"),
        (None, Operand::Const(_)) => parallel::matmul_rows(parts, m, k, Right::Reused(b)),
        (None, Operand::Slot(_)) => parallel::matmul_rows(parts, m, k, Right::Dense(b)),
    }
}

/// `func` over every element of `x`, in place, as [`exec_single`]'s
/// `Nonlinear` arm evaluates it into a new tensor: element for element the
/// same sweep.
fn sweep_in_place(
    mode: EvalMode,
    func: NonlinearFn,
    x: &mut Tensor,
    tables: &mut TableCache,
) -> Result<()> {
    match mode {
        EvalMode::Exact => x.as_mut_slice().iter_mut().for_each(|v| *v = func.eval(*v)),
        EvalMode::Cpwl { granularity, .. } => {
            let table = table_for(tables, granularity, func)?;
            table.eval_in_place(x.as_mut_slice());
        }
    }
    Ok(())
}

/// Elements per channel of a `[C, H, W]` tensor — the `chunks` size that
/// walks it plane by plane (1 for an empty plane: `chunks(0)` panics).
fn plane_len(t: &Tensor) -> usize {
    (t.dims()[1] * t.dims()[2]).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::GemmSparsity;
    use onesa_tensor::im2col::Conv2dGeometry;
    use onesa_tensor::parallel::Parallelism;
    use onesa_tensor::rng::Pcg32;

    const SEQ: Parallelism = Parallelism::Sequential;

    fn cpwl() -> EvalMode {
        EvalMode::Cpwl {
            granularity: 0.25,
            quantize: false,
        }
    }

    fn mlp(mode: EvalMode, w1: &Tensor, w2: &Tensor) -> Program {
        let mut b = Program::builder("mlp", mode);
        let x = b.input(&[3, 6]);
        let (w1, w2) = (b.constant(w1.clone()), b.constant(w2.clone()));
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
                bias: None,
                sparsity: None,
            },
            &[g, w2],
        );
        b.finish().unwrap()
    }

    #[test]
    fn solo_run_matches_hand_computation() {
        let mut rng = Pcg32::seed_from_u64(1);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let x = rng.randn(&[3, 6], 1.0);
        let tables = TableSet::for_granularity(0.25).unwrap();
        for mode in [EvalMode::Exact, cpwl()] {
            let p = mlp(mode, &w1, &w2);
            let run = p
                .run(std::slice::from_ref(&x), SEQ, &mut TableCache::new())
                .unwrap();
            let h = gemm::matmul(&x, &w1).unwrap();
            let g = match mode {
                EvalMode::Exact => h.map(|v| NonlinearFn::Gelu.eval(v)),
                EvalMode::Cpwl { .. } => tables.gelu(&h).unwrap(),
            };
            let expect = gemm::matmul(&g, &w2).unwrap();
            assert_eq!(run.output, expect, "{mode:?}");
        }
    }

    #[test]
    fn staged_runs_coalesce_across_programs_at_every_stage() {
        let mut rng = Pcg32::seed_from_u64(2);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let xs: Vec<Tensor> = (0..3).map(|_| rng.randn(&[3, 6], 1.0)).collect();
        let p = mlp(cpwl(), &w1, &w2);
        let cfg = ArrayConfig::new(8, 16);
        let mut cache = TableCache::new();

        // Solo references.
        let solos: Vec<Tensor> = xs
            .iter()
            .map(|x| {
                p.run(std::slice::from_ref(x), SEQ, &mut cache)
                    .unwrap()
                    .output
            })
            .collect();

        // Concurrent staged run: every stage coalesces 3 ops -> 1 group.
        let jobs: Vec<(&Program, &[Tensor])> =
            xs.iter().map(|x| (&p, std::slice::from_ref(x))).collect();
        let staged = run_staged(&jobs, &cfg, &mut cache).unwrap();
        for (run, solo) in staged.runs.iter().zip(&solos) {
            assert_eq!(&run.output, solo);
        }
        assert_eq!(staged.stages.len(), 3);
        for s in &staged.stages {
            assert_eq!((s.ops, s.groups), (3, 1), "stage {}", s.stage);
        }
        assert_eq!(staged.gemm_groups, 2);
        assert_eq!(staged.nonlinear_groups, 1);
        // The coalesced schedule beats three solo schedules.
        let solo_total: f64 = (0..3)
            .map(|_| {
                p.op_stats(&cfg)
                    .unwrap()
                    .iter()
                    .map(|s| s.seconds())
                    .sum::<f64>()
            })
            .sum();
        assert!(staged.batched.seconds() < solo_total);
    }

    #[test]
    fn gemm_left_column_stacking_is_bit_identical() {
        // Two programs sharing a constant LEFT operand (the GCN's Â).
        let mut rng = Pcg32::seed_from_u64(3);
        let a_hat = rng.randn(&[5, 5], 1.0);
        let build = |n: usize| {
            let mut b = Program::builder("gcn-ish", EvalMode::Exact);
            let x = b.input(&[5, n]);
            let a = b.constant(a_hat.clone());
            b.push(
                Op::Gemm {
                    bias: None,
                    sparsity: None,
                },
                &[a, x],
            );
            b.finish().unwrap()
        };
        let (p1, p2) = (build(4), build(7));
        let x1 = rng.randn(&[5, 4], 1.0);
        let x2 = rng.randn(&[5, 7], 1.0);
        let cfg = ArrayConfig::new(8, 16);
        let staged = run_staged(
            &[
                (&p1, std::slice::from_ref(&x1)),
                (&p2, std::slice::from_ref(&x2)),
            ],
            &cfg,
            &mut TableCache::new(),
        )
        .unwrap();
        assert_eq!(staged.runs[0].output, gemm::matmul(&a_hat, &x1).unwrap());
        assert_eq!(staged.runs[1].output, gemm::matmul(&a_hat, &x2).unwrap());
        assert_eq!(staged.stages[0].groups, 1);
        assert_eq!(staged.gemm_groups, 1);
    }

    #[test]
    fn constant_left_operand_packs_once_for_runs_clones_and_retargets() {
        // Â with real zeros in it, read by two GEMMs of one program.
        let mut rng = Pcg32::seed_from_u64(21);
        let a_hat = rng.randn(&[9, 9], 1.0).map(|v| v.max(0.0));
        let build_cols = |a_hat: Tensor, cols: usize| {
            let mut b = Program::builder("gcn-ish", EvalMode::Exact);
            let x = b.input(&[9, cols]);
            let a = b.constant(a_hat);
            let gemm = Op::Gemm {
                bias: None,
                sparsity: None,
            };
            let ax = b.push(gemm.clone(), &[a, x]);
            b.push(gemm, &[a, ax]);
            b.finish().unwrap()
        };
        let build = |a_hat: Tensor| build_cols(a_hat, 5);
        let program = build(a_hat.clone());
        let clone = program.clone();
        assert_eq!(program.packed_consts(), 0, "nothing is packed until a run");
        let x = rng.randn(&[9, 5], 1.0);
        let want = gemm::matmul(&a_hat, &gemm::matmul(&a_hat, &x).unwrap()).unwrap();
        for _ in 0..2 {
            // A fresh table cache per run, as the nn wrappers hand over.
            let run = program.run(std::slice::from_ref(&x), SEQ, &mut TableCache::new());
            assert_eq!(run.unwrap().output, want);
        }
        assert_eq!(program.packed_consts(), 1);
        // Clones keep the constants, so they keep the pack; so does a
        // program built apart from a clone of the same `Â`, at this shape
        // or another, since the pack is in the storage. A program over a
        // copy of `Â` has its own, still empty — and is equal all the
        // same.
        assert_eq!(clone.packed_consts(), 1);
        let wide = build_cols(a_hat.clone(), 7);
        assert_eq!(wide.packed_consts(), 1);
        let x7 = rng.randn(&[9, 7], 1.0);
        let run = wide.run(std::slice::from_ref(&x7), SEQ, &mut TableCache::new());
        let want7 = gemm::matmul(&a_hat, &gemm::matmul(&a_hat, &x7).unwrap()).unwrap();
        assert_eq!(run.unwrap().output, want7);
        let apart = build(a_hat.clone());
        assert_eq!((apart.packed_consts(), apart == program), (1, true));
        let copy = Tensor::from_vec(a_hat.as_slice().to_vec(), a_hat.dims()).unwrap();
        let copied = build(copy);
        assert_eq!((copied.packed_consts(), copied == program), (0, true));
        let run = copied.run(std::slice::from_ref(&x), SEQ, &mut TableCache::new());
        assert_eq!(run.unwrap().output, want);
        assert_eq!((copied.packed_consts(), program.packed_consts()), (1, 1));
    }

    #[test]
    fn distinct_weights_and_modes_do_not_coalesce() {
        let mut rng = Pcg32::seed_from_u64(4);
        let w1 = rng.randn(&[6, 4], 1.0);
        let w2 = rng.randn(&[4, 3], 1.0);
        let w1b = rng.randn(&[6, 4], 1.0);
        let x = rng.randn(&[3, 6], 1.0);
        let p_a = mlp(cpwl(), &w1, &w2);
        let p_b = mlp(cpwl(), &w1b, &w2);
        let p_exact = mlp(EvalMode::Exact, &w1, &w2);
        let cfg = ArrayConfig::new(8, 16);
        let staged = run_staged(
            &[
                (&p_a, std::slice::from_ref(&x)),
                (&p_b, std::slice::from_ref(&x)),
                (&p_exact, std::slice::from_ref(&x)),
            ],
            &cfg,
            &mut TableCache::new(),
        )
        .unwrap();
        // Stage 0: three distinct first-layer weights -> no coalescing
        // between a/b; exact program shares w1 with p_a -> coalesces.
        assert_eq!(staged.stages[0].groups, 2);
        // Stage 1: GELU under cpwl(0.25) twice (one group) + exact (own).
        assert_eq!(staged.stages[1].groups, 2);
        // Stage 2: shared w2 for the two cpwl programs + exact's own...
        // w2 is identical for all three, and GEMM coalescing is
        // mode-independent: one group.
        assert_eq!(staged.stages[2].groups, 1);
    }

    #[test]
    fn input_shape_mismatch_is_rejected() {
        let mut rng = Pcg32::seed_from_u64(5);
        let p = mlp(
            EvalMode::Exact,
            &rng.randn(&[6, 4], 1.0),
            &rng.randn(&[4, 3], 1.0),
        );
        let bad = rng.randn(&[2, 6], 1.0);
        assert!(p.run(&[bad], SEQ, &mut TableCache::new()).is_err());
        assert!(p.run(&[], SEQ, &mut TableCache::new()).is_err());
    }

    #[test]
    fn table_cache_reuses_sets() {
        let mut cache = TableCache::new();
        cache.seed(TableSet::for_granularity(0.25).unwrap());
        assert_eq!(cache.get(0.25).unwrap().granularity(), 0.25);
        assert_eq!(cache.get(0.5).unwrap().granularity(), 0.5);
        assert!(cache.get(f32::NAN).is_err());
    }

    /// A weight with its second 16-column block zeroed, plus the dense
    /// and sparse-attributed programs over it.
    fn sparse_pair() -> (Tensor, Program, Program) {
        let mut rng = Pcg32::seed_from_u64(6);
        let n = 32;
        let mut w = rng.randn(&[6, n], 1.0);
        for r in 0..6 {
            for c in 16..n {
                w.as_mut_slice()[r * n + c] = 0.0;
            }
        }
        let build = |sparsity| {
            let mut b = Program::builder("sp", EvalMode::Exact);
            let x = b.input(&[3, 6]);
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
        let dense = build(None);
        let sparse = build(Some(GemmSparsity {
            block_cols: 16,
            nnz_blocks: 1,
            total_blocks: 2,
            nnz_cols: 16,
        }));
        (w, dense, sparse)
    }

    #[test]
    fn sparse_gemm_runs_bit_identical_and_packs_once() {
        let (w, dense, sparse) = sparse_pair();
        let mut rng = Pcg32::seed_from_u64(7);
        let x = rng.randn(&[3, 6], 1.0);
        let mut cache = TableCache::new();
        let d = dense
            .run(std::slice::from_ref(&x), SEQ, &mut cache)
            .unwrap();
        let s = sparse
            .run(std::slice::from_ref(&x), SEQ, &mut cache)
            .unwrap();
        assert_eq!(d.output, s.output);
        assert_eq!(d.output, gemm::matmul(&x, &w).unwrap());
        // Sparse credit shows up in the solo stats.
        let macs = |p: &Program| p.op_stats(&ArrayConfig::default()).unwrap()[0].macs;
        assert!(macs(&sparse) < macs(&dense));
        // Every sparse run hit the one pack the weight's storage keeps, and
        // both programs hold that storage. The dense product's three rows
        // take the reference loop, which packs nothing.
        assert_eq!((dense.packed_consts(), sparse.packed_consts()), (1, 1));
    }

    #[test]
    fn one_weight_read_at_two_block_widths_stays_correct() {
        // The shared slot holds the first width asked for; the other GEMM
        // packs its own copy rather than sweep a mismatched payload.
        let (w, _, _) = sparse_pair();
        let mut b = Program::builder("sp2", EvalMode::Exact);
        let x = b.input(&[3, 6]);
        let wc = b.constant(w.clone());
        let at = |block_cols: usize| Op::Gemm {
            bias: None,
            sparsity: Some(GemmSparsity {
                block_cols,
                nnz_blocks: 16 / block_cols,
                total_blocks: 32 / block_cols,
                nnz_cols: 16,
            }),
        };
        let wide = b.push(at(16), &[x, wc]);
        let narrow = b.push(at(8), &[x, wc]);
        b.push(Op::Add, &[wide, narrow]);
        let program = b.finish().unwrap();
        let x = Pcg32::seed_from_u64(9).randn(&[3, 6], 1.0);
        let run = program.run(std::slice::from_ref(&x), SEQ, &mut TableCache::new());
        let xw = gemm::matmul(&x, &w).unwrap();
        assert_eq!(run.unwrap().output, xw.add(&xw).unwrap());
        assert_eq!(program.packed_consts(), 1);
    }

    #[test]
    fn sparse_and_dense_gemms_over_one_weight_do_not_coalesce() {
        let (_, dense, sparse) = sparse_pair();
        let mut rng = Pcg32::seed_from_u64(8);
        let x1 = rng.randn(&[3, 6], 1.0);
        let x2 = rng.randn(&[3, 6], 1.0);
        let cfg = ArrayConfig::new(8, 16);
        let staged = run_staged(
            &[
                (&dense, std::slice::from_ref(&x1)),
                (&sparse, std::slice::from_ref(&x2)),
            ],
            &cfg,
            &mut TableCache::new(),
        )
        .unwrap();
        // Same weight, different kernels: two groups, both GEMM.
        assert_eq!(staged.stages[0].groups, 2);
        assert_eq!(staged.gemm_groups, 2);
        // And two sparse programs over the weight DO coalesce.
        let staged = run_staged(
            &[
                (&sparse, std::slice::from_ref(&x1)),
                (&sparse, std::slice::from_ref(&x2)),
            ],
            &cfg,
            &mut TableCache::new(),
        )
        .unwrap();
        assert_eq!(staged.stages[0].groups, 1);
        // Coalesced sparse output still matches the dense reference.
        let d1 = dense
            .run(std::slice::from_ref(&x1), SEQ, &mut TableCache::new())
            .unwrap();
        assert_eq!(staged.runs[0].output, d1.output);
    }

    /// The six coalescing shapes `group_key` can route a group to.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        GemmRight,
        GemmRightSparse,
        GemmLeft,
        Nonlinear,
        Softmax,
        LayerNorm,
    }

    /// Member `i` of a `kind` group and its input. Members differ in
    /// row / column / element count (the pointwise ones in rank too),
    /// and every GEMM member carries its own bias over the one shared
    /// weight.
    fn group_member(kind: Kind, mode: EvalMode, i: usize) -> (Program, Tensor) {
        let mut rng = Pcg32::seed_from_u64(40);
        let (w, sparsity) = match kind {
            Kind::GemmRightSparse => {
                let (w, _, sparse) = sparse_pair();
                let Op::Gemm { sparsity, .. } = sparse.nodes()[0].op else {
                    unreachable!("sparse_pair builds a GEMM")
                };
                (w, sparsity)
            }
            Kind::GemmLeft => (rng.randn(&[5, 5], 1.0), None),
            _ => (rng.randn(&[6, 32], 1.0), None),
        };
        let pointwise_dims: [&[usize]; 4] = [&[3, 5], &[2, 3, 4], &[1, 7], &[4, 4]];
        let dims: Vec<usize> = match kind {
            Kind::GemmRight | Kind::GemmRightSparse | Kind::LayerNorm => vec![2 + i, 6],
            Kind::GemmLeft => vec![5, 3 + i],
            Kind::Nonlinear => pointwise_dims[i].to_vec(),
            Kind::Softmax => vec![1 + i, 7],
        };
        let bias = |n: usize| Some((0..n).map(|c| (i + 1) as f32 * 0.5 - c as f32).collect());
        let mut b = Program::builder("member", mode);
        let x = b.input(&dims);
        match kind {
            Kind::GemmRight | Kind::GemmRightSparse => {
                let n = w.dims()[1];
                let wc = b.constant(w);
                b.push(
                    Op::Gemm {
                        bias: bias(n),
                        sparsity,
                    },
                    &[x, wc],
                );
            }
            Kind::GemmLeft => {
                let a = b.constant(w);
                b.push(
                    Op::Gemm {
                        bias: bias(dims[1]),
                        sparsity: None,
                    },
                    &[a, x],
                );
            }
            Kind::Nonlinear => {
                b.push(Op::Nonlinear(NonlinearFn::Gelu), &[x]);
            }
            Kind::Softmax => {
                b.push(Op::Softmax, &[x]);
            }
            Kind::LayerNorm => {
                let gamma = (0..6).map(|c| 1.0 + c as f32 * 0.25).collect();
                let beta = (0..6).map(|c| c as f32 * -0.5).collect();
                b.push(
                    Op::LayerNorm {
                        gamma,
                        beta,
                        eps: 1e-5,
                    },
                    &[x],
                );
            }
        }
        let input = Pcg32::seed_from_u64(50 + i as u64).randn(&dims, 1.5);
        (b.finish().unwrap(), input)
    }

    /// `(cycles, macs, nonlinear evals)` of a modeled stat.
    type Triple = (u64, u64, u64);

    /// Recorded at the commit before `exec_group` became gather → kernel
    /// → scatter: per kind, the `batched` figure of a group of 1..=4
    /// members, then each member's solo `op_stats`. A group of one
    /// nonlinear is costed as its `[1, total]` row — not as its solo
    /// shape — which is why `Nonlinear`'s first entries differ.
    const GOLDEN: [(Kind, [Triple; 4], [Triple; 4]); 6] = [
        (
            Kind::GemmRight,
            [(87, 384, 0), (87, 960, 0), (151, 1728, 0), (151, 2688, 0)],
            [(87, 384, 0), (87, 576, 0), (87, 768, 0), (87, 960, 0)],
        ),
        (
            Kind::GemmRightSparse,
            [(55, 192, 0), (55, 480, 0), (87, 864, 0), (87, 1344, 0)],
            [(55, 192, 0), (55, 288, 0), (55, 384, 0), (55, 480, 0)],
        ),
        (
            Kind::GemmLeft,
            [(42, 75, 0), (43, 175, 0), (55, 300, 0), (71, 450, 0)],
            [(42, 75, 0), (43, 100, 0), (43, 125, 0), (43, 150, 0)],
        ),
        (
            Kind::Nonlinear,
            [(18, 30, 15), (21, 78, 39), (22, 92, 46), (24, 124, 62)],
            [(17, 30, 15), (19, 48, 24), (17, 14, 7), (17, 32, 16)],
        ),
        (
            Kind::Softmax,
            [(84, 37, 8), (84, 111, 24), (85, 222, 48), (101, 370, 80)],
            [(84, 37, 8), (84, 74, 16), (84, 111, 24), (85, 148, 32)],
        ),
        (
            Kind::LayerNorm,
            [(126, 100, 2), (128, 250, 5), (158, 450, 9), (158, 700, 14)],
            [(126, 100, 2), (126, 150, 3), (128, 200, 4), (128, 250, 5)],
        ),
    ];

    #[test]
    fn groups_of_one_to_four_match_solo_runs_and_golden_accounting() {
        let cfg = ArrayConfig::new(8, 16);
        let triple = |s: &ExecStats| (s.cycles(), s.macs, s.nonlinear_evals);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (kind, batched, solo) in GOLDEN {
            for mode in [EvalMode::Exact, cpwl()] {
                for size in 1..=4usize {
                    let case = format!("{kind:?} x{size} {mode:?}");
                    let members: Vec<(Program, Tensor)> =
                        (0..size).map(|i| group_member(kind, mode, i)).collect();
                    let jobs: Vec<(&Program, &[Tensor])> = members
                        .iter()
                        .map(|(p, x)| (p, std::slice::from_ref(x)))
                        .collect();
                    let mut cache = TableCache::new();
                    let staged = run_staged(&jobs, &cfg, &mut cache).unwrap();
                    let is_gemm = matches!(
                        kind,
                        Kind::GemmRight | Kind::GemmRightSparse | Kind::GemmLeft
                    );
                    assert_eq!(
                        staged.stages,
                        [StageGroups {
                            stage: 0,
                            ops: size,
                            groups: 1,
                            gemm_groups: usize::from(is_gemm),
                            nonlinear_groups: usize::from(!is_gemm),
                        }],
                        "{case}"
                    );
                    assert_eq!(triple(&staged.batched), batched[size - 1], "{case}");
                    for (i, (run, job)) in staged.runs.iter().zip(&jobs).enumerate() {
                        let alone = run_staged(&[*job], &cfg, &mut cache).unwrap();
                        let alone = &alone.runs[0];
                        assert_eq!(run.output.dims(), alone.output.dims(), "{case} #{i}");
                        assert_eq!(bits(&run.output), bits(&alone.output), "{case} #{i}");
                        let op_stats = job.0.op_stats(&cfg).unwrap();
                        assert_eq!(triple(&op_stats[0]), solo[i], "{case} #{i}");
                    }
                }
            }
        }
    }

    #[test]
    fn members_sharing_a_weight_keep_their_own_bias() {
        // Dense and sparse: two programs over one weight with different
        // biases coalesce into one kernel call, and each gets the
        // product plus its own bias — checked against the reference
        // kernel, not just against the executor's own solo path.
        for kind in [Kind::GemmRight, Kind::GemmRightSparse] {
            let (p0, x0) = group_member(kind, EvalMode::Exact, 0);
            let (p1, x1) = group_member(kind, EvalMode::Exact, 1);
            let staged = run_staged(
                &[
                    (&p0, std::slice::from_ref(&x0)),
                    (&p1, std::slice::from_ref(&x1)),
                ],
                &ArrayConfig::new(8, 16),
                &mut TableCache::new(),
            )
            .unwrap();
            assert_eq!(staged.gemm_groups, 1, "{kind:?}");
            for (run, (p, x)) in staged.runs.iter().zip([(&p0, &x0), (&p1, &x1)]) {
                let Op::Gemm {
                    bias: Some(bias), ..
                } = &p.nodes()[0].op
                else {
                    unreachable!("group_member gives every GEMM a bias")
                };
                let mut expect = gemm::matmul(x, &p.consts()[0]).unwrap();
                for row in expect.as_mut_slice().chunks_mut(bias.len()) {
                    for (v, b) in row.iter_mut().zip(bias) {
                        *v += b;
                    }
                }
                assert_eq!(run.output, expect, "{kind:?}");
            }
            assert_ne!(staged.runs[0].output.row(0), staged.runs[1].output.row(0));
        }
    }

    /// The geometry of [`conv_member`]: 3 → 5 channels (a ragged row block
    /// of the weight), 3×3, padding 1.
    const CONV: Conv2dGeometry = Conv2dGeometry {
        in_channels: 3,
        out_channels: 5,
        kernel: 3,
        stride: 1,
        padding: 1,
    };

    /// Member `i` of a convolution group, as the compilers emit one —
    /// `Im2col` → `Gemm` against the one shared `[27, 5]` weight with the
    /// member's own bias → `Col2im` — over a ReLU-masked `[3, side, side]`
    /// image.
    fn conv_member(side: usize, i: usize) -> (Program, Tensor) {
        let wt = Pcg32::seed_from_u64(60).randn(&[CONV.patch_len(), 5], 1.0);
        conv_member_with(wt, side, i)
    }

    /// [`conv_member`] with the weight `wt` in place of the shared one.
    fn conv_member_with(wt: Tensor, side: usize, i: usize) -> (Program, Tensor) {
        let bias = (0..5).map(|c| (i + 1) as f32 * 0.25 - c as f32).collect();
        let (oh, ow) = CONV.output_hw(side, side).unwrap();
        let mut b = Program::builder("conv", EvalMode::Exact);
        let x = b.input(&[3, side, side]);
        let w = b.constant(wt);
        let cols = b.push(Op::Im2col(CONV), &[x]);
        let gemm = Op::Gemm {
            bias: Some(bias),
            sparsity: None,
        };
        let prod = b.push(gemm, &[cols, w]);
        b.push(
            Op::Col2im {
                channels: 5,
                oh,
                ow,
            },
            &[prod],
        );
        let seed = 70 + i as u64;
        let input = Pcg32::seed_from_u64(seed).randn(&[3, side, side], 1.0);
        (b.finish().unwrap(), input.map(|v| v.max(0.0)))
    }

    /// What a convolution member computes, kernel by kernel: `im2col`, the
    /// reference GEMM, the bias on every row, `col2im_output`.
    fn conv_reference(program: &Program, x: &Tensor) -> Tensor {
        let Op::Gemm {
            bias: Some(bias), ..
        } = &program.nodes()[1].op
        else {
            unreachable!("conv_member's GEMM has a bias")
        };
        let cols = im2col::im2col(x, &CONV).unwrap();
        let mut prod = gemm::matmul(&cols, &program.consts()[0]).unwrap();
        for row in prod.as_mut_slice().chunks_mut(5) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        let (oh, ow) = CONV.output_hw(x.dims()[1], x.dims()[2]).unwrap();
        im2col::col2im_output(&prod, 5, oh, ow).unwrap()
    }

    /// Recorded at the commit before convolution chains ran as one sweep:
    /// the staged `batched` triple of a group of 1..=4 [`conv_member`]s, the
    /// members' images alternating 9×9 and 5×5.
    const CONV_GOLDEN: [Triple; 4] = [
        (200, 10_935, 0),
        (248, 14_310, 0),
        (408, 25_245, 0),
        (456, 28_620, 0),
    ];

    #[test]
    fn conv_chains_run_as_one_sweep_with_unchanged_results_and_accounting() {
        let cfg = ArrayConfig::new(8, 16);
        let triple = |s: &ExecStats| (s.cycles(), s.macs, s.nonlinear_evals);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for size in 1..=4usize {
            // The last member's image carries a NaN: the sweep declines it,
            // and the whole group runs the three kernels.
            for poisoned in [false, true] {
                let mut members: Vec<(Program, Tensor)> =
                    (0..size).map(|i| conv_member([9, 5][i % 2], i)).collect();
                if poisoned {
                    members[size - 1].1.as_mut_slice()[7] = f32::NAN;
                }
                let jobs: Vec<(&Program, &[Tensor])> = members
                    .iter()
                    .map(|(p, x)| (p, std::slice::from_ref(x)))
                    .collect();
                // A second window multiplies a declined group's weight
                // again, which packs it (a right operand packs on its
                // second product).
                for window in 0..2 {
                    let case = format!("x{size} poisoned={poisoned} window {window}");
                    let staged = run_staged(&jobs, &cfg, &mut TableCache::new()).unwrap();
                    let sweeps = usize::from(!poisoned);
                    assert_eq!(staged.conv_sweeps, sweeps, "{case}: one sweep per group");
                    let stage = |stage, groups, gemm_groups| StageGroups {
                        stage,
                        ops: size,
                        groups,
                        gemm_groups,
                        nonlinear_groups: 0,
                    };
                    let want = [stage(0, size, 0), stage(1, 1, 1), stage(2, size, 0)];
                    assert_eq!(staged.stages, want, "{case}");
                    assert_eq!(triple(&staged.batched), CONV_GOLDEN[size - 1], "{case}");
                    for (i, (run, job)) in staged.runs.iter().zip(&jobs).enumerate() {
                        let alone = run_staged(&[*job], &cfg, &mut TableCache::new());
                        let alone = &alone.unwrap().runs[0];
                        let want = conv_reference(job.0, &job.1[0]);
                        assert_eq!(run.output.dims(), want.dims(), "{case} #{i}");
                        assert_eq!(bits(&run.output), bits(&want), "{case} #{i}");
                        assert_eq!(bits(&alone.output), bits(&want), "{case} #{i}");
                    }
                }
                // Every member packed its weight for the sweep, once. Where
                // the sweep declined, the GEMM that ran instead packed the
                // weight it read as a right operand, once: the first
                // member's for the group, the poisoned member's alone.
                for (i, (p, _)) in members.iter().enumerate() {
                    let gemm = poisoned && (i == 0 || i == size - 1);
                    assert_eq!(p.packed_consts(), 1 + usize::from(gemm), "x{size} #{i}");
                }
            }
        }
    }

    #[test]
    fn a_sparse_convolution_weight_still_packs_by_lines_for_the_sweep() {
        // One tap per output channel: packed as a plain left operand this
        // weight takes rows, a layout the convolution sweep does not read.
        let mut wt = Tensor::zeros(&[CONV.patch_len(), 5]);
        for c in 0..5 {
            wt.as_mut_slice()[(4 * c + 1) * 5 + c] = 0.5 + c as f32;
        }
        assert!(PackedLhs::pack(&wt.transpose().unwrap()).unwrap().by_rows());
        let (program, x) = conv_member_with(wt, 7, 0);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let job = (&program, std::slice::from_ref(&x));
        let staged = run_staged(&[job], &ArrayConfig::new(8, 16), &mut TableCache::new());
        let staged = staged.unwrap();
        assert_eq!(staged.conv_sweeps, 1);
        let want = conv_reference(&program, &x);
        assert_eq!(bits(&staged.runs[0].output), bits(&want));
        assert!(!PackedLhs::of_transposed(&program.consts()[0])
            .unwrap()
            .by_rows());
    }

    #[test]
    fn convolutions_outside_a_chain_still_materialise() {
        let (chain, x) = conv_member(6, 0);
        let w = chain.consts()[0].as_ref().clone();
        let gemm = || Op::Gemm {
            bias: None,
            sparsity: None,
        };
        let col2im = Op::Col2im {
            channels: 5,
            oh: 6,
            ow: 6,
        };
        let cols = im2col::im2col(&x, &CONV).unwrap();
        let map = im2col::col2im_output(&gemm::matmul(&cols, &w).unwrap(), 5, 6, 6).unwrap();
        let mut programs: Vec<(&str, Program, Tensor)> = Vec::new();
        // One unroll read by two GEMMs — what `cse` leaves of a duplicate.
        let mut b = Program::builder("shared unroll", EvalMode::Exact);
        let i = b.input(&[3, 6, 6]);
        let wc = b.constant(w.clone());
        let c = b.push(Op::Im2col(CONV), &[i]);
        let (g1, g2) = (b.push(gemm(), &[c, wc]), b.push(gemm(), &[c, wc]));
        let (f1, f2) = (b.push(col2im.clone(), &[g1]), b.push(col2im.clone(), &[g2]));
        b.push(Op::Add, &[f1, f2]);
        programs.push(("shared", b.finish().unwrap(), map.add(&map).unwrap()));
        // The unroll is the program's output.
        let mut b = Program::builder("unroll out", EvalMode::Exact);
        let i = b.input(&[3, 6, 6]);
        b.push(Op::Im2col(CONV), &[i]);
        programs.push(("output", b.finish().unwrap(), cols.clone()));
        // The product feeds a nonlinear, not a `Col2im`.
        let mut b = Program::builder("unroll relu", EvalMode::Exact);
        let i = b.input(&[3, 6, 6]);
        let wc = b.constant(w.clone());
        let c = b.push(Op::Im2col(CONV), &[i]);
        let g = b.push(gemm(), &[c, wc]);
        b.push(Op::Nonlinear(NonlinearFn::Relu), &[g]);
        let relu = gemm::matmul(&cols, &w).unwrap();
        programs.push(("relu", b.finish().unwrap(), relu.map(|v| v.max(0.0))));
        // A full chain whose unroll is written back to a session.
        let mut b = Program::builder("unroll kept", EvalMode::Exact);
        let i = b.input(&[3, 6, 6]);
        let wc = b.constant(w.clone());
        let c = b.push(Op::Im2col(CONV), &[i]);
        b.mark_session_output(c);
        let g = b.push(gemm(), &[c, wc]);
        b.push(col2im, &[g]);
        programs.push(("session", b.finish().unwrap(), map));
        assert!(chain.conv_chain(1).is_some());
        for (what, program, want) in &programs {
            assert!((0..program.stages()).all(|s| program.conv_chain(s).is_none()));
            let run = program.run(std::slice::from_ref(&x), SEQ, &mut TableCache::new());
            let run = run.unwrap();
            assert_same_bits(&run.output, want, what);
            if *what == "session" {
                assert_same_bits(&run.session_outputs[0], &cols, what);
            }
            // No convolution pack: a GEMM against the weight packs it as a
            // right operand, once, in the storage every program here shares.
            let gemms = usize::from(!program.consts().is_empty());
            assert_eq!(program.packed_consts(), gemms, "{what}");
        }
    }

    #[test]
    fn int8_quantize_executes_the_coarser_rung() {
        let mut rng = Pcg32::seed_from_u64(9);
        let x = rng.randn(&[2, 5], 1.0);
        let build = |precision| {
            let mut b = Program::builder("q", EvalMode::Exact);
            let i = b.input(&[2, 5]);
            b.push(Op::Quantize { precision }, &[i]);
            b.finish().unwrap()
        };
        let run = |p: &Program| {
            p.run(std::slice::from_ref(&x), SEQ, &mut TableCache::new())
                .unwrap()
                .output
        };
        let y16 = run(&build(Precision::Int16));
        let y8 = run(&build(Precision::Int8));
        assert_eq!(y16, QuantTensor::quantize(&x).dequantize());
        assert_eq!(y8, QuantTensor8::quantize(&x).dequantize());
        assert_ne!(y16, y8, "the rungs round differently");
    }

    /// Runs a one-op program over `x`.
    fn run_op(op: Op, mode: EvalMode, x: &Tensor) -> Tensor {
        let mut b = Program::builder("one-op", mode);
        let i = b.input(x.dims());
        b.push(op, &[i]);
        let p = b.finish().unwrap();
        p.run(std::slice::from_ref(x), SEQ, &mut TableCache::new())
            .unwrap()
            .output
    }

    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}");
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// `AffineNonlinear` as it ran before the sweep fused it: the affine
    /// map, IPF on its output, `(k, b)` folded into the gathered
    /// matrices, one MHP over the op's input.
    fn affine_nonlinear_three_pass(x: &Tensor, k: &[f32], b: &[f32], func: NonlinearFn) -> Tensor {
        let plane = x.dims()[1] * x.dims()[2];
        let tables = TableSet::for_granularity(0.25).unwrap();
        let mut t = x.clone();
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            *v = *v * k[i / plane] + b[i / plane];
        }
        let ipf = tables.table(func).unwrap().ipf(&t);
        let (mut kk, mut bb) = (ipf.k, ipf.b);
        for i in 0..x.len() {
            let seg_k = kk.as_slice()[i];
            kk.as_mut_slice()[i] = seg_k * k[i / plane];
            bb.as_mut_slice()[i] += seg_k * b[i / plane];
        }
        gemm::mhp(x, &kk, &bb).unwrap()
    }

    #[test]
    fn affine_nonlinear_sweep_equals_its_three_pass_body() {
        let mut rng = Pcg32::seed_from_u64(10);
        // Planes of one element up to 4 900.
        for dims in [[1usize, 1, 1], [2, 3, 5], [4, 8, 8], [2, 70, 70]] {
            let mut x = rng.randn(&dims, 3.0);
            for (i, v) in [f32::NAN, f32::INFINITY, -0.0, -1e30]
                .into_iter()
                .enumerate()
            {
                if let Some(slot) = x.as_mut_slice().get_mut(i * 7 + 1) {
                    *slot = v;
                }
            }
            let k: Vec<f32> = rng.randn(&[dims[0]], 1.0).as_slice().to_vec();
            let b: Vec<f32> = rng.randn(&[dims[0]], 2.0).as_slice().to_vec();
            for func in [NonlinearFn::Relu, NonlinearFn::Gelu, NonlinearFn::Sigmoid] {
                let want = affine_nonlinear_three_pass(&x, &k, &b, func);
                let op = Op::AffineNonlinear {
                    k: k.clone(),
                    b: b.clone(),
                    func,
                };
                let got = run_op(op, cpwl(), &x);
                assert_same_bits(&got, &want, &format!("{dims:?} {func}"));
            }
        }
    }

    #[test]
    fn slice_pool_and_affine_keep_their_element_order() {
        let mut rng = Pcg32::seed_from_u64(11);
        let x = rng.randn(&[5, 9], 1.0);
        let got = run_op(Op::SliceRows { start: 2, len: 2 }, EvalMode::Exact, &x);
        assert_eq!(got.dims(), &[2, 9]);
        assert_eq!(got.as_slice(), &x.as_slice()[2 * 9..4 * 9]);
        let got = run_op(Op::Pool(PoolKind::MeanRows), EvalMode::Exact, &x);
        let mut want = vec![0.0f32; 9];
        for i in 0..5 {
            for (j, w) in want.iter_mut().enumerate() {
                *w += x.as_slice()[i * 9 + j] / 5.0;
            }
        }
        assert_same_bits(&got, &Tensor::from_vec(want, &[1, 9]).unwrap(), "mean rows");
        let img = rng.randn(&[3, 4, 5], 1.0);
        let (k, b) = (vec![0.5f32, -2.0, 3.0], vec![1.0f32, 0.25, -0.5]);
        let got = run_op(
            Op::Affine {
                k: k.clone(),
                b: b.clone(),
            },
            EvalMode::Exact,
            &img,
        );
        for (i, (g, v)) in got.iter().zip(img.iter()).enumerate() {
            assert_eq!(g.to_bits(), (v * k[i / 20] + b[i / 20]).to_bits());
        }
    }

    #[test]
    fn global_avg_pool_is_each_planes_serial_sum() {
        let mut rng = Pcg32::seed_from_u64(13);
        for c in 1..=40 {
            for (h, w) in [(1, 1), (3, 5), (4, 4)] {
                let plane = h * w;
                let mut x = rng.randn(&[c, h, w], 1.0);
                for (ch, p) in x.as_mut_slice().chunks_mut(plane).enumerate() {
                    match (ch + c) % 5 {
                        0 => p.fill(-0.0),
                        1 => p[ch % plane] = [f32::NAN, f32::INFINITY][ch % 2],
                        _ => {}
                    }
                }
                let got = run_op(Op::Pool(PoolKind::GlobalAvg), EvalMode::Exact, &x);
                let want: Vec<f32> = x
                    .as_slice()
                    .chunks(plane)
                    .map(|p| p.iter().sum::<f32>() / plane as f32)
                    .collect();
                let want = Tensor::from_vec(want, &[1, c]).unwrap();
                assert_same_bits(&got, &want, &format!("{c}x{h}x{w}"));
            }
        }
    }

    #[test]
    fn staged_softmax_and_layernorm_blocks_straddle_members_unchanged() {
        // Members of 5, 7, 9 and 16 rows stack into 37: the 16-row blocks
        // the reductions run in cut across members. A nonlinear over the
        // gathered rows sweeps them in place.
        let gamma: Vec<f32> = (0..6).map(|c| 1.0 - c as f32 * 0.5).collect();
        let beta: Vec<f32> = (0..6).map(|c| [0.25, -0.0, 0.0][c % 3]).collect();
        let ops = [
            (Op::Softmax, 7),
            (
                Op::LayerNorm {
                    gamma,
                    beta,
                    eps: 1e-5,
                },
                6,
            ),
            (Op::Nonlinear(NonlinearFn::Sigmoid), 6),
        ];
        let cfg = ArrayConfig::new(8, 16);
        for (op, n) in ops {
            for mode in [EvalMode::Exact, cpwl()] {
                let members: Vec<(Program, Tensor)> = [5usize, 7, 9, 16]
                    .iter()
                    .enumerate()
                    .map(|(i, &rows)| {
                        let mut b = Program::builder("member", mode);
                        let x = b.input(&[rows, n]);
                        b.push(op.clone(), &[x]);
                        let mut input = Pcg32::seed_from_u64(80 + i as u64).randn(&[rows, n], 2.0);
                        input.as_mut_slice()[n..2 * n].fill(-0.0);
                        input.as_mut_slice()[3 * n + 1] = f32::NAN;
                        (b.finish().unwrap(), input)
                    })
                    .collect();
                let jobs: Vec<(&Program, &[Tensor])> = members
                    .iter()
                    .map(|(p, x)| (p, std::slice::from_ref(x)))
                    .collect();
                let mut cache = TableCache::new();
                let staged = run_staged(&jobs, &cfg, &mut cache).unwrap();
                assert_eq!(staged.stages[0].groups, 1, "{op:?} {mode:?}");
                for (i, (run, (p, x))) in staged.runs.iter().zip(&members).enumerate() {
                    let case = format!("{op:?} {mode:?} #{i}");
                    let solo = p.run(std::slice::from_ref(x), SEQ, &mut cache);
                    assert_same_bits(&run.output, &solo.unwrap().output, &case);
                    let want = match (&op, mode) {
                        (Op::Softmax, EvalMode::Exact) => ops::softmax_rows_exact(x).unwrap(),
                        (Op::Softmax, _) => cache.get(0.25).unwrap().softmax_rows(x).unwrap(),
                        (Op::LayerNorm { gamma, beta, eps }, EvalMode::Exact) => {
                            ops::layernorm_rows_exact(x, gamma, beta, *eps).unwrap()
                        }
                        (Op::LayerNorm { gamma, beta, eps }, _) => cache
                            .get(0.25)
                            .unwrap()
                            .layernorm_rows(x, gamma, beta, *eps)
                            .unwrap(),
                        (Op::Nonlinear(f), EvalMode::Exact) => x.map(|v| f.eval(v)),
                        (Op::Nonlinear(f), _) => cache
                            .get(0.25)
                            .unwrap()
                            .table(*f)
                            .unwrap()
                            .eval_tensor(x)
                            .unwrap(),
                        _ => unreachable!("three ops"),
                    };
                    assert_same_bits(&run.output, &want, &case);
                }
            }
        }
    }

    #[test]
    fn quantize_rows_and_causal_softmax_are_row_functions() {
        let mut rng = Pcg32::seed_from_u64(12);
        let x = rng.randn(&[6, 6], 2.0);
        let got = run_op(Op::QuantizeRows, cpwl(), &x);
        let tables = TableSet::for_granularity(0.25).unwrap();
        for i in 0..6 {
            let row = Tensor::from_vec(x.row(i).unwrap().to_vec(), &[1, 6]).unwrap();
            let want = QuantTensor::quantize(&row).dequantize();
            assert_same_bits(
                &Tensor::from_vec(got.row(i).unwrap().to_vec(), &[1, 6]).unwrap(),
                &want,
                "quantize rows",
            );
        }
        // Row i of a causal softmax is a plain softmax over its prefix,
        // under either mode, and exact zero beyond it.
        for mode in [EvalMode::Exact, cpwl()] {
            let op = Op::CausalSoftmax { offset: 2 };
            let scores = rng.randn(&[4, 6], 2.0);
            let got = run_op(op, mode, &scores);
            for i in 0..4 {
                let visible = 2 + i + 1;
                let prefix =
                    Tensor::from_vec(scores.row(i).unwrap()[..visible].to_vec(), &[1, visible])
                        .unwrap();
                let want = match mode {
                    EvalMode::Exact => ops::softmax_rows_exact(&prefix).unwrap(),
                    EvalMode::Cpwl { .. } => tables.softmax_rows(&prefix).unwrap(),
                };
                let row = got.row(i).unwrap();
                assert_same_bits(
                    &Tensor::from_vec(row[..visible].to_vec(), &[1, visible]).unwrap(),
                    &want,
                    "causal prefix",
                );
                assert!(row[visible..].iter().all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn embed_reads_only_exact_non_negative_integer_token_ids() {
        let mut rng = Pcg32::seed_from_u64(13);
        let (table, pos) = (rng.randn(&[4, 3], 1.0), rng.randn(&[6, 3], 1.0));
        let mut b = Program::builder("embed", EvalMode::Exact);
        let ids = b.input(&[1, 2]);
        let (t, p) = (b.constant(table.clone()), b.constant(pos.clone()));
        b.push(Op::EmbedAt { offset: 1 }, &[ids, t, p]);
        let program = b.finish().unwrap();
        let embed = |id: f32| {
            let ids = Tensor::from_vec(vec![2.0, id], &[1, 2]).unwrap();
            program.run(&[ids], SEQ, &mut TableCache::new())
        };
        let out = embed(-0.0).unwrap().output;
        let want: Vec<f32> = [(2, 1), (0, 2)]
            .into_iter()
            .flat_map(|(tok, at)| {
                let (t, p) = (table.row(tok).unwrap(), pos.row(at).unwrap());
                t.iter().zip(p).map(|(t, p)| t + p).collect::<Vec<_>>()
            })
            .collect();
        assert_same_bits(&out, &Tensor::from_vec(want, &[2, 3]).unwrap(), "embed");
        for id in [0.5, -1.0, f32::NAN, f32::INFINITY] {
            assert!(
                matches!(embed(id), Err(TensorError::InvalidArgument(_))),
                "token id {id}"
            );
        }
    }

    #[test]
    fn session_outputs_move_out_of_their_slots() {
        // Three session outputs: an intermediate a later op reads again,
        // an intermediate nothing reads, and the last op's slot — which
        // is the program's output too, so that one is copied.
        let build = || {
            let mut b = Program::builder("kv", EvalMode::Exact);
            let x = b.input(&[3, 4]);
            let cache = b.session_input(&[2, 4]);
            let doubled = b.push(Op::Add, &[x, x]);
            let grown = b.push(Op::ConcatRows, &[cache, doubled]);
            let sum = b.push(Op::Add, &[doubled, doubled]);
            for out in [doubled, grown, sum] {
                b.mark_session_output(out);
            }
            b
        };
        let program = build().finish().unwrap();
        // An input slot cannot be a session output: nothing to copy.
        let mut passthrough = build();
        passthrough.mark_session_output(Operand::Slot(0));
        assert!(passthrough.finish().is_err());

        let mut rng = Pcg32::seed_from_u64(90);
        let members: Vec<[Tensor; 2]> = (0..2)
            .map(|_| [rng.randn(&[3, 4], 1.0), rng.randn(&[2, 4], 1.0)])
            .collect();
        let jobs: Vec<(&Program, &[Tensor])> = members.iter().map(|m| (&program, &m[..])).collect();
        let cfg = ArrayConfig::new(8, 16);
        let staged = run_staged(&jobs, &cfg, &mut TableCache::new());
        for (run, [x, cache]) in staged.unwrap().runs.iter().zip(&members) {
            let doubled = x.add(x).unwrap();
            let mut grown = cache.as_slice().to_vec();
            grown.extend_from_slice(doubled.as_slice());
            let grown = Tensor::from_vec(grown, &[5, 4]).unwrap();
            let sum = doubled.add(&doubled).unwrap();
            assert_same_bits(&run.output, &sum, "output");
            assert_eq!(run.session_outputs.len(), 3);
            for (got, want) in run.session_outputs.iter().zip([&doubled, &grown, &sum]) {
                assert_same_bits(got, want, "session output");
            }
        }
    }

    #[test]
    fn planned_keys_follow_a_retarget() {
        let mut b = Program::builder("softmax-gelu", cpwl());
        let x = b.input(&[2, 5]);
        let p = b.push(Op::Softmax, &[x]);
        b.push(Op::Nonlinear(NonlinearFn::Gelu), &[p]);
        let narrow = b.finish().unwrap();
        let mut b = Program::builder("softmax-gelu", cpwl());
        let x = b.input(&[2, 7]);
        let p = b.push(Op::Softmax, &[x]);
        b.push(Op::Nonlinear(NonlinearFn::Gelu), &[p]);
        let wide = b.finish().unwrap();
        let coarse = narrow.with_granularity(0.5).unwrap();
        let keys = |p: &Program| p.plan().keys.clone();
        // The softmax rows' width is part of the key; the nonlinear's
        // concatenated pass has none. A new granularity is a new mode.
        assert_ne!(keys(&narrow)[0], keys(&wide)[0]);
        assert_eq!(keys(&narrow)[1], keys(&wide)[1]);
        assert!(keys(&narrow)
            .iter()
            .zip(keys(&coarse))
            .all(|(a, b)| *a != b));
        // Staged together (debug builds also hold every planned key to
        // the key of the resolved operands), the two widths run apart and
        // their GELUs as one pass.
        let mut rng = Pcg32::seed_from_u64(91);
        let (xn, xw) = (rng.randn(&[2, 5], 1.0), rng.randn(&[2, 7], 1.0));
        let jobs = [
            (&narrow, std::slice::from_ref(&xn)),
            (&wide, std::slice::from_ref(&xw)),
        ];
        let cfg = ArrayConfig::new(8, 16);
        let mut cache = TableCache::new();
        let staged = run_staged(&jobs, &cfg, &mut cache).unwrap();
        let groups: Vec<usize> = staged.stages.iter().map(|s| s.groups).collect();
        assert_eq!(groups, [2, 1]);
        for (run, job) in staged.runs.iter().zip(jobs) {
            let alone = run_staged(&[job], &cfg, &mut cache).unwrap();
            assert_same_bits(&run.output, &alone.runs[0].output, "retargeted member");
        }
    }

    #[test]
    fn dead_values_drop_only_after_their_last_reader() {
        // Four ops: `a` is read by two later ops, `b` is a session output,
        // `c` feeds the output `d`. A quantize round trip is a solo op.
        let quantize = || Op::Quantize {
            precision: Precision::Int16,
        };
        let mut bld = Program::builder("liveness", EvalMode::Exact);
        let x = bld.input(&[3, 4]);
        let a = bld.push(quantize(), &[x]);
        let b = bld.push(Op::Nonlinear(NonlinearFn::Relu), &[a]);
        let c = bld.push(Op::Add, &[a, b]);
        bld.push(quantize(), &[c]);
        bld.mark_session_output(b);
        let chained = bld.finish().unwrap();
        assert_eq!(chained.plan().drops, [(2, 0), (3, 2)]);
        // A convolution chain over an op's output: the image stays live
        // through the chain's GEMM stage, where a declined sweep unrolls
        // it after all.
        let (conv, _) = conv_member(5, 0);
        let mut bld = Program::builder("conv over an op", EvalMode::Exact);
        let image = bld.input(&[3, 5, 5]);
        let w = bld.constant(conv.consts()[0].as_ref().clone());
        let identity = Op::Affine {
            k: vec![1.0; 3],
            b: vec![0.0; 3],
        };
        let copy = bld.push(identity, &[image]);
        let cols = bld.push(Op::Im2col(CONV), &[copy]);
        let prod = bld.push(conv.nodes()[1].op.clone(), &[cols, w]);
        bld.push(conv.nodes()[2].op.clone(), &[prod]);
        let over_op = bld.finish().unwrap();
        assert_eq!(over_op.plan().drops, [(2, 0), (2, 1), (3, 2)]);

        // Members of one, three, four and four stages; the convolution's
        // image carries a NaN, so its sweep declines.
        let mut rng = Pcg32::seed_from_u64(92);
        let mut poisoned = rng.randn(&[3, 5, 5], 1.0);
        poisoned.as_mut_slice()[4] = f32::NAN;
        let short = {
            let mut bld = Program::builder("short", EvalMode::Exact);
            let x = bld.input(&[3, 4]);
            bld.push(quantize(), &[x]);
            bld.finish().unwrap()
        };
        let (x1, x2) = (rng.randn(&[3, 4], 1.0), rng.randn(&[3, 4], 1.0));
        let jobs = [
            (&short, std::slice::from_ref(&x1)),
            (&over_op, std::slice::from_ref(&poisoned)),
            (&chained, std::slice::from_ref(&x1)),
            (&chained, std::slice::from_ref(&x2)),
        ];
        let cfg = ArrayConfig::new(8, 16);
        let mut cache = TableCache::new();
        let staged = run_staged(&jobs, &cfg, &mut cache).unwrap();
        assert_eq!(staged.conv_sweeps, 0);
        let stage = |stage, ops, groups, gemm_groups, nonlinear_groups| StageGroups {
            stage,
            ops,
            groups,
            gemm_groups,
            nonlinear_groups,
        };
        // Stage 2: the two `chained` members' `Add`s row-stack into one
        // group beside the convolution's GEMM.
        let want = [
            stage(0, 4, 4, 0, 0),
            stage(1, 3, 2, 0, 1),
            stage(2, 3, 2, 1, 0),
            stage(3, 3, 3, 0, 0),
        ];
        assert_eq!(staged.stages, want);
        for (i, (run, job)) in staged.runs.iter().zip(jobs).enumerate() {
            let alone = run_staged(&[job], &cfg, &mut cache).unwrap();
            let alone = &alone.runs[0];
            assert_same_bits(&run.output, &alone.output, &format!("member {i}"));
            assert_eq!(run.session_outputs.len(), alone.session_outputs.len());
            for (got, want) in run.session_outputs.iter().zip(&alone.session_outputs) {
                assert_same_bits(got, want, &format!("member {i} session output"));
            }
        }
        assert_same_bits(
            &staged.runs[1].output,
            &conv_reference(&conv, &poisoned),
            "conv",
        );
        let a = QuantTensor::round_trip(&x2);
        let b = a.map(|v| v.max(0.0));
        assert_same_bits(&staged.runs[3].session_outputs[0], &b, "relu");
        assert_same_bits(
            &staged.runs[3].output,
            &QuantTensor::round_trip(&a.add(&b).unwrap()),
            "chained",
        );
    }
}
