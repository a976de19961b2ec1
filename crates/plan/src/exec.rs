//! Program execution: a table cache, single-op kernels and the staged
//! multi-program scheduler with per-stage cross-program coalescing.

use crate::program::{
    op_cost, tensor_fingerprint, EvalMode, GemmSparsity, Op, Operand, PoolKind, Precision, Program,
};
use onesa_cpwl::ops::{self, TableSet};
use onesa_cpwl::NonlinearFn;
use onesa_sim::{analytic, ArrayConfig, CycleBreakdown, ExecStats};
use onesa_tensor::parallel::{self, Parallelism};
use onesa_tensor::quant::{QuantTensor, QuantTensor8};
use onesa_tensor::sparse::SparseTensor;
use onesa_tensor::{im2col, Result, Tensor, TensorError};
use std::sync::Arc;

/// Lazily-built CPWL table sets keyed by granularity, shared across
/// programs (and across `BatchEngine` runs, which own one cache per
/// shard). Sets are `Arc`-shared, so seeding the cache with a set a
/// caller already holds (an `InferenceMode`'s, an engine's) is a
/// refcount bump, never a copy of the table data.
#[derive(Debug, Clone, Default)]
pub struct TableCache {
    sets: Vec<Arc<TableSet>>,
    builds: usize,
    /// Packed sparse weights keyed by `(weight fingerprint, block_cols)`
    /// so a sparse-attributed GEMM packs its constant once per cache,
    /// not once per run. `Arc`-shared like the table sets.
    packs: Vec<(u64, usize, Arc<SparseTensor>)>,
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

    /// The packed form of sparse-attributed GEMM weight `w` at
    /// `block_cols`, packing it on first use. Keyed by the weight's
    /// content fingerprint `fp` (the one its program recorded at build
    /// time), so programs cloned from a cached compile (which share
    /// their consts) and even distinct programs with bit-identical
    /// weights all hit the same pack.
    pub(crate) fn packed(
        &mut self,
        w: &Tensor,
        fp: u64,
        block_cols: usize,
    ) -> Result<Arc<SparseTensor>> {
        if let Some((_, _, p)) = self
            .packs
            .iter()
            .find(|(f, b, _)| *f == fp && *b == block_cols)
        {
            return Ok(Arc::clone(p));
        }
        let packed = Arc::new(SparseTensor::from_dense(w, block_cols)?);
        self.packs.push((fp, block_cols, Arc::clone(&packed)));
        Ok(packed)
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
    /// Modeled solo [`ExecStats`] of every op, in stage order.
    pub op_stats: Vec<ExecStats>,
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
    /// Per-program outputs and op stats, in job order.
    pub runs: Vec<ProgramRun>,
    /// Per-stage coalescing accounting.
    pub stages: Vec<StageGroups>,
    /// Modeled array stats of the coalesced schedule actually executed.
    pub batched: ExecStats,
    /// Total GEMM kernel calls across all stages.
    pub gemm_groups: usize,
    /// Total IPF + MHP passes across all stages.
    pub nonlinear_groups: usize,
}

/// Per-job runtime state.
struct JobState<'a> {
    program: &'a Program,
    /// The caller's tensors behind the input slots — read in place,
    /// never copied.
    inputs: &'a [Tensor],
    /// One slot per executed op, after the input slots.
    outputs: Vec<Option<Tensor>>,
    op_stats: Vec<ExecStats>,
}

impl JobState<'_> {
    fn resolve(&self, operand: Operand) -> &Tensor {
        match operand {
            Operand::Slot(s) => match s.checked_sub(self.inputs.len()) {
                None => &self.inputs[s],
                Some(op) => self.outputs[op].as_ref().expect("slot written before read"),
            },
            Operand::Const(c) => self.program.consts()[c].as_ref(),
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
    /// Pointwise nonlinear sharing (function, eval mode): concatenate.
    Nonlinear(u64),
    /// Row-wise softmax sharing (eval mode, width): row-stack.
    Softmax(u64, usize),
    /// Row-wise layer-norm sharing (eval mode, γ/β/ε, width): row-stack.
    LayerNorm(u64, usize),
    /// Everything else executes per program.
    Solo(usize),
}

/// Executes `jobs` — `(program, inputs)` pairs — stage by stage,
/// coalescing compatible ops across programs at every stage. Outputs
/// are bit-identical to running each program alone (row stacking,
/// column stacking and concatenation never change an element's
/// floating-point op sequence), which is what lets `onesa_core`'s
/// engines schedule whole networks the way they batch single GEMMs.
///
/// # Errors
///
/// Validation errors from any program, input-shape mismatches, kernel
/// shape errors, or table-construction failures.
pub fn run_staged(
    jobs: &[(&Program, &[Tensor])],
    cfg: &ArrayConfig,
    par: Parallelism,
    tables: &mut TableCache,
) -> Result<StagedRun> {
    let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
    for (program, inputs) in jobs {
        program.validate()?;
        if inputs.len() != program.n_inputs() {
            return Err(TensorError::InvalidArgument("program input count mismatch"));
        }
        for (t, expect) in inputs.iter().zip(program.input_shapes()) {
            if t.dims() != expect.as_slice() {
                return Err(TensorError::ShapeMismatch {
                    lhs: t.dims().to_vec(),
                    rhs: expect.clone(),
                    op: "plan::run_staged input",
                });
            }
        }
        states.push(JobState {
            program,
            inputs,
            outputs: vec![None; program.stages()],
            op_stats: Vec::with_capacity(program.stages()),
        });
    }

    let max_stages = states.iter().map(|s| s.program.stages()).max().unwrap_or(0);
    let mut stages: Vec<StageGroups> = Vec::with_capacity(max_stages);
    let mut batched = ExecStats::new(cfg, CycleBreakdown::default(), 0, 0);
    let (mut total_gemm, mut total_nl) = (0usize, 0usize);

    for stage in 0..max_stages {
        // Members: every job whose program still has an op at this stage.
        let members: Vec<usize> = (0..states.len())
            .filter(|&j| stage < states[j].program.stages())
            .collect();

        // Group members by coalescing key (first-seen order), verifying
        // exact equality of shared constants/parameters behind the hash.
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        for &j in &members {
            let node = &states[j].program.nodes()[stage];
            let key = member_key(&states[j], stage);
            let slot = groups
                .iter_mut()
                .find(|(k, ids)| *k == key && keys_truly_equal(&states, stage, ids[0], j, node));
            match slot {
                Some((_, ids)) => ids.push(j),
                None => groups.push((key, vec![j])),
            }
        }

        let (mut stage_gemm, mut stage_nl) = (0usize, 0usize);
        for (key, ids) in &groups {
            let produced = exec_group(key, ids, &states, stage, cfg, par, tables)?;
            match key {
                GroupKey::GemmRight(_) | GroupKey::GemmLeft(_) => stage_gemm += 1,
                GroupKey::Nonlinear(_) | GroupKey::Softmax(..) | GroupKey::LayerNorm(..) => {
                    stage_nl += 1
                }
                GroupKey::Solo(_) => {
                    if matches!(states[ids[0]].program.nodes()[stage].op, Op::Gemm { .. }) {
                        stage_gemm += 1;
                    }
                }
            }
            batched = batched.merged(&produced.batched);
            for (j, out, solo) in produced.outputs {
                states[j].outputs[stage] = Some(out);
                states[j].op_stats.push(solo);
            }
        }
        total_gemm += stage_gemm;
        total_nl += stage_nl;
        stages.push(StageGroups {
            stage,
            ops: members.len(),
            groups: groups.len(),
            gemm_groups: stage_gemm,
            nonlinear_groups: stage_nl,
        });
    }

    let runs = states
        .into_iter()
        .map(|mut s| {
            let session_outputs = s
                .program
                .session_outputs()
                .iter()
                .map(|&slot| s.resolve(Operand::Slot(slot)).clone())
                .collect();
            // Session outputs are copied out first: one of them may be
            // the last op's slot, which the output moves out of.
            let output = s.outputs.pop().flatten().expect("program executed");
            ProgramRun {
                output,
                session_outputs,
                op_stats: s.op_stats,
            }
        })
        .collect();
    Ok(StagedRun {
        runs,
        stages,
        batched,
        gemm_groups: total_gemm,
        nonlinear_groups: total_nl,
    })
}

/// The coalescing key of job `j`'s op at `stage`.
fn member_key(state: &JobState, stage: usize) -> GroupKey {
    let node = &state.program.nodes()[stage];
    let mode = state.program.mode().coalesce_key();
    match &node.op {
        Op::Gemm { sparsity, .. } => match (node.inputs[0], node.inputs[1]) {
            (Operand::Slot(_), Operand::Const(c)) => {
                // Mix the sparsity attribute into the key: a sparse and
                // a dense GEMM over the same weight run different
                // kernels and must never coalesce into one group.
                let mut h = state.program.const_fingerprint(c);
                if let Some(s) = sparsity {
                    for v in [1, s.block_cols, s.nnz_blocks, s.total_blocks, s.nnz_cols] {
                        h = crate::program::fnv_u64(h, v as u64);
                    }
                }
                GroupKey::GemmRight(h)
            }
            (Operand::Const(c), Operand::Slot(_)) => {
                GroupKey::GemmLeft(state.program.const_fingerprint(c))
            }
            _ => GroupKey::Solo(usize::MAX),
        },
        Op::Nonlinear(func) => GroupKey::Nonlinear(mode ^ func_hash(*func)),
        Op::Softmax => {
            let n = state.resolve(node.inputs[0]).dims()[1];
            GroupKey::Softmax(mode, n)
        }
        Op::LayerNorm { gamma, beta, eps } => {
            let mut h = mode;
            for v in gamma.iter().chain(beta).chain(std::iter::once(eps)) {
                h = crate::program::fnv_u64(h, u64::from(v.to_bits()));
            }
            let n = state.resolve(node.inputs[0]).dims()[1];
            GroupKey::LayerNorm(h, n)
        }
        _ => GroupKey::Solo(usize::MAX),
    }
}

/// `Solo(usize::MAX)` keys must never merge two members; hashed keys
/// verify the underlying constants/parameters match exactly.
fn keys_truly_equal(
    states: &[JobState],
    stage: usize,
    first: usize,
    candidate: usize,
    node: &crate::program::OpNode,
) -> bool {
    let a = &states[first].program.nodes()[stage];
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
        (Op::Softmax, Op::Softmax) => true,
        (
            Op::LayerNorm { gamma, beta, eps },
            Op::LayerNorm {
                gamma: g2,
                beta: b2,
                eps: e2,
            },
        ) => same_f32s(gamma, g2) && same_f32s(beta, b2) && eps.to_bits() == e2.to_bits(),
        _ => false,
    }
}

fn same_tensor(x: &Tensor, y: &Tensor) -> bool {
    x.dims() == y.dims()
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

fn same_f32s(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

fn func_hash(func: NonlinearFn) -> u64 {
    let mut h = crate::program::FNV_OFFSET;
    for byte in format!("{func:?}").bytes() {
        h = crate::program::fnv_u64(h, u64::from(byte));
    }
    h
}

/// What one group execution produces.
struct GroupOut {
    /// `(job, output, solo stats)` per member.
    outputs: Vec<(usize, Tensor, ExecStats)>,
    /// Modeled stats of the one coalesced kernel this group ran.
    batched: ExecStats,
}

fn solo_cost(state: &JobState, stage: usize, cfg: &ArrayConfig, out_dims: &[usize]) -> ExecStats {
    let node = &state.program.nodes()[stage];
    let in0 = state.resolve(node.inputs[0]).dims().to_vec();
    op_cost(&node.op, &in0, out_dims, cfg)
}

fn exec_group(
    key: &GroupKey,
    ids: &[usize],
    states: &[JobState],
    stage: usize,
    cfg: &ArrayConfig,
    par: Parallelism,
    tables: &mut TableCache,
) -> Result<GroupOut> {
    match key {
        GroupKey::GemmRight(_) => {
            // Row-stack every member's left operand against the shared
            // weights: one tall GEMM, then slice each member's rows back
            // out and apply its bias (bit-identical: each output element
            // is an independent dot product plus its own bias add).
            let (b, b_fp) = gemm_const(&states[ids[0]], stage);
            let sparsity = gemm_sparsity(&states[ids[0]], stage);
            let (k, n) = (b.dims()[0], b.dims()[1]);
            let operand = |j: usize| states[j].resolve(states[j].program.nodes()[stage].inputs[0]);
            let mut multiply = |tall: &Tensor| match sparsity {
                Some(s) => {
                    let packed = tables.packed(b, b_fp, s.block_cols)?;
                    onesa_tensor::sparse::matmul(tall, &packed, par)
                }
                None => parallel::matmul(tall, b, par),
            };
            if let [j] = *ids {
                // A group of one has nothing to stack or slice apart:
                // multiply the operand where it lies and move the product
                // out.
                let m = operand(j).dims()[0];
                let mut out = multiply(operand(j))?;
                apply_bias(out.as_mut_slice(), m, n, gemm_bias(&states[j], stage));
                let batched = gemm_credit(cfg, m, k, n, sparsity);
                return Ok(GroupOut {
                    outputs: vec![(j, out, batched.clone())],
                    batched,
                });
            }
            let mut stacked = Vec::new();
            let mut row_counts = Vec::with_capacity(ids.len());
            for &j in ids {
                let a = operand(j);
                stacked.extend_from_slice(a.as_slice());
                row_counts.push(a.dims()[0]);
            }
            let total_m: usize = row_counts.iter().sum();
            let tall = Tensor::from_vec(stacked, &[total_m, k])?;
            let product = multiply(&tall)?;
            let batched = gemm_credit(cfg, total_m, k, n, sparsity);
            let mut outputs = Vec::with_capacity(ids.len());
            let mut row0 = 0usize;
            for (&j, &m) in ids.iter().zip(&row_counts) {
                let mut rows = product.as_slice()[row0 * n..(row0 + m) * n].to_vec();
                row0 += m;
                apply_bias(&mut rows, m, n, gemm_bias(&states[j], stage));
                let out = Tensor::from_vec(rows, &[m, n])?;
                let solo = gemm_credit(cfg, m, k, n, sparsity);
                outputs.push((j, out, solo));
            }
            Ok(GroupOut { outputs, batched })
        }
        GroupKey::GemmLeft(_) => {
            // Column-stack every member's right operand behind the
            // shared left matrix (a GCN's Â): one wide GEMM, sliced back
            // per member (output columns are independent dot products).
            let (a, _) = gemm_const(&states[ids[0]], stage);
            let (m, k) = (a.dims()[0], a.dims()[1]);
            let col_counts: Vec<usize> = ids
                .iter()
                .map(|&j| {
                    states[j]
                        .resolve(states[j].program.nodes()[stage].inputs[1])
                        .dims()[1]
                })
                .collect();
            let total_n: usize = col_counts.iter().sum();
            let mut combined = vec![0.0f32; k * total_n];
            for r in 0..k {
                let mut off = 0usize;
                for (&j, &nj) in ids.iter().zip(&col_counts) {
                    let bj = states[j].resolve(states[j].program.nodes()[stage].inputs[1]);
                    combined[r * total_n + off..r * total_n + off + nj]
                        .copy_from_slice(&bj.as_slice()[r * nj..(r + 1) * nj]);
                    off += nj;
                }
            }
            let wide = Tensor::from_vec(combined, &[k, total_n])?;
            let product = parallel::matmul(a, &wide, par)?;
            let batched = analytic::gemm_stats(cfg, m, k, total_n);
            let mut outputs = Vec::with_capacity(ids.len());
            let mut off = 0usize;
            for (&j, &nj) in ids.iter().zip(&col_counts) {
                let mut vals = vec![0.0f32; m * nj];
                for r in 0..m {
                    vals[r * nj..(r + 1) * nj].copy_from_slice(
                        &product.as_slice()[r * total_n + off..r * total_n + off + nj],
                    );
                }
                off += nj;
                apply_bias(&mut vals, m, nj, gemm_bias(&states[j], stage));
                let out = Tensor::from_vec(vals, &[m, nj])?;
                outputs.push((j, out, analytic::gemm_stats(cfg, m, k, nj)));
            }
            Ok(GroupOut { outputs, batched })
        }
        GroupKey::Nonlinear(_) => {
            // Concatenate every member's elements into one row: one IPF
            // + MHP pass (or one exact elementwise map) shared by the
            // whole group.
            let Op::Nonlinear(func) = states[ids[0]].program.nodes()[stage].op else {
                unreachable!("nonlinear group holds nonlinear ops")
            };
            let mut flat = Vec::new();
            let mut dims: Vec<Vec<usize>> = Vec::with_capacity(ids.len());
            for &j in ids {
                let x = states[j].resolve(states[j].program.nodes()[stage].inputs[0]);
                flat.extend_from_slice(x.as_slice());
                dims.push(x.dims().to_vec());
            }
            let total = flat.len();
            let joined = Tensor::from_vec(flat, &[1, total])?;
            let evaluated = match states[ids[0]].program.mode() {
                EvalMode::Exact => joined.map(|v| func.eval(v)),
                EvalMode::Cpwl { granularity, .. } => {
                    let table = tables
                        .get(granularity)?
                        .table(func)
                        .ok_or(TensorError::InvalidArgument("function not in table set"))?;
                    let ipf = table.ipf(&joined);
                    parallel::mhp(&joined, &ipf.k, &ipf.b, par)?
                }
            };
            let batched = analytic::nonlinear_stats(cfg, 1, total);
            let mut outputs = Vec::with_capacity(ids.len());
            let mut off = 0usize;
            for (&j, d) in ids.iter().zip(&dims) {
                let len: usize = d.iter().product();
                let vals = evaluated.as_slice()[off..off + len].to_vec();
                off += len;
                let out = Tensor::from_vec(vals, d)?;
                let solo = solo_cost(&states[j], stage, cfg, d);
                outputs.push((j, out, solo));
            }
            Ok(GroupOut { outputs, batched })
        }
        GroupKey::Softmax(_, n) => {
            let stacked = stack_rows(states, ids, stage)?;
            let total_m = stacked.dims()[0];
            let result = match states[ids[0]].program.mode() {
                EvalMode::Exact => ops::softmax_rows_exact(&stacked).map_err(unwrap_cpwl)?,
                EvalMode::Cpwl { granularity, .. } => tables
                    .get(granularity)?
                    .softmax_rows(&stacked)
                    .map_err(unwrap_cpwl)?,
            };
            split_rows(
                states,
                ids,
                stage,
                &result,
                *n,
                analytic::softmax_stats(cfg, total_m, *n),
                cfg,
            )
        }
        GroupKey::LayerNorm(_, n) => {
            let Op::LayerNorm { gamma, beta, eps } = &states[ids[0]].program.nodes()[stage].op
            else {
                unreachable!("layer-norm group holds layer-norm ops")
            };
            let stacked = stack_rows(states, ids, stage)?;
            let total_m = stacked.dims()[0];
            let result = match states[ids[0]].program.mode() {
                EvalMode::Exact => {
                    ops::layernorm_rows_exact(&stacked, gamma, beta, *eps).map_err(unwrap_cpwl)?
                }
                EvalMode::Cpwl { granularity, .. } => tables
                    .get(granularity)?
                    .layernorm_rows(&stacked, gamma, beta, *eps)
                    .map_err(unwrap_cpwl)?,
            };
            split_rows(
                states,
                ids,
                stage,
                &result,
                *n,
                analytic::norm_stats(cfg, total_m, *n),
                cfg,
            )
        }
        GroupKey::Solo(_) => {
            let j = ids[0];
            let state = &states[j];
            let node = &state.program.nodes()[stage];
            let ins: Vec<&Tensor> = node.inputs.iter().map(|&op| state.resolve(op)).collect();
            let out = exec_single(&node.op, &ins, state.program.mode(), par, tables)?;
            let solo = solo_cost(state, stage, cfg, out.dims());
            let batched = solo.clone();
            Ok(GroupOut {
                outputs: vec![(j, out, solo)],
                batched,
            })
        }
    }
}

/// The constant operand of a coalesced GEMM group member, with the
/// fingerprint its program recorded for it.
fn gemm_const<'a>(state: &'a JobState, stage: usize) -> (&'a Tensor, u64) {
    let node = &state.program.nodes()[stage];
    node.inputs
        .iter()
        .find_map(|op| match *op {
            Operand::Const(c) => Some((
                state.program.consts()[c].as_ref(),
                state.program.const_fingerprint(c),
            )),
            Operand::Slot(_) => None,
        })
        .expect("coalesced gemm group has a constant operand")
}

fn gemm_bias<'a>(state: &'a JobState, stage: usize) -> Option<&'a [f32]> {
    match &state.program.nodes()[stage].op {
        Op::Gemm { bias, .. } => bias.as_deref(),
        _ => unreachable!("gemm group holds gemm ops"),
    }
}

fn gemm_sparsity(state: &JobState, stage: usize) -> Option<GemmSparsity> {
    match &state.program.nodes()[stage].op {
        Op::Gemm { sparsity, .. } => *sparsity,
        _ => unreachable!("gemm group holds gemm ops"),
    }
}

/// Modeled GEMM stats with sparse credit — the same crediting rule as
/// `op_cost`, so solo and coalesced runs agree with `modeled_macs`.
fn gemm_credit(
    cfg: &ArrayConfig,
    m: usize,
    k: usize,
    n: usize,
    sparsity: Option<GemmSparsity>,
) -> ExecStats {
    match sparsity {
        Some(s) if s.nnz_cols == 0 => ExecStats::new(cfg, CycleBreakdown::default(), 0, 0),
        Some(s) => analytic::gemm_stats(cfg, m, k, s.nnz_cols),
        None => analytic::gemm_stats(cfg, m, k, n),
    }
}

fn apply_bias(vals: &mut [f32], m: usize, n: usize, bias: Option<&[f32]>) {
    if let Some(b) = bias {
        for i in 0..m {
            let row = &mut vals[i * n..(i + 1) * n];
            for (j, v) in row.iter_mut().enumerate() {
                *v += b[j];
            }
        }
    }
}

fn stack_rows(states: &[JobState], ids: &[usize], stage: usize) -> Result<Tensor> {
    let mut stacked = Vec::new();
    let mut total_m = 0usize;
    let mut n = 0usize;
    for &j in ids {
        let x = states[j].resolve(states[j].program.nodes()[stage].inputs[0]);
        stacked.extend_from_slice(x.as_slice());
        total_m += x.dims()[0];
        n = x.dims()[1];
    }
    Tensor::from_vec(stacked, &[total_m, n])
}

#[allow(clippy::too_many_arguments)]
fn split_rows(
    states: &[JobState],
    ids: &[usize],
    stage: usize,
    result: &Tensor,
    n: usize,
    batched: ExecStats,
    cfg: &ArrayConfig,
) -> Result<GroupOut> {
    let mut outputs = Vec::with_capacity(ids.len());
    let mut row0 = 0usize;
    for &j in ids {
        let m = states[j]
            .resolve(states[j].program.nodes()[stage].inputs[0])
            .dims()[0];
        let vals = result.as_slice()[row0 * n..(row0 + m) * n].to_vec();
        row0 += m;
        let out = Tensor::from_vec(vals, &[m, n])?;
        let solo = solo_cost(&states[j], stage, cfg, &[m, n]);
        outputs.push((j, out, solo));
    }
    Ok(GroupOut { outputs, batched })
}

/// Executes one op on resolved inputs — the un-coalesced path, kept
/// op-for-op identical to the direct model code it replaces (see
/// `onesa-nn`'s `*_direct` reference implementations).
fn exec_single(
    op: &Op,
    ins: &[&Tensor],
    mode: EvalMode,
    par: Parallelism,
    tables: &mut TableCache,
) -> Result<Tensor> {
    match op {
        Op::Gemm { bias, sparsity } => {
            let mut y = match sparsity {
                // Only a GEMM of two constants reaches this un-grouped
                // path with a sparsity attribute; it hashes its weight
                // here rather than thread the stored fingerprint through.
                Some(s) => {
                    let packed = tables.packed(ins[1], tensor_fingerprint(ins[1]), s.block_cols)?;
                    onesa_tensor::sparse::matmul(ins[0], &packed, par)?
                }
                None => parallel::matmul(ins[0], ins[1], par)?,
            };
            let (m, n) = y.shape().as_matrix()?;
            apply_bias(y.as_mut_slice(), m, n, bias.as_deref());
            Ok(y)
        }
        Op::Nonlinear(func) => match mode {
            EvalMode::Exact => Ok(ins[0].map(|v| func.eval(v))),
            EvalMode::Cpwl { granularity, .. } => {
                let table = tables
                    .get(granularity)?
                    .table(*func)
                    .ok_or(TensorError::InvalidArgument("function not in table set"))?;
                table.eval_tensor(ins[0]).map_err(unwrap_cpwl)
            }
        },
        Op::Softmax => match mode {
            EvalMode::Exact => ops::softmax_rows_exact(ins[0]).map_err(unwrap_cpwl),
            EvalMode::Cpwl { granularity, .. } => tables
                .get(granularity)?
                .softmax_rows(ins[0])
                .map_err(unwrap_cpwl),
        },
        Op::LayerNorm { gamma, beta, eps } => match mode {
            EvalMode::Exact => {
                ops::layernorm_rows_exact(ins[0], gamma, beta, *eps).map_err(unwrap_cpwl)
            }
            EvalMode::Cpwl { granularity, .. } => tables
                .get(granularity)?
                .layernorm_rows(ins[0], gamma, beta, *eps)
                .map_err(unwrap_cpwl),
        },
        Op::Im2col(geo) => im2col::im2col(ins[0], geo),
        Op::Col2im { channels, oh, ow } => im2col::col2im_output(ins[0], *channels, *oh, *ow),
        Op::Add => ins[0].add(ins[1]),
        Op::Affine { k, b } => {
            let dims = ins[0].dims();
            let (c, h, w) = (dims[0], dims[1], dims[2]);
            let mut y = ins[0].clone();
            for ch in 0..c {
                for v in &mut y.as_mut_slice()[ch * h * w..(ch + 1) * h * w] {
                    *v = *v * k[ch] + b[ch];
                }
            }
            Ok(y)
        }
        Op::AffineNonlinear { k, b, func } => {
            // One MHP pass: the IPF stage indexes the table on the
            // affine output t = k·x + b and folds (k, b) into the
            // fetched segment parameters, so the array evaluates
            // f(k·x + b) as a single x ⊙ k' + b' sweep.
            let dims = ins[0].dims();
            let (c, h, w) = (dims[0], dims[1], dims[2]);
            let mut t = ins[0].clone();
            for ch in 0..c {
                for v in &mut t.as_mut_slice()[ch * h * w..(ch + 1) * h * w] {
                    *v = *v * k[ch] + b[ch];
                }
            }
            match mode {
                EvalMode::Exact => Ok(t.map(|v| func.eval(v))),
                EvalMode::Cpwl { granularity, .. } => {
                    let table = tables
                        .get(granularity)?
                        .table(*func)
                        .ok_or(TensorError::InvalidArgument("function not in table set"))?;
                    let ipf = table.ipf(&t);
                    let mut kk = ipf.k;
                    let mut bb = ipf.b;
                    for ch in 0..c {
                        for i in ch * h * w..(ch + 1) * h * w {
                            let seg_k = kk.as_slice()[i];
                            kk.as_mut_slice()[i] = seg_k * k[ch];
                            bb.as_mut_slice()[i] += seg_k * b[ch];
                        }
                    }
                    parallel::mhp(ins[0], &kk, &bb, par)
                }
            }
        }
        Op::Scale(f) => Ok(ins[0].scale(*f)),
        Op::Transpose => ins[0].transpose(),
        Op::SliceCols { start, len } => {
            let (m, n) = ins[0].shape().as_matrix()?;
            let mut out = Tensor::zeros(&[m, *len]);
            for i in 0..m {
                for j in 0..*len {
                    out.as_mut_slice()[i * len + j] = ins[0].as_slice()[i * n + start + j];
                }
            }
            Ok(out)
        }
        Op::ConcatCols => {
            // Accumulate into zeros exactly like the attention layer's
            // head_write (`+=` into a zero matrix), so merged heads are
            // bit-identical to the direct path.
            let (m, _) = ins[0].shape().as_matrix()?;
            let total: usize = ins.iter().map(|t| t.dims()[1]).sum();
            let mut out = Tensor::zeros(&[m, total]);
            let mut off = 0usize;
            for part in ins {
                let ni = part.dims()[1];
                for i in 0..m {
                    for j in 0..ni {
                        out.as_mut_slice()[i * total + off + j] += part.as_slice()[i * ni + j];
                    }
                }
                off += ni;
            }
            Ok(out)
        }
        Op::Pool(PoolKind::GlobalAvg) => {
            let dims = ins[0].dims();
            let (c, h, w) = (dims[0], dims[1], dims[2]);
            let pooled: Vec<f32> = (0..c)
                .map(|ch| {
                    ins[0].as_slice()[ch * h * w..(ch + 1) * h * w]
                        .iter()
                        .sum::<f32>()
                        / (h * w) as f32
                })
                .collect();
            Tensor::from_vec(pooled, &[1, c])
        }
        Op::Pool(PoolKind::MeanRows) => {
            let (l, d) = ins[0].shape().as_matrix()?;
            let mut pooled = Tensor::zeros(&[1, d]);
            for i in 0..l {
                for j in 0..d {
                    pooled.as_mut_slice()[j] += ins[0].as_slice()[i * d + j] / l as f32;
                }
            }
            Ok(pooled)
        }
        Op::Quantize { precision } => Ok(match precision {
            Precision::Int16 => QuantTensor::quantize(ins[0]).dequantize(),
            Precision::Int8 => QuantTensor8::quantize(ins[0]).dequantize(),
        }),
        Op::QuantizeRows => {
            // Each row round-trips through INT16 with its own scale, so
            // the result for row i is a pure function of row i — the
            // row-decomposability the KV-cache decode path relies on.
            let (m, n) = ins[0].shape().as_matrix()?;
            let mut out = Tensor::zeros(&[m, n]);
            for i in 0..m {
                let row =
                    Tensor::from_vec(ins[0].as_slice()[i * n..(i + 1) * n].to_vec(), &[1, n])?;
                let q = QuantTensor::quantize(&row).dequantize();
                out.as_mut_slice()[i * n..(i + 1) * n].copy_from_slice(q.as_slice());
            }
            Ok(out)
        }
        Op::Embed => {
            let (_, l) = ins[0].shape().as_matrix()?;
            let d = ins[1].dims()[1];
            let mut out = Tensor::zeros(&[l, d]);
            for i in 0..l {
                let id = ins[0].as_slice()[i] as usize;
                let tok = ins[1].row(id)?;
                let pos = ins[2].row(i)?;
                let row = out.row_mut(i)?;
                for j in 0..d {
                    row[j] = tok[j] + pos[j];
                }
            }
            Ok(out)
        }
        Op::EmbedAt { offset } => {
            let (_, l) = ins[0].shape().as_matrix()?;
            let d = ins[1].dims()[1];
            let mut out = Tensor::zeros(&[l, d]);
            for i in 0..l {
                let id = ins[0].as_slice()[i] as usize;
                let tok = ins[1].row(id)?;
                let pos = ins[2].row(offset + i)?;
                let row = out.row_mut(i)?;
                for j in 0..d {
                    row[j] = tok[j] + pos[j];
                }
            }
            Ok(out)
        }
        Op::ConcatRows => {
            let (_, n) = ins[0].shape().as_matrix()?;
            let total: usize = ins.iter().map(|t| t.dims()[0]).sum();
            let mut vals = Vec::with_capacity(total * n);
            for part in ins {
                vals.extend_from_slice(part.as_slice());
            }
            Tensor::from_vec(vals, &[total, n])
        }
        Op::CausalSoftmax { offset } => {
            // Row i softmaxes its visible prefix `0 ..= offset + i`
            // through the SAME row-softmax routine a plain `Op::Softmax`
            // over that prefix would use, and writes exact 0.0 beyond it
            // — so a prefill's row is bit-identical to a later decode
            // step's full-row softmax at the same context length.
            let (m, n) = ins[0].shape().as_matrix()?;
            let mut out = Tensor::zeros(&[m, n]);
            for i in 0..m {
                let visible = offset + i + 1;
                let prefix = Tensor::from_vec(
                    ins[0].as_slice()[i * n..i * n + visible].to_vec(),
                    &[1, visible],
                )?;
                let soft = match mode {
                    EvalMode::Exact => ops::softmax_rows_exact(&prefix).map_err(unwrap_cpwl)?,
                    EvalMode::Cpwl { granularity, .. } => tables
                        .get(granularity)?
                        .softmax_rows(&prefix)
                        .map_err(unwrap_cpwl)?,
                };
                out.as_mut_slice()[i * n..i * n + visible].copy_from_slice(soft.as_slice());
            }
            Ok(out)
        }
    }
}

fn unwrap_cpwl(e: onesa_cpwl::CpwlError) -> TensorError {
    match e {
        onesa_cpwl::CpwlError::Tensor(t) => t,
        onesa_cpwl::CpwlError::InvalidGranularity(_) => {
            TensorError::InvalidArgument("invalid granularity")
        }
        onesa_cpwl::CpwlError::InvalidRange { .. } => TensorError::InvalidArgument("invalid range"),
        _ => TensorError::InvalidArgument("cpwl table error"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use onesa_tensor::gemm;
    use onesa_tensor::rng::Pcg32;

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
                .run(
                    std::slice::from_ref(&x),
                    Parallelism::Sequential,
                    &mut TableCache::new(),
                )
                .unwrap();
            let h = gemm::matmul(&x, &w1).unwrap();
            let g = match mode {
                EvalMode::Exact => h.map(|v| NonlinearFn::Gelu.eval(v)),
                EvalMode::Cpwl { .. } => tables.gelu(&h).unwrap(),
            };
            let expect = gemm::matmul(&g, &w2).unwrap();
            assert_eq!(run.output, expect, "{mode:?}");
            assert_eq!(run.op_stats.len(), 3);
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
                p.run(std::slice::from_ref(x), Parallelism::Sequential, &mut cache)
                    .unwrap()
                    .output
            })
            .collect();

        // Concurrent staged run: every stage coalesces 3 ops -> 1 group.
        let jobs: Vec<(&Program, &[Tensor])> =
            xs.iter().map(|x| (&p, std::slice::from_ref(x))).collect();
        let staged = run_staged(&jobs, &cfg, Parallelism::Threads(2), &mut cache).unwrap();
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
            Parallelism::Sequential,
            &mut TableCache::new(),
        )
        .unwrap();
        assert_eq!(staged.runs[0].output, gemm::matmul(&a_hat, &x1).unwrap());
        assert_eq!(staged.runs[1].output, gemm::matmul(&a_hat, &x2).unwrap());
        assert_eq!(staged.stages[0].groups, 1);
        assert_eq!(staged.gemm_groups, 1);
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
            Parallelism::Sequential,
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
        assert!(p
            .run(&[bad], Parallelism::Sequential, &mut TableCache::new())
            .is_err());
        assert!(p
            .run(&[], Parallelism::Sequential, &mut TableCache::new())
            .is_err());
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
        for par in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let d = dense
                .run(std::slice::from_ref(&x), par, &mut cache)
                .unwrap();
            let s = sparse
                .run(std::slice::from_ref(&x), par, &mut cache)
                .unwrap();
            assert_eq!(d.output, s.output, "{}", par.label());
            assert_eq!(d.output, gemm::matmul(&x, &w).unwrap());
            // Sparse credit shows up in the solo stats.
            assert!(s.op_stats[0].macs < d.op_stats[0].macs);
        }
        // Both runs hit the one packed weight (same fingerprint).
        assert_eq!(cache.packs.len(), 1);
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
            Parallelism::Sequential,
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
            Parallelism::Sequential,
            &mut TableCache::new(),
        )
        .unwrap();
        assert_eq!(staged.stages[0].groups, 1);
        // Coalesced sparse output still matches the dense reference.
        let d1 = dense
            .run(
                std::slice::from_ref(&x1),
                Parallelism::Sequential,
                &mut TableCache::new(),
            )
            .unwrap();
        assert_eq!(staged.runs[0].output, d1.output);
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
            p.run(
                std::slice::from_ref(&x),
                Parallelism::Sequential,
                &mut TableCache::new(),
            )
            .unwrap()
            .output
        };
        let y16 = run(&build(Precision::Int16));
        let y8 = run(&build(Precision::Int8));
        assert_eq!(y16, QuantTensor::quantize(&x).dequantize());
        assert_eq!(y8, QuantTensor8::quantize(&x).dequantize());
        assert_ne!(y16, y8, "the rungs round differently");
    }
}
