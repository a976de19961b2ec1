//! The program optimizer: an ordered pass pipeline over the
//! [`Program`] IR.
//!
//! Freshly-emitted programs are deliberately conservative — the
//! `onesa-nn` compilers mirror the hardware's INT16 scratchpad by
//! emitting one load-side [`Op::Quantize`] round trip *per consumer* of
//! a boundary value, and never share structurally identical ops. The
//! optimizer cleans that up:
//!
//! | pass | level | what it does | exactness |
//! |---|---|---|---|
//! | `quantize-elision` | [`OptLevel::Standard`] | dedups `Quantize` boundaries of the same value | bit-identical |
//! | `cse` | [`OptLevel::Standard`] | shares any two ops with bit-identical payloads and operands (duplicate const-operand GEMMs, repeated `Im2col` of one slot, …) | bit-identical |
//! | `prune-pack` | [`OptLevel::Standard`] | detects zero column-blocks in const GEMM weights and attaches the sparsity attribute so the executor skips them | bit-identical |
//! | `fusion` | [`OptLevel::Fusion`] | folds `Affine` + `Nonlinear` into one [`Op::AffineNonlinear`] MHP pass | ≤ a few ULPs (reassociates) |
//! | `dead-slot` | [`OptLevel::Standard`] | drops ops whose outputs nothing consumes | bit-identical |
//!
//! Every pass reports a [`PassStats`]; the whole run is summarized in
//! an [`OptReport`] carried by the optimized program
//! ([`Program::opt_report`]), which the batch/serve engines roll into
//! their `ServingReport`s as [`OptTotals`].
//!
//! The default level is [`OptLevel::Standard`]: optimized programs are
//! **bit-identical** to the unoptimized emission (every shared op is a
//! literal re-execution of the same deterministic computation).
//! [`OptLevel::Fusion`] reassociates the affine/table multiply-add
//! chain and therefore lives above the bit-identical line; the paper's
//! own efficiency case — collapsing nonlinear lowerings into the
//! IPF + MHP two-step — is what the fusion pass implements at the IR
//! level.
//!
//! # Example
//!
//! ```
//! use onesa_plan::{EvalMode, Op, OptLevel, Precision, Program};
//! use onesa_tensor::Tensor;
//!
//! let mode = EvalMode::Cpwl { granularity: 0.25, quantize: true };
//! let mut b = Program::builder("demo", mode);
//! let x = b.input(&[2, 3]);
//! // A conservative frontend quantizes the same value once per use.
//! let q1 = b.push(Op::Quantize { precision: Precision::Int16 }, &[x]);
//! let q2 = b.push(Op::Quantize { precision: Precision::Int16 }, &[x]);
//! let w = b.constant(Tensor::zeros(&[3, 4]));
//! let g1 = b.push(Op::Gemm { bias: None, sparsity: None }, &[q1, w]);
//! let g2 = b.push(Op::Gemm { bias: None, sparsity: None }, &[q2, w]);
//! b.push(Op::Add, &[g1, g2]);
//! let program = b.finish()?;
//!
//! let optimized = program.optimize(OptLevel::Standard)?;
//! let report = optimized.opt_report().expect("optimize records a report");
//! assert_eq!(report.ops_before, 5);
//! assert_eq!(report.ops_after, 3); // one Quantize elided, one GEMM shared
//! assert_eq!(report.totals.elided, 1);
//! assert_eq!(report.totals.shared, 1);
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::program::{same_tensor, GemmSparsity, Op, OpNode, Operand, Precision, Program};
use crate::wire::Wire;
use onesa_tensor::Result;

/// Column-block width the `prune-pack` pass scans const GEMM weights
/// at. A multiple of nothing in particular — wide enough that the
/// bitmap stays small, narrow enough that magnitude-pruned models
/// actually produce all-zero blocks.
pub const PRUNE_BLOCK_COLS: usize = 16;

/// How aggressively [`Program::optimize`] rewrites a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// No passes run; the program is returned as emitted (with an
    /// [`OptReport`] recording zero work).
    None,
    /// The bit-identical pipeline: `quantize-elision`, `cse`,
    /// `dead-slot`. This is the default — `onesa-nn`'s compile wrappers
    /// and the serving layer run programs at this level.
    #[default]
    Standard,
    /// [`OptLevel::Standard`] plus `Affine`+`Nonlinear` → single-MHP
    /// fusion. Fusion reassociates the multiply-add chain, so CPWL
    /// outputs may differ from the unfused program by a few ULPs
    /// (exact-mode outputs are still bit-identical).
    Fusion,
}

impl OptLevel {
    /// Short label for reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Standard => "standard",
            OptLevel::Fusion => "fusion",
        }
    }
}

/// What one optimizer pass did to a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (`"quantize-elision"`, `"cse"`, `"prune-pack"`,
    /// `"fusion"`, `"dead-slot"`).
    pub pass: &'static str,
    /// Ops this pass removed from the program (for `prune-pack`, ops it
    /// rewrote to the sparse form — nothing is dropped).
    pub removed: usize,
}

/// Aggregate optimizer counters, summed across passes (and, in the
/// serving layer, across the program requests of a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptTotals {
    /// Duplicate `Quantize` boundaries elided.
    pub elided: usize,
    /// Ops shared by common-subexpression elimination.
    pub shared: usize,
    /// `Affine`+`Nonlinear` pairs fused into one MHP pass.
    pub fused: usize,
    /// Dead ops removed.
    pub dead: usize,
    /// GEMMs rewritten to the sparse form by `prune-pack`.
    pub pruned: usize,
}

impl OptTotals {
    /// Accumulates another total into this one.
    pub fn merge(&mut self, other: &OptTotals) {
        self.elided += other.elided;
        self.shared += other.shared;
        self.fused += other.fused;
        self.dead += other.dead;
        self.pruned += other.pruned;
    }

    /// Total ops removed across all passes.
    pub fn removed(&self) -> usize {
        self.elided + self.shared + self.fused + self.dead
    }
}

/// Everything one [`Program::optimize`] run did, carried by the
/// optimized program ([`Program::opt_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OptReport {
    /// The level the pipeline ran at.
    pub level: OptLevel,
    /// Op count of the program as emitted.
    pub ops_before: usize,
    /// Op count after the pipeline.
    pub ops_after: usize,
    /// Modeled MACs of the program as emitted.
    pub macs_before: u64,
    /// Modeled MACs after the pipeline.
    pub macs_after: u64,
    /// Per-pass accounting, in pipeline order.
    pub passes: Vec<PassStats>,
    /// The per-pass counts bucketed by kind.
    pub totals: OptTotals,
}

impl OptReport {
    /// Fraction of ops the pipeline removed (`0.0` for an empty or
    /// untouched program).
    pub fn ops_removed_fraction(&self) -> f64 {
        if self.ops_before == 0 {
            0.0
        } else {
            (self.ops_before - self.ops_after) as f64 / self.ops_before as f64
        }
    }
}

impl Program {
    /// Runs the optimizer pipeline at `level` and returns the rewritten
    /// program, which carries its [`OptReport`]. Constants are shared
    /// (`Arc`), never copied. At [`OptLevel::Standard`] the result is
    /// bit-identical to the input program on every input; see
    /// [`OptLevel::Fusion`] for the fusion caveat.
    ///
    /// # Errors
    ///
    /// Validation errors from rebuilding the program — a pass that
    /// produced an invalid graph is a bug, but the validator still runs
    /// on every intermediate program rather than trusting the rewrite.
    pub fn optimize(&self, level: OptLevel) -> Result<Program> {
        let ops_before = self.stages();
        let macs_before = self.modeled_macs();
        let mut current = self.clone();
        let mut passes = Vec::new();
        let mut totals = OptTotals::default();
        if level != OptLevel::None {
            let (next, removed) = elide_duplicate_quantizes(&current)?;
            passes.push(PassStats {
                pass: "quantize-elision",
                removed,
            });
            totals.elided = removed;
            current = next;

            let (next, removed) = share_common_subexpressions(&current)?;
            passes.push(PassStats {
                pass: "cse",
                removed,
            });
            totals.shared = removed;
            current = next;

            let (next, rewritten) = prune_pack(&current)?;
            passes.push(PassStats {
                pass: "prune-pack",
                removed: rewritten,
            });
            totals.pruned = rewritten;
            current = next;

            if level == OptLevel::Fusion {
                let (next, removed) = fuse_affine_nonlinear(&current)?;
                passes.push(PassStats {
                    pass: "fusion",
                    removed,
                });
                totals.fused = removed;
                current = next;
            }

            let (next, removed) = eliminate_dead_slots(&current)?;
            passes.push(PassStats {
                pass: "dead-slot",
                removed,
            });
            totals.dead = removed;
            current = next;
        }
        current.opt = Some(OptReport {
            level,
            ops_before,
            ops_after: current.stages(),
            macs_before,
            macs_after: current.modeled_macs(),
            passes,
            totals,
        });
        Ok(current)
    }
}

/// What a pass decided for each node of the program it ran on.
enum Action {
    /// Keep the node, possibly rewritten (operands still refer to the
    /// *old* slot numbering; `rebuild` renumbers).
    Keep(OpNode),
    /// Drop the node and redirect every read of its output slot to
    /// another (earlier) old slot.
    Alias(usize),
    /// Drop the node; nothing reads its output.
    Dead,
}

/// Rebuilds a program from per-node actions, renumbering slots and
/// pruning constants nothing references. The final node must survive
/// (or alias a surviving slot that becomes the new final output) — the
/// passes below guarantee this by never dropping the last node.
fn rebuild(program: &Program, actions: Vec<Action>) -> Result<Program> {
    let n_in = program.n_inputs();
    // Which constants survive, in first-use order.
    let mut const_map: Vec<Option<usize>> = vec![None; program.consts().len()];
    let mut kept_consts: Vec<usize> = Vec::new();
    // Old slot -> new slot.
    let mut slot_map: Vec<Option<usize>> = vec![None; n_in + program.stages()];
    for (i, m) in slot_map.iter_mut().take(n_in).enumerate() {
        *m = Some(i);
    }

    let mut b = Program::builder(program.name(), program.mode());
    for shape in program.input_shapes() {
        b.input(shape);
    }
    let mut new_index = 0usize;
    for (i, action) in actions.iter().enumerate() {
        let out_slot = n_in + i;
        match action {
            Action::Keep(node) => {
                let inputs: Vec<Operand> = node
                    .inputs
                    .iter()
                    .map(|op| match *op {
                        Operand::Slot(s) => {
                            Operand::Slot(slot_map[s].expect("operand slot survived"))
                        }
                        Operand::Const(c) => {
                            let nc = *const_map[c].get_or_insert_with(|| {
                                kept_consts.push(c);
                                kept_consts.len() - 1
                            });
                            Operand::Const(nc)
                        }
                    })
                    .collect();
                slot_map[out_slot] = Some(n_in + new_index);
                new_index += 1;
                b.push(node.op.clone(), &inputs);
            }
            Action::Alias(target) => {
                slot_map[out_slot] = slot_map[*target];
            }
            Action::Dead => {}
        }
    }
    for &c in &kept_consts {
        b.constant_shared(std::sync::Arc::clone(&program.consts()[c]));
    }
    // Session wiring survives every pass: input slots are never
    // renumbered, and an aliased session-output node redirects to the
    // surviving slot through `slot_map` (dead-slot elimination roots the
    // live-set at session outputs, so they are never dropped).
    for &i in program.session_inputs() {
        b.mark_session_input(Operand::Slot(i));
    }
    for &s in program.session_outputs() {
        b.mark_session_output(Operand::Slot(
            slot_map[s].expect("session output slot survived"),
        ));
    }
    b.finish()
}

/// Dedups `Quantize` ops that read the same operand at the same
/// precision: the round trip is deterministic, so two such boundaries
/// of one value are one boundary. Bit-identical. An `Int16` and an
/// `Int8` boundary of one value round differently and both stay. (A
/// `Quantize` *of* a `Quantize` output is deliberately left alone —
/// re-quantizing an already-quantized tensor recomputes the scale and
/// can move the result by an ULP.)
fn elide_duplicate_quantizes(program: &Program) -> Result<(Program, usize)> {
    let n_in = program.n_inputs();
    let last = program.stages() - 1;
    let mut seen: Vec<((Operand, Precision), usize)> = Vec::new();
    let mut removed = 0usize;
    let actions: Vec<Action> = program
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            if let Op::Quantize { precision } = node.op {
                if i != last {
                    let key = (node.inputs[0], precision);
                    if let Some(&(_, prev_out)) = seen.iter().find(|(k, _)| *k == key) {
                        removed += 1;
                        return Action::Alias(prev_out);
                    }
                    seen.push((key, n_in + i));
                }
            }
            Action::Keep(node.clone())
        })
        .collect();
    Ok((rebuild(program, actions)?, removed))
}

/// Shares any two ops whose payloads are bit-identical and whose
/// operands resolve to the same values — duplicate const-operand GEMMs,
/// repeated `Im2col` of the same slot, and any cascade the first
/// sharing exposes. Operand equality looks through constants, so two
/// separately-registered but bit-identical weight tensors share too.
/// Payloads compare by their wire encoding, which tells NaN payloads
/// apart where `Debug` prints every NaN alike. Bit-identical: a shared
/// op is literally the same deterministic computation.
fn share_common_subexpressions(program: &Program) -> Result<(Program, usize)> {
    let n_in = program.n_inputs();
    let last = program.stages() - 1;
    // Canonicalize constants: map each const to the first bit-identical
    // registration (fingerprint bucket, then exact compare).
    let consts = program.consts();
    let mut canon: Vec<usize> = (0..consts.len()).collect();
    let prints: Vec<u64> = (0..consts.len())
        .map(|c| program.const_fingerprint(c))
        .collect();
    for i in 0..consts.len() {
        for j in 0..i {
            if prints[j] == prints[i] && canon[j] == j && same_tensor(&consts[j], &consts[i]) {
                canon[i] = j;
                break;
            }
        }
    }

    // Intra-pass aliasing so cascaded duplicates collapse in one sweep.
    let mut alias: Vec<usize> = (0..n_in + program.stages()).collect();
    let mut seen: Vec<(Vec<u8>, Vec<Operand>, usize)> = Vec::new();
    let mut removed = 0usize;
    let actions: Vec<Action> = program
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let resolved: Vec<Operand> = node
                .inputs
                .iter()
                .map(|op| match *op {
                    Operand::Slot(s) => Operand::Slot(alias[s]),
                    Operand::Const(c) => Operand::Const(canon[c]),
                })
                .collect();
            let mut key = Vec::new();
            node.op.put(&mut key);
            if i != last {
                if let Some((_, _, prev_out)) = seen
                    .iter()
                    .find(|(k, ops, _)| *k == key && *ops == resolved)
                {
                    removed += 1;
                    alias[n_in + i] = *prev_out;
                    return Action::Alias(*prev_out);
                }
                seen.push((key, resolved.clone(), n_in + i));
            }
            Action::Keep(OpNode {
                op: node.op.clone(),
                inputs: resolved,
            })
        })
        .collect();
    Ok((rebuild(program, actions)?, removed))
}

/// Attaches a [`GemmSparsity`] attribute to every dense GEMM whose
/// constant right operand has at least one all-zero column block at
/// [`PRUNE_BLOCK_COLS`]. The executor then runs the sparsity-aware
/// kernel (`onesa_tensor::sparse`), which skips zero blocks entirely,
/// and the cost model credits the skipped columns. Bit-identical: a
/// skipped block contributes only `a · (+0.0)` terms, which can never
/// move a finite accumulation (see the `sparse` module's proof).
/// GEMMs already carrying an attribute (a decoded pre-optimized
/// program) are left alone.
fn prune_pack(program: &Program) -> Result<(Program, usize)> {
    let mut rewritten = 0usize;
    let actions: Vec<Action> = program
        .nodes()
        .iter()
        .map(|node| {
            if let Op::Gemm {
                bias,
                sparsity: None,
            } = &node.op
            {
                if let [_, Operand::Const(c)] = node.inputs[..] {
                    let w = &program.consts()[c];
                    let stats = onesa_tensor::sparse::column_block_stats(w, PRUNE_BLOCK_COLS);
                    if let Ok((nnz_blocks, total_blocks, nnz_cols)) = stats {
                        if nnz_blocks < total_blocks {
                            rewritten += 1;
                            return Action::Keep(OpNode {
                                op: Op::Gemm {
                                    bias: bias.clone(),
                                    sparsity: Some(GemmSparsity {
                                        block_cols: PRUNE_BLOCK_COLS,
                                        nnz_blocks,
                                        total_blocks,
                                        nnz_cols,
                                    }),
                                },
                                inputs: node.inputs.clone(),
                            });
                        }
                    }
                }
            }
            Action::Keep(node.clone())
        })
        .collect();
    Ok((rebuild(program, actions)?, rewritten))
}

/// Fuses an `Affine` immediately followed by a `Nonlinear` that is its
/// only consumer into one [`Op::AffineNonlinear`] MHP pass. Restricted
/// to adjacent pairs (which is how the `onesa-nn` compilers emit folded
/// batch norm + activation) so the rewrite never reorders the graph.
fn fuse_affine_nonlinear(program: &Program) -> Result<(Program, usize)> {
    let n_in = program.n_inputs();
    let nodes = program.nodes();
    // Consumer counts of every op output.
    let mut uses = vec![0usize; n_in + nodes.len()];
    for node in nodes {
        for op in &node.inputs {
            if let Operand::Slot(s) = *op {
                uses[s] += 1;
            }
        }
    }
    let mut removed = 0usize;
    let mut actions: Vec<Action> = Vec::with_capacity(nodes.len());
    let mut i = 0usize;
    while i < nodes.len() {
        let fused = if let (Op::Affine { k, b }, Some(next)) = (&nodes[i].op, nodes.get(i + 1)) {
            let affine_out = n_in + i;
            match next.op {
                Op::Nonlinear(func)
                    if next.inputs == [Operand::Slot(affine_out)] && uses[affine_out] == 1 =>
                {
                    Some(Op::AffineNonlinear {
                        k: k.clone(),
                        b: b.clone(),
                        func,
                    })
                }
                _ => None,
            }
        } else {
            None
        };
        match fused {
            Some(op) => {
                actions.push(Action::Keep(OpNode {
                    op,
                    inputs: nodes[i].inputs.clone(),
                }));
                // The nonlinear's output now comes out of the fused op.
                actions.push(Action::Alias(n_in + i));
                removed += 1;
                i += 2;
            }
            None => {
                actions.push(Action::Keep(nodes[i].clone()));
                i += 1;
            }
        }
    }
    Ok((rebuild(program, actions)?, removed))
}

/// Drops ops whose outputs nothing consumes (the program output — the
/// last op — is always live). Runs last so it sweeps anything the
/// earlier passes orphaned.
fn eliminate_dead_slots(program: &Program) -> Result<(Program, usize)> {
    let n_in = program.n_inputs();
    let nodes = program.nodes();
    let mut live = vec![false; nodes.len()];
    if let Some(l) = live.last_mut() {
        *l = true;
    }
    // Session outputs are program roots too: the serving layer reads
    // them back after every run even though no later op consumes them.
    for &s in program.session_outputs() {
        live[s - n_in] = true;
    }
    for i in (0..nodes.len()).rev() {
        if !live[i] {
            continue;
        }
        for op in &nodes[i].inputs {
            if let Operand::Slot(s) = *op {
                if s >= n_in {
                    live[s - n_in] = true;
                }
            }
        }
    }
    let removed = live.iter().filter(|l| !**l).count();
    let actions: Vec<Action> = nodes
        .iter()
        .zip(&live)
        .map(|(node, &alive)| {
            if alive {
                Action::Keep(node.clone())
            } else {
                Action::Dead
            }
        })
        .collect();
    Ok((rebuild(program, actions)?, removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{EvalMode, Precision};
    use crate::TableCache;
    use onesa_cpwl::NonlinearFn;
    use onesa_tensor::parallel::Parallelism;
    use onesa_tensor::rng::Pcg32;
    use onesa_tensor::Tensor;

    fn cpwl() -> EvalMode {
        EvalMode::Cpwl {
            granularity: 0.25,
            quantize: true,
        }
    }

    fn run(p: &Program, xs: &[Tensor]) -> Tensor {
        p.run(xs, Parallelism::Sequential, &mut TableCache::new())
            .unwrap()
            .output
    }

    #[test]
    fn duplicate_quantizes_elide_and_stay_bit_identical() {
        let mut rng = Pcg32::seed_from_u64(1);
        let w = rng.randn(&[4, 3], 1.0);
        let mut b = Program::builder("dupq", cpwl());
        let x = b.input(&[2, 4]);
        let q1 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        let q2 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        let w1 = b.constant(w.clone());
        let g1 = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[q1, w1],
        );
        let g2 = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[q2, w1],
        );
        b.push(Op::Add, &[g1, g2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        let report = o.opt_report().unwrap();
        assert_eq!(report.totals.elided, 1);
        assert_eq!(report.totals.shared, 1); // the two GEMMs collapse too
        assert_eq!(o.stages(), 3);
        let x = rng.randn(&[2, 4], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x))
        );
    }

    #[test]
    fn mixed_precision_quantizes_must_not_merge() {
        // An INT16 and an INT8 boundary of one value round differently:
        // eliding either would change the program's output.
        let quantize =
            |b: &mut crate::ProgramBuilder, x, precision| b.push(Op::Quantize { precision }, &[x]);
        let mut b = Program::builder("mixed", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let q16 = quantize(&mut b, x, Precision::Int16);
        let q8 = quantize(&mut b, x, Precision::Int8);
        b.push(Op::Add, &[q16, q8]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.elided, 0);
        let xv = Pcg32::seed_from_u64(1).randn(&[2, 3], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&xv)),
            run(&o, std::slice::from_ref(&xv)),
            "optimization changed semantics"
        );

        // Two INT8 boundaries of one value are still one boundary.
        let mut b = Program::builder("dup8", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let q1 = quantize(&mut b, x, Precision::Int8);
        let q2 = quantize(&mut b, x, Precision::Int8);
        b.push(Op::Add, &[q1, q2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.elided, 1);
        assert_eq!(
            run(&p, std::slice::from_ref(&xv)),
            run(&o, std::slice::from_ref(&xv))
        );
    }

    #[test]
    fn chained_quantize_of_quantize_is_left_alone() {
        // q(q(x)) recomputes the scale and is NOT guaranteed to equal
        // q(x) bit for bit, so the elision pass must not touch chains.
        let mut b = Program::builder("chain", cpwl());
        let x = b.input(&[2, 2]);
        let q1 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        let q2 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[q1],
        );
        b.push(Op::Scale(2.0), &[q2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.stages(), 3);
        assert_eq!(o.opt_report().unwrap().totals.removed(), 0);
    }

    #[test]
    fn cse_shares_duplicate_const_gemms_and_im2cols() {
        use onesa_tensor::im2col::Conv2dGeometry;
        let mut rng = Pcg32::seed_from_u64(2);
        let geo = Conv2dGeometry {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let wt = rng.randn(&[geo.patch_len(), 2], 1.0);
        let mut b = Program::builder("cse", EvalMode::Exact);
        let x = b.input(&[1, 4, 4]);
        // Two identical weight registrations: CSE looks through consts.
        let w1 = b.constant(wt.clone());
        let w2 = b.constant(wt.clone());
        let c1 = b.push(Op::Im2col(geo), &[x]);
        let c2 = b.push(Op::Im2col(geo), &[x]);
        let g1 = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[c1, w1],
        );
        let g2 = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[c2, w2],
        );
        b.push(Op::Add, &[g1, g2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        // The duplicate Im2col AND the cascaded duplicate GEMM share.
        assert_eq!(o.opt_report().unwrap().totals.shared, 2);
        assert_eq!(o.stages(), 3);
        assert_eq!(o.consts().len(), 1, "duplicate constant pruned");
        let x = rng.randn(&[1, 4, 4], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x))
        );
    }

    #[test]
    fn cse_keeps_ops_that_differ_only_in_a_nan_payload() {
        // `Debug` prints both scales as `Scale(NaN)`; the products carry
        // different payloads, so sharing them would change the output.
        let mut b = Program::builder("nan-cse", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let s1 = b.push(Op::Scale(f32::from_bits(0x7fc0_0001)), &[x]);
        let s2 = b.push(Op::Scale(f32::from_bits(0x7fc0_0002)), &[x]);
        b.push(Op::ConcatCols, &[s1, s2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.shared, 0);
        assert_eq!(o.stages(), 3);
        let x = Pcg32::seed_from_u64(3).randn(&[2, 3], 1.0);
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(run(&p, std::slice::from_ref(&x))),
            bits(run(&o, std::slice::from_ref(&x)))
        );
    }

    #[test]
    fn the_output_op_is_never_dropped() {
        // The last op IS the program output: a duplicate there must not
        // be aliased away (the slot numbering would silently shift the
        // output to a different op).
        let mut b = Program::builder("tail", cpwl());
        let x = b.input(&[2, 2]);
        let q1 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        let s = b.push(Op::Scale(3.0), &[q1]);
        let _ = s;
        b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        ); // duplicate of q1, but final
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        let x = Pcg32::seed_from_u64(3).randn(&[2, 2], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x))
        );
        // The Scale (and the Quantize only it consumed) became dead and
        // were swept; the final Quantize survives as the output.
        assert_eq!(o.opt_report().unwrap().totals.dead, 2);
        assert_eq!(o.stages(), 1);
    }

    #[test]
    fn dead_ops_are_swept() {
        let mut rng = Pcg32::seed_from_u64(4);
        let w = rng.randn(&[3, 3], 1.0);
        let mut b = Program::builder("dead", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let w1 = b.constant(w);
        let _unused = b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w1],
        );
        let _unused2 = b.push(Op::Transpose, &[x]);
        b.push(Op::Scale(2.0), &[x]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.stages(), 1);
        assert_eq!(o.opt_report().unwrap().totals.dead, 2);
        assert_eq!(o.consts().len(), 0, "const of the dead GEMM pruned");
        let x = rng.randn(&[2, 3], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x))
        );
    }

    #[test]
    fn fusion_folds_affine_into_the_nonlinear_pass() {
        let mut rng = Pcg32::seed_from_u64(5);
        let mut b = Program::builder("fuse", cpwl());
        let x = b.input(&[2, 3, 3]);
        let a = b.push(
            Op::Affine {
                k: vec![1.5, -0.5],
                b: vec![0.1, 0.2],
            },
            &[x],
        );
        let r = b.push(Op::Nonlinear(NonlinearFn::Gelu), &[a]);
        b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[r],
        );
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Fusion).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.fused, 1);
        assert_eq!(o.stages(), 2);
        assert!(matches!(o.nodes()[0].op, Op::AffineNonlinear { .. }));
        // Fewer modeled MACs: the affine MHP pass folded away.
        assert!(o.modeled_macs() < p.modeled_macs());
        let x = rng.randn(&[2, 3, 3], 1.0);
        let (y0, y1) = (
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x)),
        );
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn fusion_skips_affines_with_other_consumers() {
        let mut b = Program::builder("no-fuse", EvalMode::Exact);
        let x = b.input(&[1, 2, 2]);
        let a = b.push(
            Op::Affine {
                k: vec![2.0],
                b: vec![0.0],
            },
            &[x],
        );
        let r = b.push(Op::Nonlinear(NonlinearFn::Relu), &[a]);
        b.push(Op::Add, &[a, r]); // second consumer of the affine
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Fusion).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.fused, 0);
        assert_eq!(o.stages(), 3);
    }

    #[test]
    fn fusion_is_bit_identical_under_exact_mode() {
        let mut rng = Pcg32::seed_from_u64(6);
        let mut b = Program::builder("fuse-exact", EvalMode::Exact);
        let x = b.input(&[2, 4, 4]);
        let a = b.push(
            Op::Affine {
                k: vec![0.7, 1.3],
                b: vec![-0.2, 0.4],
            },
            &[x],
        );
        b.push(Op::Nonlinear(NonlinearFn::Tanh), &[a]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Fusion).unwrap();
        assert_eq!(o.stages(), 1);
        let x = rng.randn(&[2, 4, 4], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x))
        );
    }

    #[test]
    fn opt_level_none_is_a_no_op_with_a_report() {
        let mut b = Program::builder("noop", cpwl());
        let x = b.input(&[1, 2]);
        let q1 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        let q2 = b.push(
            Op::Quantize {
                precision: Precision::Int16,
            },
            &[x],
        );
        b.push(Op::Add, &[q1, q2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::None).unwrap();
        assert_eq!(o.stages(), p.stages());
        let report = o.opt_report().unwrap();
        assert_eq!(report.ops_before, report.ops_after);
        assert!(report.passes.is_empty());
        assert_eq!(report.ops_removed_fraction(), 0.0);
        assert_eq!(OptLevel::None.label(), "none");
        assert_eq!(OptLevel::Fusion.label(), "fusion");
    }

    #[test]
    fn prune_pack_attaches_sparsity_and_stays_bit_identical() {
        let mut rng = Pcg32::seed_from_u64(21);
        // 3 column blocks of PRUNE_BLOCK_COLS; zero the middle one.
        let n = 3 * PRUNE_BLOCK_COLS;
        let mut w = rng.randn(&[8, n], 1.0);
        for r in 0..8 {
            for c in PRUNE_BLOCK_COLS..2 * PRUNE_BLOCK_COLS {
                w.as_mut_slice()[r * n + c] = 0.0;
            }
        }
        let mut b = Program::builder("prune", EvalMode::Exact);
        let x = b.input(&[4, 8]);
        let wc = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, wc],
        );
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        let report = o.opt_report().unwrap();
        assert_eq!(report.totals.pruned, 1);
        assert!(report.passes.iter().any(|ps| ps.pass == "prune-pack"));
        let Op::Gemm {
            sparsity: Some(s), ..
        } = &o.nodes()[0].op
        else {
            panic!("prune-pack attaches the attribute");
        };
        assert_eq!(
            (s.block_cols, s.nnz_blocks, s.total_blocks, s.nnz_cols),
            (PRUNE_BLOCK_COLS, 2, 3, 2 * PRUNE_BLOCK_COLS)
        );
        // The sparse program credits only the surviving columns.
        assert!(o.modeled_macs() < p.modeled_macs());
        assert_eq!(o.modeled_macs(), p.modeled_macs() * 2 / 3);
        assert_eq!(o.sparse_blocks(), (1, 3));
        // And runs bit-identically to the dense original.
        let x = rng.randn(&[4, 8], 1.0);
        assert_eq!(
            run(&p, std::slice::from_ref(&x)),
            run(&o, std::slice::from_ref(&x))
        );
    }

    #[test]
    fn prune_pack_leaves_dense_weights_and_attributed_gemms_alone() {
        let mut rng = Pcg32::seed_from_u64(22);
        let w = rng.randn(&[4, 2 * PRUNE_BLOCK_COLS], 1.0);
        let mut b = Program::builder("dense", EvalMode::Exact);
        let x = b.input(&[2, 4]);
        let wc = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, wc],
        );
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.pruned, 0);
        assert!(matches!(o.nodes()[0].op, Op::Gemm { sparsity: None, .. }));
        // Re-optimizing an already-attributed program changes nothing.
        let mut rng = Pcg32::seed_from_u64(23);
        let n = 2 * PRUNE_BLOCK_COLS;
        let mut w = rng.randn(&[4, n], 1.0);
        for r in 0..4 {
            for c in 0..PRUNE_BLOCK_COLS {
                w.as_mut_slice()[r * n + c] = 0.0;
            }
        }
        let mut b = Program::builder("again", EvalMode::Exact);
        let x = b.input(&[2, 4]);
        let wc = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, wc],
        );
        let once = b.finish().unwrap().optimize(OptLevel::Standard).unwrap();
        let twice = once.optimize(OptLevel::Standard).unwrap();
        assert_eq!(once.opt_report().unwrap().totals.pruned, 1);
        assert_eq!(twice.opt_report().unwrap().totals.pruned, 0);
        assert_eq!(once.nodes(), twice.nodes());
    }

    #[test]
    fn optimized_programs_share_const_storage_with_the_source() {
        let mut rng = Pcg32::seed_from_u64(7);
        let w = rng.randn(&[4, 4], 1.0);
        let mut b = Program::builder("share", EvalMode::Exact);
        let x = b.input(&[2, 4]);
        let w1 = b.constant(w);
        b.push(
            Op::Gemm {
                bias: None,
                sparsity: None,
            },
            &[x, w1],
        );
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert!(std::sync::Arc::ptr_eq(&p.consts()[0], &o.consts()[0]));
        // Cloning either is O(ops): the Arc is shared, not the data.
        let c = o.clone();
        assert!(std::sync::Arc::ptr_eq(&c.consts()[0], &o.consts()[0]));
    }
}
