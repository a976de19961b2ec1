//! The program optimizer: an ordered pass pipeline over the
//! [`Program`] IR.
//!
//! Freshly-emitted programs are deliberately conservative — the
//! `onesa-nn` compilers mirror the hardware's INT16 scratchpad by
//! emitting one load-side [`Op::Quantize`] round trip *per consumer* of
//! a boundary value, and never share structurally identical ops. The
//! optimizer cleans that up:
//!
//! | pass | what it does | [`OptTotals`] field |
//! |---|---|---|
//! | `cse` | shares any two ops with bit-identical payloads and operands (duplicate `Quantize` boundaries of one value at one precision, duplicate const-operand GEMMs, repeated `Im2col` of one slot, …) | `shared` |
//! | `prune-pack` | detects zero column-blocks in const GEMM weights and attaches the sparsity attribute so the executor skips them | `pruned` |
//! | `dead-slot` | drops ops whose outputs nothing consumes | `dead` |
//!
//! Every pass is **bit-identical**: an optimized program computes
//! exactly what the emission did on every input (a shared op is a
//! literal re-execution of the same deterministic computation). The
//! run is summarized in an [`OptReport`] carried by the optimized
//! program ([`Program::opt_report`]): its [`OptTotals`] count what each
//! pass did.
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
//! assert_eq!(optimized.stages(), 3);
//! assert_eq!(report.totals.shared, 2); // one Quantize, then one GEMM
//! # Ok::<(), onesa_tensor::TensorError>(())
//! ```

use crate::program::{same_tensor, GemmSparsity, Op, OpNode, Operand, Program};
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
    /// The pipeline: `cse`, `prune-pack`, `dead-slot`. This is the
    /// default — `onesa-nn`'s compile wrappers and the serving layer run
    /// programs at this level.
    #[default]
    Standard,
}

impl OptLevel {
    /// Short label for reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Standard => "standard",
        }
    }
}

/// Aggregate optimizer counters, one per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptTotals {
    /// Ops shared by common-subexpression elimination.
    pub shared: usize,
    /// GEMMs rewritten to the sparse form by `prune-pack`.
    pub pruned: usize,
    /// Dead ops removed.
    pub dead: usize,
}

impl OptTotals {
    /// Total ops removed across all passes (`prune-pack` rewrites, it
    /// removes nothing).
    pub(crate) fn removed(&self) -> usize {
        self.shared + self.dead
    }
}

/// What one [`Program::optimize`] run did that the optimized program
/// cannot tell by itself, carried by it ([`Program::opt_report`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OptReport {
    /// The level the pipeline ran at.
    pub(crate) level: OptLevel,
    /// Op count of the program as emitted.
    pub ops_before: usize,
    /// What each pass did.
    pub totals: OptTotals,
}

impl OptReport {
    /// Fraction of ops the pipeline removed (`0.0` for an empty or
    /// untouched program).
    pub fn ops_removed_fraction(&self) -> f64 {
        if self.ops_before == 0 {
            0.0
        } else {
            self.totals.removed() as f64 / self.ops_before as f64
        }
    }
}

impl Program {
    /// Runs the optimizer pipeline at `level` and returns the rewritten
    /// program, which carries its [`OptReport`]. Constants are shared
    /// (`Arc`), never copied. The result is bit-identical to the input
    /// program on every input.
    ///
    /// # Errors
    ///
    /// Validation errors from rebuilding the program — a pass that
    /// produced an invalid graph is a bug, but the validator still runs
    /// on every intermediate program rather than trusting the rewrite.
    pub fn optimize(&self, level: OptLevel) -> Result<Program> {
        let ops_before = self.stages();
        let mut current = self.clone();
        let mut totals = OptTotals::default();
        if level == OptLevel::Standard {
            (current, totals.shared) = share_common_subexpressions(&current)?;
            (current, totals.pruned) = prune_pack(&current)?;
            (current, totals.dead) = eliminate_dead_slots(&current)?;
        }
        current.opt = Some(std::sync::Arc::new(OptReport {
            level,
            ops_before,
            totals,
        }));
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
    // renumbered, and session-output nodes are never aliased (`cse`) or
    // dropped (dead-slot elimination roots the live set at them).
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

/// Shares any two ops whose payloads are bit-identical and whose
/// operands resolve to the same values — duplicate `Quantize`
/// boundaries of one value, duplicate const-operand GEMMs, repeated
/// `Im2col` of the same slot, and any cascade the first sharing
/// exposes. Operand equality looks through constants, so two
/// separately-registered but bit-identical weight tensors share too.
/// Payloads compare by their wire encoding, which tells NaN payloads
/// apart where `Debug` prints every NaN alike, and keeps an `Int16` and
/// an `Int8` boundary of one value apart. Bit-identical: a shared op is
/// literally the same deterministic computation. (A `Quantize` *of* a
/// `Quantize` output reads another operand and stays — re-quantizing
/// recomputes the scale and can move the result by an ULP.)
fn share_common_subexpressions(program: &Program) -> Result<(Program, usize)> {
    let n_in = program.n_inputs();
    // Roots are never aliased away: the last op is the program output,
    // and a session output is read back after every run (two equal
    // session outputs must stay two slots).
    let mut root = vec![false; program.stages()];
    root[program.stages() - 1] = true;
    for &s in program.session_outputs() {
        root[s - n_in] = true;
    }
    // Canonicalize constants: map each const to the first bit-identical
    // registration (fingerprint bucket, then exact compare).
    let consts = program.consts();
    let mut canon: Vec<usize> = (0..consts.len()).collect();
    let prints: Vec<u64> = (0..consts.len())
        .map(|c| program.const_fingerprints()[c])
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
            if !root[i] {
                if let Some((_, _, prev_out)) = seen
                    .iter()
                    .find(|(k, ops, _)| *k == key && *ops == resolved)
                {
                    removed += 1;
                    alias[n_in + i] = *prev_out;
                    return Action::Alias(*prev_out);
                }
            }
            seen.push((key, resolved.clone(), n_in + i));
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
        assert_eq!(report.totals.shared, 2); // the Quantize, then the GEMM
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
        // sharing them would change the program's output.
        let quantize =
            |b: &mut crate::ProgramBuilder, x, precision| b.push(Op::Quantize { precision }, &[x]);
        let mut b = Program::builder("mixed", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let q16 = quantize(&mut b, x, Precision::Int16);
        let q8 = quantize(&mut b, x, Precision::Int8);
        b.push(Op::Add, &[q16, q8]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.shared, 0);
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
        assert_eq!(o.opt_report().unwrap().totals.shared, 1);
        assert_eq!(
            run(&p, std::slice::from_ref(&xv)),
            run(&o, std::slice::from_ref(&xv))
        );
    }

    #[test]
    fn chained_quantize_of_quantize_is_left_alone() {
        // q(q(x)) recomputes the scale and is NOT guaranteed to equal
        // q(x) bit for bit, so `cse` must not touch chains.
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
        b.push(Op::Add, &[q2, q2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.stages(), 3);
        assert_eq!(o.opt_report().unwrap().totals.shared, 0);
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
        // `Debug` prints both epsilons as `NaN`; the outputs carry
        // different payloads, so sharing them would change the output.
        let mut b = Program::builder("nan-cse", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let norm = |bits: u32| Op::LayerNorm {
            gamma: vec![1.0; 3],
            beta: vec![0.0; 3],
            eps: f32::from_bits(bits),
        };
        let s1 = b.push(norm(0x7fc0_0001), &[x]);
        let s2 = b.push(norm(0x7fc0_0002), &[x]);
        b.push(Op::ConcatRows, &[s1, s2]);
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
        let s = b.push(Op::Add, &[q1, q1]);
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
        // The Add (and the Quantize only it consumed) became dead and
        // were swept; the final Quantize survives as the output.
        assert_eq!(o.opt_report().unwrap().totals.dead, 2);
        assert_eq!(o.stages(), 1);
    }

    #[test]
    fn equal_session_outputs_stay_two_slots() {
        // Two equal ops that are both session outputs: aliasing the
        // second onto the first would list one slot twice.
        let mut b = Program::builder("twin-sessions", EvalMode::Exact);
        let x = b.input(&[2, 3]);
        let s1 = b.push(Op::Add, &[x, x]);
        let s2 = b.push(Op::Add, &[x, x]);
        b.mark_session_output(s1);
        b.mark_session_output(s2);
        b.push(Op::Add, &[s1, s2]);
        let p = b.finish().unwrap();
        let o = p.optimize(OptLevel::Standard).unwrap();
        assert_eq!(o.opt_report().unwrap().totals.shared, 0);
        assert_eq!(o.session_outputs().len(), 2);
        let x = Pcg32::seed_from_u64(8).randn(&[2, 3], 1.0);
        let run_full = |p: &Program| {
            p.run(
                std::slice::from_ref(&x),
                Parallelism::Sequential,
                &mut TableCache::new(),
            )
            .unwrap()
        };
        let (want, got) = (run_full(&p), run_full(&o));
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&want.output), bits(&got.output));
        assert_eq!(want.session_outputs.len(), got.session_outputs.len());
        for (w, g) in want.session_outputs.iter().zip(&got.session_outputs) {
            assert_eq!(bits(w), bits(g));
        }
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
        let _unused2 = b.push(Op::SliceRows { start: 1, len: 1 }, &[x]);
        b.push(Op::Add, &[x, x]);
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
        assert_eq!(report.ops_before, p.stages());
        assert_eq!(report.totals, OptTotals::default());
        assert_eq!(report.ops_removed_fraction(), 0.0);
        assert_eq!(OptLevel::None.label(), "none");
        assert_eq!(OptLevel::Standard.label(), "standard");
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
        assert_eq!(
            report.ops_removed_fraction(),
            0.0,
            "prune-pack removes nothing"
        );
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
        // A clone shares the constants, not copies of them.
        let c = o.clone();
        assert!(std::sync::Arc::ptr_eq(&c.consts()[0], &o.consts()[0]));
    }
}
