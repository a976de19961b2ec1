//! The innermost onion level: the host kernels a request reduces to,
//! called directly.
//!
//! A plain GEMM or nonlinear request is one kernel call. A compiled
//! [`Program`] is many: [`KernelPlan::of_program`] walks the op list and
//! keeps, for every op that is a kernel call in the executor (`Gemm`,
//! `Nonlinear`, softmax / layer-norm lowerings, `Im2col`, the INT16
//! round trips), an equally-shaped call with operands prepared up
//! front — real constants where the op reads a weight (so a sparse
//! weight keeps its block structure), seeded noise where it reads an
//! activation. Replaying the plan costs what the kernels of one
//! inference cost and nothing else; what `Program::run` adds on top
//! (slot bookkeeping, coalescing keys, fingerprints, layout moves,
//! modeled-cost calls) is then the executor's *self* time.

use crate::stats::Samples;
use onesa_cpwl::ops::TableSet;
use onesa_cpwl::NonlinearFn;
use onesa_plan::{Op, Operand, Precision, Program};
use onesa_tensor::im2col::{self, Conv2dGeometry};
use onesa_tensor::parallel::{self, Parallelism};
use onesa_tensor::quant::{QuantTensor, QuantTensor8};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::sparse::{self, SparseTensor};
use onesa_tensor::Tensor;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every kernel runs on the calling thread: the benchmark fixes
/// `Parallelism::Sequential` everywhere.
pub const PAR: Parallelism = Parallelism::Sequential;

/// One prepared kernel call.
#[derive(Debug)]
enum Kernel {
    Gemm {
        a: Arc<Tensor>,
        b: Arc<Tensor>,
    },
    SparseGemm {
        a: Arc<Tensor>,
        b: SparseTensor,
    },
    Nonlinear {
        func: NonlinearFn,
        x: Tensor,
    },
    Softmax {
        x: Tensor,
    },
    LayerNorm {
        x: Tensor,
        gamma: Vec<f32>,
        beta: Vec<f32>,
        eps: f32,
    },
    Im2col {
        x: Tensor,
        geo: Conv2dGeometry,
    },
    Quant {
        x: Tensor,
        int8: bool,
    },
    QuantRows {
        rows: Vec<Tensor>,
    },
}

/// Host seconds and call counts of one plan replay, by kernel family.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// Dense `parallel::matmul` seconds / calls / multiply-accumulates.
    pub gemm_s: f64,
    /// Dense GEMM calls.
    pub gemm_calls: u32,
    /// Multiply-accumulates across the dense and sparse GEMM calls.
    pub macs: u64,
    /// Block-sparse `sparse::matmul` seconds.
    pub sparse_s: f64,
    /// Sparse GEMM calls.
    pub sparse_calls: u32,
    /// `PwlTable::ipf` seconds (nonlinear ops only).
    pub ipf_s: f64,
    /// `parallel::mhp` seconds (nonlinear ops only).
    pub mhp_s: f64,
    /// IPF + MHP passes.
    pub nonlinear_calls: u32,
    /// Elements evaluated through IPF + MHP, softmax and layer norm.
    pub cpwl_elems: u64,
    /// Softmax / layer-norm lowering seconds (`TableSet::*_rows`).
    pub rows_s: f64,
    /// Softmax / layer-norm passes.
    pub rows_calls: u32,
    /// `im2col` seconds.
    pub im2col_s: f64,
    /// `im2col` calls.
    pub im2col_calls: u32,
    /// INT16 / INT8 quantize → dequantize seconds.
    pub quant_s: f64,
    /// Quantize round trips.
    pub quant_calls: u32,
}

/// A kernel family whose calls a replay times one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Dense `parallel::matmul`.
    Gemm,
    /// Block-sparse `sparse::matmul`.
    SparseGemm,
    /// `PwlTable::ipf` of a nonlinear op.
    Ipf,
    /// `parallel::mhp` of a nonlinear op.
    Mhp,
    /// INT16 / INT8 round trip.
    Quant,
    /// `im2col`.
    Im2col,
}

impl KernelTimes {
    /// Seconds and calls of `family` in this replay.
    fn of(&self, family: Family) -> (f64, u32) {
        match family {
            Family::Gemm => (self.gemm_s, self.gemm_calls),
            Family::SparseGemm => (self.sparse_s, self.sparse_calls),
            Family::Ipf => (self.ipf_s, self.nonlinear_calls),
            Family::Mhp => (self.mhp_s, self.nonlinear_calls),
            Family::Quant => (self.quant_s, self.quant_calls),
            Family::Im2col => (self.im2col_s, self.im2col_calls),
        }
    }
}

/// Median over `replays` of the mean microseconds one `family` call
/// took (replays without such a call left out).
pub fn per_call_us_p50<'a>(
    replays: impl IntoIterator<Item = &'a KernelTimes>,
    family: Family,
) -> f64 {
    replays
        .into_iter()
        .map(|t| t.of(family))
        .filter(|&(_, calls)| calls > 0)
        .map(|(s, calls)| s / f64::from(calls))
        .collect::<Samples>()
        .p50()
        * 1e6
}

/// Million elements per second through the CPWL evaluations (IPF + MHP
/// and the softmax / layer-norm lowerings) of `replays`.
pub fn cpwl_melem_s<'a>(replays: impl IntoIterator<Item = &'a KernelTimes>) -> f64 {
    let (elems, seconds) = replays.into_iter().fold((0u64, 0.0), |(e, s), t| {
        (e + t.cpwl_elems, s + t.ipf_s + t.mhp_s + t.rows_s)
    });
    elems as f64 / seconds / 1e6
}

/// The kernel calls of one request, ready to replay.
#[derive(Debug)]
pub struct KernelPlan {
    kernels: Vec<Kernel>,
    tables: Arc<TableSet>,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

impl KernelPlan {
    /// A single dense GEMM `a · b`.
    pub fn of_gemm(a: &Tensor, b: &Tensor, tables: Arc<TableSet>) -> Self {
        KernelPlan {
            kernels: vec![Kernel::Gemm {
                a: Arc::new(a.clone()),
                b: Arc::new(b.clone()),
            }],
            tables,
        }
    }

    /// A single nonlinear pass over `x`.
    pub fn of_nonlinear(func: NonlinearFn, x: &Tensor, tables: Arc<TableSet>) -> Self {
        KernelPlan {
            kernels: vec![Kernel::Nonlinear { func, x: x.clone() }],
            tables,
        }
    }

    /// The kernel calls `program` makes in one solo run (see the module
    /// docs). `seed` fills the activation operands.
    ///
    /// # Panics
    ///
    /// If the program does not validate — benchmark programs come from
    /// the repo's own compilers.
    pub fn of_program(program: &Program, tables: Arc<TableSet>, seed: u64) -> Self {
        let shapes = program.slot_shapes().expect("compiled program validates");
        let mut rng = Pcg32::seed_with_stream(seed, 0x4B45_524E);
        let operand = |o: &Operand, rng: &mut Pcg32| -> Arc<Tensor> {
            match *o {
                Operand::Const(c) => Arc::clone(&program.consts()[c]),
                Operand::Slot(s) => Arc::new(rng.randn(&shapes[s], 1.0)),
            }
        };
        let mut kernels = Vec::new();
        for node in program.nodes() {
            let first = |rng: &mut Pcg32| Tensor::clone(&operand(&node.inputs[0], rng));
            match &node.op {
                Op::Gemm { sparsity, .. } => {
                    let a = operand(&node.inputs[0], &mut rng);
                    let b = operand(&node.inputs[1], &mut rng);
                    kernels.push(match sparsity {
                        Some(s) => Kernel::SparseGemm {
                            a,
                            b: SparseTensor::from_dense(&b, s.block_cols)
                                .expect("validated sparse weight packs"),
                        },
                        None => Kernel::Gemm { a, b },
                    });
                }
                Op::Nonlinear(func) | Op::AffineNonlinear { func, .. } => {
                    kernels.push(Kernel::Nonlinear {
                        func: *func,
                        x: first(&mut rng),
                    })
                }
                Op::Softmax | Op::CausalSoftmax { .. } => {
                    kernels.push(Kernel::Softmax { x: first(&mut rng) })
                }
                Op::LayerNorm { gamma, beta, eps } => kernels.push(Kernel::LayerNorm {
                    x: first(&mut rng),
                    gamma: gamma.clone(),
                    beta: beta.clone(),
                    eps: *eps,
                }),
                Op::Im2col(geo) => kernels.push(Kernel::Im2col {
                    x: first(&mut rng),
                    geo: *geo,
                }),
                Op::Quantize { precision } => kernels.push(Kernel::Quant {
                    x: first(&mut rng),
                    int8: *precision == Precision::Int8,
                }),
                Op::QuantizeRows => {
                    let x = first(&mut rng);
                    let (m, n) = x.shape().as_matrix().expect("QuantizeRows takes a matrix");
                    let rows = (0..m)
                        .map(|i| {
                            Tensor::from_vec(x.as_slice()[i * n..(i + 1) * n].to_vec(), &[1, n])
                                .expect("row length matches")
                        })
                        .collect();
                    kernels.push(Kernel::QuantRows { rows });
                }
                // Layout moves, elementwise glue, and any op newer than
                // this list: executor self time. The test below holds the
                // listed kernel calls to the executor's own counts.
                _ => {}
            }
        }
        KernelPlan { kernels, tables }
    }

    /// `(m, k, n)` of every dense GEMM in the plan.
    pub fn gemm_shapes(&self) -> Vec<(usize, usize, usize)> {
        self.kernels
            .iter()
            .filter_map(|k| match k {
                Kernel::Gemm { a, b } => Some((a.dims()[0], a.dims()[1], b.dims()[1])),
                _ => None,
            })
            .collect()
    }

    /// Bytes the plan's kernels read and write, from shapes alone (a
    /// count, not a measurement): GEMM operands and result, and for
    /// every CPWL element its input, fetched `k` and `b`, and output.
    pub fn bytes(&self) -> u64 {
        let elems: usize = self
            .kernels
            .iter()
            .map(|k| match k {
                Kernel::Gemm { a, b } => a.len() + b.len() + a.dims()[0] * b.dims()[1],
                Kernel::SparseGemm { a, b } => {
                    a.len() + b.rows() * b.nnz_cols() + a.dims()[0] * b.cols()
                }
                Kernel::Nonlinear { x, .. }
                | Kernel::Softmax { x }
                | Kernel::LayerNorm { x, .. } => 4 * x.len(),
                Kernel::Im2col { x, geo } => x.len() * (1 + geo.kernel * geo.kernel),
                Kernel::Quant { x, .. } => 2 * x.len(),
                Kernel::QuantRows { rows } => rows.iter().map(|r| 2 * r.len()).sum(),
            })
            .sum();
        4 * elems as u64
    }

    /// Executes every kernel once, timing each call.
    pub fn replay(&self) -> KernelTimes {
        let mut t = KernelTimes::default();
        for kernel in &self.kernels {
            match kernel {
                Kernel::Gemm { a, b } => {
                    black_box(timed(&mut t.gemm_s, || {
                        parallel::matmul(a, b, PAR).expect("shapes agree")
                    }));
                    t.gemm_calls += 1;
                    t.macs += (a.len() * b.dims()[1]) as u64;
                }
                Kernel::SparseGemm { a, b } => {
                    black_box(timed(&mut t.sparse_s, || {
                        sparse::matmul(a, b, PAR).expect("shapes agree")
                    }));
                    t.sparse_calls += 1;
                    t.macs += (a.len() * b.nnz_cols()) as u64;
                }
                Kernel::Nonlinear { func, x } => {
                    let table = self.tables.table(*func).expect("function in table set");
                    let ipf = timed(&mut t.ipf_s, || table.ipf(x));
                    black_box(timed(&mut t.mhp_s, || {
                        parallel::mhp(x, &ipf.k, &ipf.b, PAR).expect("same shape")
                    }));
                    t.nonlinear_calls += 1;
                    t.cpwl_elems += x.len() as u64;
                }
                Kernel::Softmax { x } => {
                    black_box(timed(&mut t.rows_s, || {
                        self.tables.softmax_rows(x).expect("matrix")
                    }));
                    t.rows_calls += 1;
                    t.cpwl_elems += x.len() as u64;
                }
                Kernel::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    black_box(timed(&mut t.rows_s, || {
                        self.tables
                            .layernorm_rows(x, gamma, beta, *eps)
                            .expect("matrix")
                    }));
                    t.rows_calls += 1;
                    t.cpwl_elems += x.len() as u64;
                }
                Kernel::Im2col { x, geo } => {
                    black_box(timed(&mut t.im2col_s, || {
                        im2col::im2col(x, geo).expect("geometry fits")
                    }));
                    t.im2col_calls += 1;
                }
                Kernel::Quant { x, int8 } => {
                    black_box(timed(&mut t.quant_s, || {
                        if *int8 {
                            QuantTensor8::quantize(x).dequantize()
                        } else {
                            QuantTensor::quantize(x).dequantize()
                        }
                    }));
                    t.quant_calls += 1;
                }
                Kernel::QuantRows { rows } => {
                    black_box(timed(&mut t.quant_s, || {
                        rows.iter()
                            .map(|r| QuantTensor::quantize(r).dequantize())
                            .collect::<Vec<_>>()
                    }));
                    t.quant_calls += 1;
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onesa_core::{BatchEngine, OneSa, Request};
    use onesa_data::{Difficulty, GraphDataset};
    use onesa_nn::infer::InferenceMode;
    use onesa_nn::models::{Gcn, SmallCnn, TinyBert, TinyCausalLm};
    use onesa_plan::{Compile, OptLevel};
    use onesa_sim::ArrayConfig;

    /// The replayed plan is a guess at what `Program::run` calls; the
    /// executor reports what it really called. For every kind of program
    /// the workloads trace, the two must agree on how many GEMM kernels
    /// and how many CPWL passes one solo run makes, and on the GEMM
    /// multiply-accumulates — so a new op, a fusion or a coalescing
    /// change in the executor fails here instead of skewing
    /// `plan.exec.self_us_*` silently.
    #[test]
    fn replay_makes_the_kernel_calls_the_executor_counts() {
        let mode = InferenceMode::cpwl(0.25).unwrap();
        let tables = mode.shared_table_set().unwrap();
        let level = OptLevel::default();
        let graph = GraphDataset::generate("t", 1, Difficulty::medium(7), 420, 32, 0.16);
        let gcn = Gcn::new(13, 32, 64, 7);
        let mut pruned = gcn.clone();
        pruned.prune_hidden(0.5).unwrap();
        let lm = TinyCausalLm::new(2027, 64, 32, 2, true);
        let mut rng = Pcg32::seed_with_stream(1, 1);
        let ids = |n: usize| TinyBert::ids_tensor(&(0..n).map(|i| i % 64).collect::<Vec<_>>());
        let prefill = Program::clone(&lm.compiled_prefill(&mode, 8));
        let cases: Vec<(&str, Program, Vec<Tensor>)> = vec![
            (
                "cnn32",
                SmallCnn::new(11, 3, 10)
                    .compile_optimized((&mode, (32, 32)), level)
                    .unwrap(),
                vec![rng.randn(&[3, 32, 32], 1.0)],
            ),
            (
                "cnn16",
                SmallCnn::new(11, 3, 10)
                    .compile_optimized((&mode, (16, 16)), level)
                    .unwrap(),
                vec![rng.randn(&[3, 16, 16], 1.0)],
            ),
            (
                "bert",
                TinyBert::new(12, 64, 64, 2, 2)
                    .compile_optimized((&mode, 64), level)
                    .unwrap(),
                vec![ids(64)],
            ),
            (
                "gcn",
                gcn.compile_optimized((&mode, &graph), level).unwrap(),
                vec![graph.x.clone()],
            ),
            (
                "gcn_pruned",
                pruned.compile_optimized((&mode, &graph), level).unwrap(),
                vec![graph.x.clone()],
            ),
            ("prefill", prefill, vec![ids(8)]),
        ];
        for (name, program, inputs) in cases {
            let times = KernelPlan::of_program(&program, tables.clone(), 1).replay();
            let uncounted = program
                .nodes()
                .iter()
                .filter(|n| matches!(n.op, Op::AffineNonlinear { .. } | Op::CausalSoftmax { .. }))
                .count();
            let mut batch =
                BatchEngine::new(OneSa::with_parallelism(ArrayConfig::new(8, 16), PAR), 0.25)
                    .unwrap();
            batch
                .submit_checked(Request::program(program, inputs))
                .unwrap();
            let report = batch.run().unwrap().report;
            assert_eq!(
                (times.gemm_calls + times.sparse_calls) as usize,
                report.gemm_groups,
                "{name}: GEMM kernel calls"
            );
            // The executor's group count leaves out the two CPWL ops it
            // never coalesces.
            assert_eq!(
                (times.nonlinear_calls + times.rows_calls) as usize,
                report.nonlinear_groups + uncounted,
                "{name}: CPWL passes"
            );
        }
    }
}
