//! `infer_library`: one caller, closed loop, cycling whole-network
//! inferences — `SmallCnn::logits` on `[3,32,32]`, `TinyBert::predict`
//! on 64 tokens, `Gcn::logits` on a 420-node graph (hidden 64) and the
//! same GCN after `prune_hidden(0.5)` — 16 seeded inputs each, compile
//! caches warm.
//!
//! This is the paper's own use of the system (a whole network on one
//! array) and it never enters `onesa-core`: a serve or net change must
//! leave it where it was. `plan.exec`, `cpwl` and skinny `tensor` GEMMs
//! (im2col `[1024,27]·[27,8]`, the block-sparse path) do the work. The
//! modeled counts and output checksum repeat exactly for a seed.

use super::{
    cpwl_mode, finish_traced, max_abs_diff, median_setup, peak_rss_mb, same_bits, sample, Onion,
    RunArgs, RunOutput,
};
use crate::kernels::{cpwl_melem_s, per_call_us_p50, Family, KernelPlan, KernelTimes, PAR};
use crate::probes;
use crate::stats::{Fnv, Samples};
use crate::trace::Recorder;
use onesa_data::{Difficulty, GraphDataset};
use onesa_nn::infer::InferenceMode;
use onesa_nn::models::{Gcn, SmallCnn, TinyBert};
use onesa_plan::{Compile, OptLevel, Program, TableCache};
use onesa_tensor::rng::Pcg32;
use onesa_tensor::Tensor;
use std::time::{Duration, Instant};

/// Distinct inputs per model.
const INPUTS: usize = 16;
/// Inputs per model in the seed-independent CPWL-error probe set.
const PROBE_INPUTS: usize = 4;
/// Seed of the probe set: fixed, so `cpwl_max_abs_err` repeats exactly
/// whatever `--seed` is.
const PROBE_SEED: u64 = 0x0E5A;

const VOCAB: usize = 64;
const SEQ_LEN: usize = 64;
const NODES: usize = 420;
const FEATURES: usize = 32;
const HIDDEN: usize = 64;
const CLASSES: usize = 7;

/// The four op classes, in cycling order.
const CLASS_NAMES: [&str; 4] = ["cnn", "bert", "gcn", "gcn_pruned"];

/// The four models. Weights come from fixed seeds — the program under
/// test is fixed; only its inputs follow `--seed`.
struct Models {
    cnn: SmallCnn,
    bert: TinyBert,
    gcn: Gcn,
    pruned: Gcn,
}

impl Models {
    fn new() -> Self {
        let gcn = Gcn::new(13, FEATURES, HIDDEN, CLASSES);
        let mut pruned = gcn.clone();
        pruned
            .prune_hidden(0.5)
            .expect("0.5 is a valid keep fraction");
        Models {
            cnn: SmallCnn::new(11, 3, 10),
            bert: TinyBert::new(12, VOCAB, SEQ_LEN, 2, 2),
            gcn,
            pruned,
        }
    }
}

/// The generated inputs: images, token sequences and one graph topology
/// carrying [`INPUTS`] feature matrices.
struct Inputs {
    images: Vec<Tensor>,
    seqs: Vec<Vec<usize>>,
    graphs: Vec<GraphDataset>,
}

impl Inputs {
    fn generate(seed: u64, n: usize) -> Self {
        let mut rng = Pcg32::seed_with_stream(seed, 0x11B);
        let images = (0..n).map(|_| rng.randn(&[3, 32, 32], 1.0)).collect();
        let seqs = (0..n)
            .map(|_| {
                (0..SEQ_LEN)
                    .map(|_| rng.below(VOCAB as u32) as usize)
                    .collect()
            })
            .collect();
        let base = GraphDataset::generate(
            "bench",
            seed,
            Difficulty::medium(CLASSES),
            NODES,
            FEATURES,
            0.16,
        );
        let graphs = (0..n)
            .map(|_| {
                let mut g = base.clone();
                g.x = rng.randn(&[NODES, FEATURES], 1.0);
                g
            })
            .collect();
        Inputs {
            images,
            seqs,
            graphs,
        }
    }

    fn len(&self) -> usize {
        self.images.len()
    }
}

/// One inference through the public wrapper of class `class`.
fn infer(
    models: &Models,
    inputs: &Inputs,
    class: usize,
    i: usize,
    mode: &InferenceMode,
) -> Vec<f32> {
    match class {
        0 => models.cnn.logits(&inputs.images[i], mode),
        1 => models.bert.predict(&inputs.seqs[i], mode),
        2 => models.gcn.logits(&inputs.graphs[i], mode).into_vec(),
        _ => models.pruned.logits(&inputs.graphs[i], mode).into_vec(),
    }
}

/// The same inference through the layer-by-layer reference path.
fn infer_direct(
    models: &Models,
    inputs: &Inputs,
    class: usize,
    i: usize,
    mode: &InferenceMode,
) -> Vec<f32> {
    match class {
        0 => models.cnn.logits_direct(&inputs.images[i], mode),
        1 => models.bert.predict_direct(&inputs.seqs[i], mode),
        2 => models.gcn.logits_direct(&inputs.graphs[i], mode).into_vec(),
        _ => models
            .pruned
            .logits_direct(&inputs.graphs[i], mode)
            .into_vec(),
    }
}

/// The optimized program the wrapper of class `class` runs (compiled
/// afresh through the public `Compile` trait; the wrappers keep theirs
/// behind private cache keys).
fn program_of(models: &Models, inputs: &Inputs, class: usize, mode: &InferenceMode) -> Program {
    let level = OptLevel::default();
    match class {
        0 => models.cnn.compile_optimized((mode, (32, 32)), level),
        1 => models.bert.compile_optimized((mode, SEQ_LEN), level),
        2 => models
            .gcn
            .compile_optimized((mode, &inputs.graphs[0]), level),
        _ => models
            .pruned
            .compile_optimized((mode, &inputs.graphs[0]), level),
    }
    .expect("benchmark models compile")
}

/// The program's input tensor for `(class, i)`.
fn program_input(inputs: &Inputs, class: usize, i: usize) -> Tensor {
    match class {
        0 => inputs.images[i].clone(),
        1 => TinyBert::ids_tensor(&inputs.seqs[i]),
        _ => inputs.graphs[i].x.clone(),
    }
}

struct Ctx {
    models: Models,
    inputs: Inputs,
    mode: InferenceMode,
}

/// Everything before the first timed op: inputs, models, CPWL tables
/// (inside `cpwl_mode`), then one inference per (class, input) — which
/// is the cold compile + optimize of every program.
fn setup(seed: u64) -> Ctx {
    let ctx = Ctx {
        mode: cpwl_mode(),
        models: Models::new(),
        inputs: Inputs::generate(seed, INPUTS),
    };
    for class in 0..4 {
        for i in 0..INPUTS {
            std::hint::black_box(infer(&ctx.models, &ctx.inputs, class, i, &ctx.mode));
        }
    }
    ctx
}

/// Max |CPWL − Exact| over the outputs of the fixed probe set.
fn cpwl_error(models: &Models, mode: &InferenceMode) -> f64 {
    let probe = Inputs::generate(PROBE_SEED, PROBE_INPUTS);
    let mut worst = 0.0f64;
    for class in 0..4 {
        for i in 0..probe.len() {
            let approx = infer(models, &probe, class, i, mode);
            let exact = infer(models, &probe, class, i, &InferenceMode::Exact);
            worst = worst.max(max_abs_diff(&approx, &exact));
        }
    }
    worst
}

/// Modeled cost of one inference of each class.
struct Modeled {
    seconds: [f64; 4],
    joules: [f64; 4],
    cycles: [u64; 4],
    macs: [u64; 4],
}

fn modeled(programs: &[Program]) -> Modeled {
    let cfg = super::array();
    let mut m = Modeled {
        seconds: [0.0; 4],
        joules: [0.0; 4],
        cycles: [0; 4],
        macs: [0; 4],
    };
    for (c, p) in programs.iter().enumerate() {
        for s in p.op_stats(&cfg).expect("compiled program validates") {
            m.seconds[c] += s.seconds();
            m.cycles[c] += s.cycles();
            m.macs[c] += s.macs;
        }
        m.joules[c] = p.modeled_energy(&cfg).expect("compiled program validates");
    }
    m
}

/// Records the median per-call latency, in ms: each network's own
/// median over all of its calls, averaged over the four networks.
/// (Pooled, the four equal-count clusters put the median on the boundary
/// between two networks — the slowest call of the second-fastest one —
/// which says little about either and jumps from run to run.)
fn set_latency(out: &mut RunOutput, name: &'static str, per_class: &[Samples; 4]) {
    let mut sum = 0.0;
    for (samples, class) in per_class.iter().zip(CLASS_NAMES) {
        match samples.gated_percentile(50.0) {
            Ok(v) => sum += v,
            Err(why) => {
                out.problems.push(format!("{name} ({class}): {why}"));
                sum += samples.p50();
            }
        }
    }
    out.set(name, sum / 4.0 * 1e3);
}

/// The end-to-end run.
pub fn run(args: RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let (ctx, setup_s) = median_setup(|| setup(args.seed), drop);
    let Ctx {
        models,
        inputs,
        mode,
    } = &ctx;

    // Timed: closed loop, one caller, cycling the four networks.
    let mut per_class: [Samples; 4] = Default::default();
    let mut first_seen: Vec<Option<Vec<f32>>> = vec![None; 4 * INPUTS];
    let mut nondeterministic = 0u64;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut op = 0usize;
    while start.elapsed() < budget {
        let (class, i) = (op % 4, (op / 4) % INPUTS);
        let t0 = Instant::now();
        let logits = infer(models, inputs, class, i, mode);
        per_class[class].push(t0.elapsed().as_secs_f64());
        let slot = &mut first_seen[class * INPUTS + i];
        match slot {
            Some(seen) if !same_bits(seen, &logits) => nondeterministic += 1,
            Some(_) => {}
            None => *slot = Some(logits),
        }
        op += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ops = op as u64;
    let executed = [0, 1, 2, 3].map(|c| per_class[c].len());

    // Output check: every distinct (class, input) against the
    // layer-by-layer reference, bit for bit.
    let mut wrong = 0u64;
    let mut checksum = Fnv::default();
    for class in 0..4 {
        for i in 0..INPUTS {
            let Some(got) = &first_seen[class * INPUTS + i] else {
                continue;
            };
            checksum.floats(got);
            if !same_bits(got, &infer_direct(models, inputs, class, i, mode)) {
                wrong += 1;
            }
        }
    }
    // A wrong (class, input) pair is wrong every time it was served.
    let repeats = ops.div_ceil((4 * INPUTS) as u64);
    out.attempted = ops;
    out.failed = (wrong * repeats + nondeterministic).min(ops);

    let programs: Vec<Program> = (0..4)
        .map(|c| program_of(models, inputs, c, mode))
        .collect();
    let m = modeled(&programs);
    let modeled_s: f64 = (0..4).map(|c| m.seconds[c] * executed[c] as f64).sum();
    let modeled_j: f64 = (0..4).map(|c| m.joules[c] * executed[c] as f64).sum();

    out.set("setup_s", setup_s);
    out.set("throughput_ops_s", ops as f64 / elapsed);
    set_latency(&mut out, "latency_p50_ms", &per_class);
    // Not a streaming workload: the first output is the only output.
    set_latency(&mut out, "ttft_p50_ms", &per_class);
    out.set("modeled_ops_s", ops as f64 / modeled_s);
    out.set("modeled_uj_per_op", modeled_j / ops as f64 * 1e6);
    out.set("cpwl_max_abs_err", cpwl_error(models, mode));
    out.set("peak_rss_mb", peak_rss_mb(&[]));

    for c in 0..4 {
        out.exact(&format!("{}.modeled_cycles", CLASS_NAMES[c]), m.cycles[c]);
        out.exact(&format!("{}.macs", CLASS_NAMES[c]), m.macs[c]);
        out.note(format!(
            "  {:<11} {:>6} ops   p50 {:>8.3} p90 {:>8.3} ms   modeled {:>8.3} ms / {:>8.3} uJ",
            CLASS_NAMES[c],
            executed[c],
            per_class[c].p50() * 1e3,
            per_class[c].percentile(90.0) * 1e3,
            m.seconds[c] * 1e3,
            m.joules[c] * 1e6
        ));
    }
    out.exact("output_fnv", format!("{:016x}", checksum.finish()));
    out.note(format!(
        "  {ops} inferences in {elapsed:.3} s (latency samples: {} calls per network); {wrong} of {} distinct outputs differ from *_direct, {nondeterministic} repeats differ from their first run",
        executed[0],
        4 * INPUTS
    ));
    out
}

/// The traced run: the onion kernel ⊂ `Program::run` ⊂ wrapper, per op
/// class, plus the layer probes this workload's path crosses.
pub fn run_traced(args: RunArgs) -> (RunOutput, Recorder) {
    let mut out = RunOutput::default();
    let ops_per_class = probes::onion_ops(args.seconds);
    let cfg = super::array();

    // Cold costs that make up setup_s, measured on their own.
    let mode = cpwl_mode();
    let models = Models::new();
    let inputs = Inputs::generate(args.seed, INPUTS);
    let mut compile_us = 0.0;
    let mut optimize_us = 0.0;
    for class in 0..4 {
        let t0 = Instant::now();
        let raw = match class {
            0 => models.cnn.compile((&mode, (32, 32))),
            1 => models.bert.compile((&mode, SEQ_LEN)),
            2 => models.gcn.compile((&mode, &inputs.graphs[0])),
            _ => models.pruned.compile((&mode, &inputs.graphs[0])),
        }
        .expect("benchmark models compile");
        compile_us += t0.elapsed().as_secs_f64() * 1e6;
        optimize_us += sample(3, || raw.optimize(OptLevel::default())).p50() * 1e6;
    }
    let programs: Vec<Program> = (0..4)
        .map(|c| program_of(&models, &inputs, c, &mode))
        .collect();
    let tables = mode.shared_table_set().expect("CPWL mode carries tables");
    let plans: Vec<KernelPlan> = programs
        .iter()
        .map(|p| KernelPlan::of_program(p, tables.clone(), args.seed))
        .collect();
    let m = modeled(&programs);

    // Warm the wrappers' compile caches, as the end-to-end run does.
    for class in 0..4 {
        for i in 0..INPUTS {
            std::hint::black_box(infer(&models, &inputs, class, i, &mode));
        }
    }

    // One table cache for the whole run, like a serving engine keeps.
    let mut table_cache = TableCache::new();
    table_cache.seed_shared(tables.clone());

    // The onion, one level at a time over the same (class, input)
    // sequence, innermost level first: every level then runs in its own
    // steady state. (Running the levels of one op back to back would
    // hand each outer level the caches its inner level just warmed.)
    let mut rec = Recorder::new(true);
    let mut onions: Vec<Onion> = CLASS_NAMES
        .iter()
        .map(|c| Onion::new(c, &["kernel", "plan.exec", "nn"]))
        .collect();
    let mut kernel_times: Vec<Vec<KernelTimes>> = vec![Vec::new(); 4];
    let ops: Vec<(usize, usize)> = (0..ops_per_class)
        .flat_map(|n| (0..4).map(move |class| (class, n % INPUTS)))
        .collect();
    let mut durations = vec![[0.0f64; 3]; ops.len()];
    for (op, &(class, _)) in ops.iter().enumerate() {
        let (kt, d) = rec.time(op as u64, "kernel", Some("plan.exec"), || {
            plans[class].replay()
        });
        kernel_times[class].push(kt);
        durations[op][0] = d;
    }
    for (op, &(class, i)) in ops.iter().enumerate() {
        let x = program_input(&inputs, class, i);
        durations[op][1] = rec
            .time(op as u64, "plan.exec", Some("nn"), || {
                programs[class]
                    .run(std::slice::from_ref(&x), PAR, &mut table_cache)
                    .expect("compiled program runs")
            })
            .1;
    }
    for (op, &(class, i)) in ops.iter().enumerate() {
        durations[op][2] = rec
            .time(op as u64, "nn", None, || {
                infer(&models, &inputs, class, i, &mode)
            })
            .1;
    }
    for (&(class, _), d) in ops.iter().zip(&durations) {
        onions[class].push(d, m.seconds[class]);
    }

    // tensor / cpwl — per-call kernel times inside the onion's replays.
    let all_classes = || kernel_times.iter().flatten();
    out.set(
        "tensor.matmul_im2col_us_p50",
        per_call_us_p50(&kernel_times[0], Family::Gemm),
    );
    out.set(
        "tensor.sparse_matmul_us_p50",
        per_call_us_p50(&kernel_times[3], Family::SparseGemm),
    );
    out.set(
        "tensor.mhp_us_p50",
        per_call_us_p50(all_classes(), Family::Mhp),
    );
    out.set(
        "tensor.quant_us_p50",
        per_call_us_p50(all_classes(), Family::Quant),
    );
    out.set(
        "tensor.im2col_us_p50",
        per_call_us_p50(&kernel_times[0], Family::Im2col),
    );
    out.set(
        "cpwl.ipf_us_p50",
        per_call_us_p50(all_classes(), Family::Ipf),
    );
    out.set("cpwl.eval_melem_s", cpwl_melem_s(all_classes()));
    out.set("cpwl.table_build_us", probes::table_build_us());
    out.set(
        "tensor.macs_per_op",
        m.macs.iter().sum::<u64>() as f64 / 4.0,
    );
    out.set(
        "tensor.bytes_per_op",
        plans.iter().map(KernelPlan::bytes).sum::<u64>() as f64 / 4.0,
    );

    // sim — the cost call and the modeled clock.
    let mut cost = Samples::new();
    for p in &programs {
        for v in sample(64, || p.op_stats(&cfg)).values() {
            cost.push(*v);
        }
    }
    out.set("sim.cost_us_p50", cost.p50() * 1e6);
    let cycles: u64 = m.cycles.iter().sum();
    out.set("sim.modeled_cycles_per_op", cycles as f64 / 4.0);
    out.set(
        "sim.array_utilization",
        m.macs.iter().sum::<u64>() as f64 / (cycles as f64 * cfg.peak_macs_per_cycle() as f64),
    );
    let shapes: Vec<_> = plans.iter().flat_map(KernelPlan::gemm_shapes).collect();
    probes::sim_error(&mut out, &shapes, (SEQ_LEN, 64), args.seed);

    // plan / nn — pooled over the four classes.
    let pooled = |level: usize, selfs: bool| -> Samples {
        onions
            .iter()
            .flat_map(|o| {
                let s = if selfs {
                    &o.selfs[level]
                } else {
                    &o.durations[level]
                };
                s.values().iter().copied()
            })
            .collect()
    };
    out.set("plan.exec.solo_us_p50", pooled(1, false).p50() * 1e6);
    out.set("plan.exec.self_us_p50", pooled(1, true).p50() * 1e6);
    let nodes: usize = programs.iter().map(|p| p.nodes().len()).sum();
    let exec_self_mean: f64 = onions.iter().map(|o| o.selfs[1].mean()).sum();
    out.set(
        "plan.exec.self_us_per_node",
        exec_self_mean / nodes as f64 * 1e6,
    );
    out.set("plan.opt.optimize_us", optimize_us);
    out.set("nn.compile_us", compile_us);
    out.set("nn.wrapper_self_us_p50", pooled(2, true).p50() * 1e6);
    for (class, name) in [
        "nn.cnn_ms_p50",
        "nn.bert_ms_p50",
        "nn.gcn_ms_p50",
        "nn.gcn_pruned_ms_p50",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, onions[class].durations[2].p50() * 1e3);
    }
    let caches = [
        models.cnn.compile_cache(),
        models.bert.compile_cache(),
        models.gcn.compile_cache(),
        models.pruned.compile_cache(),
    ];
    let hits: u64 = caches.iter().map(|c| c.hits()).sum();
    let misses: u64 = caches.iter().map(|c| c.misses()).sum();
    out.set("plan.cache.hit_ratio", hits as f64 / (hits + misses) as f64);

    // loadgen / trace — validity.
    let total_ops = (4 * ops_per_class) as f64;
    out.set("loadgen.sent", total_ops);
    out.set("loadgen.completed", total_ops);
    out.set(
        "trace.overhead_frac",
        probes::trace_overhead(ops_per_class, |n| {
            infer(&models, &inputs, n % 4, n % INPUTS, &mode)
        }),
    );

    out.attempted = (4 * ops_per_class) as u64;
    finish_traced(&mut out, &onions.iter().collect::<Vec<_>>(), args.workload);
    (out, rec)
}
