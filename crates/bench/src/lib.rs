//! Report generators for every table and figure of the ONE-SA paper.
//!
//! Each `*_report` function regenerates one artefact of the evaluation
//! section (§V, Figs 1/8/9/10, Tables I–V) as formatted text; the
//! `src/bin/*` binaries are thin wrappers
//! (`cargo run -p onesa-bench --release --bin table4`). The
//! `gemm_parallel`, `sparse_gemm`, `cpwl_sweep` and `program_optimizer`
//! bins emit the committed `BENCH_*.json` kernel and compiler baselines.
//!
//! # Example
//!
//! ```
//! let report = onesa_bench::table1_report();
//! assert!(report.contains("Table I"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use onesa_baselines::table4_baselines;
use onesa_core::{split_accelerator_cycles, OneSa};
use onesa_data::{GraphDataset, ImageDataset, TextDataset};
use onesa_nn::models::{Gcn, SmallCnn, TinyBert};
use onesa_nn::profile::OpClass;
use onesa_nn::train::TrainConfig;
use onesa_nn::workloads;
use onesa_nn::InferenceMode;
use onesa_resources::array::{ArrayResources, TABLE2_ANCHORS};
use onesa_resources::modules::{l3_cost, pe_cost};
use onesa_resources::power::PowerModel;
use onesa_resources::Design;
use onesa_sim::{analytic, ArrayConfig, BufferSizes};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Best wall-seconds over `reps` calls of `f` (after one discarded
/// warm-up call), returning the last result alongside the timing.
///
/// Best-of rather than mean-of: on a shared/noisy host the minimum is
/// the stable estimator of the code's true speed, which is why both the
/// `gemm_parallel` baseline bin and the `serving_throughput` example
/// report it.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out, best)
}

/// Groups a run of [`time_rounds`] splits its rounds into: each group's
/// best times give one ratio, and a floor judges the median of them.
const GROUPS: usize = 3;

/// Seconds per call of `N` sides timed side by side (see
/// [`time_rounds`]), kept per group of interleaved rounds.
pub struct Timings<const N: usize> {
    /// Each group's best seconds per call of each side.
    groups: [[f64; N]; GROUPS],
}

impl<const N: usize> Timings<N> {
    /// Best seconds per call of each side over every round.
    pub fn best(&self) -> [f64; N] {
        let min = |i: usize| {
            self.groups
                .iter()
                .map(|g| g[i])
                .fold(f64::INFINITY, f64::min)
        };
        std::array::from_fn(min)
    }

    /// Side `i`'s time over side `j`'s, as a floor judges it: the median
    /// of the groups' ratios. Each group is an independent measurement of
    /// the same ratio, timed across the whole run, so one lucky or
    /// unlucky stretch of the host moves one group, not the verdict.
    pub fn ratio(&self, i: usize, j: usize) -> f64 {
        let mut ratios = self.groups.map(|g| g[i] / g[j]);
        ratios.sort_by(f64::total_cmp);
        ratios[GROUPS / 2]
    }
}

/// Times each of `fs` side by side over `rounds` rounds, each sample
/// timing `calls` back-to-back calls (so sub-microsecond kernels are not
/// lost in timer resolution) and the sides alternating sample by sample
/// (so a noisy stretch of the host lands on all of them, not on one side
/// of a ratio). Round `r` counts toward group `r % GROUPS`: the groups
/// interleave, and each keeps its own best time per side.
pub fn time_rounds<T, const N: usize>(
    rounds: usize,
    calls: usize,
    fs: [&mut dyn FnMut() -> T; N],
) -> Timings<N> {
    let mut groups = [[f64::INFINITY; N]; GROUPS];
    for round in 0..rounds.max(GROUPS) {
        let best = &mut groups[round % GROUPS];
        // Forwards, then backwards: whatever a side inherits from the one
        // before it (cache contents, allocator state) is shared out too.
        for i in (0..N).map(|j| if round % 2 == 0 { j } else { N - 1 - j }) {
            let (_, s) = time_best(1, || (0..calls).for_each(|_| drop(black_box(fs[i]()))));
            best[i] = best[i].min(s / calls as f64);
        }
    }
    Timings { groups }
}

/// [`time_rounds`] over 25 rounds per group: three interleaved
/// best-of-25 measurements, the sampling every floor of the
/// `gemm_parallel` and `cpwl_sweep` bins is judged on.
pub fn time_alternating<T, const N: usize>(
    calls: usize,
    fs: [&mut dyn FnMut() -> T; N],
) -> Timings<N> {
    time_rounds(25 * GROUPS, calls, fs)
}

/// Fig 1: op-class breakdown of a CIFAR-10 ResNet and a BERT encoder.
pub fn fig1_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig 1 — computations in classic neural network models");
    let _ = writeln!(
        out,
        "(op-count shares; see EXPERIMENTS.md for the accounting model)\n"
    );
    for (title, w) in [
        (
            "(a) CNN-based ResNet, CIFAR-10 shape",
            workloads::resnet50(32),
        ),
        (
            "(b) Transformer-based BERT, SST-2 shape",
            workloads::bert_base(64),
        ),
    ] {
        let c = w.op_counts();
        let _ = writeln!(out, "{title}  [{}]", w.name);
        for class in [
            OpClass::Gemm,
            OpClass::Multiply,
            OpClass::Add,
            OpClass::Softmax,
            OpClass::Norm,
            OpClass::Activation,
        ] {
            let _ = writeln!(out, "  {:<12} {:>7.2}%", class.to_string(), c.share(class));
        }
        let _ = writeln!(out, "  total ops: {:.3} G\n", c.total() as f64 / 1e9);
    }
    out
}

/// Table I: per-module resources of the L3 buffer and the PE, SA vs
/// ONE-SA.
pub fn table1_report() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — resource consumption of the ONE-SA L3 and PE"
    );
    let _ = writeln!(
        out,
        "{:<8}{:<10}{:>7}{:>8}{:>8}{:>6}",
        "Module", "Design", "BRAM", "LUT", "FF", "DSP"
    );
    for (module, design, c) in [
        ("L3", "SA", l3_cost(Design::ClassicSa)),
        ("L3", "ONE-SA", l3_cost(Design::OneSa)),
        ("PE", "SA", pe_cost(Design::ClassicSa, 16)),
        ("PE", "ONE-SA", pe_cost(Design::OneSa, 16)),
    ] {
        let _ = writeln!(
            out,
            "{module:<8}{design:<10}{:>7}{:>8}{:>8}{:>6}",
            c.bram, c.lut, c.ff, c.dsp
        );
    }
    out
}

/// Table II: whole-array resources at 4×4 / 8×8 / 16×16, model vs the
/// published numbers.
pub fn table2_report() -> String {
    let model = ArrayResources::calibrated();
    let mut out = String::new();
    let _ = writeln!(out, "Table II — total hardware resources (16 MACs/PE)");
    let _ = writeln!(
        out,
        "{:<7}{:<9}{:>7}{:>9}{:>9}{:>7}   vs published",
        "Dim", "Design", "BRAM", "LUT", "FF", "DSP"
    );
    for (dim, sa_pub, onesa_pub) in TABLE2_ANCHORS {
        for (design, published) in [(Design::ClassicSa, sa_pub), (Design::OneSa, onesa_pub)] {
            let c = model.total(design, dim, 16);
            let ok = c == published;
            let _ = writeln!(
                out,
                "{:<7}{:<9}{:>7}{:>9}{:>9}{:>7}   {}",
                format!("{dim}x{dim}"),
                design.to_string(),
                c.bram,
                c.lut,
                c.ff,
                c.dsp,
                if ok { "exact match" } else { "MISMATCH" }
            );
        }
        let (bram, lut, ff, dsp) = model.onesa_overhead_ratios(dim, 16);
        let _ = writeln!(
            out,
            "{:<7}overhead  {:>6.1}% {:>7.1}% {:>7.1}% {:>5.1}%",
            "",
            (bram - 1.0) * 100.0,
            (lut - 1.0) * 100.0,
            (ff - 1.0) * 100.0,
            (dsp - 1.0) * 100.0
        );
    }
    out
}

/// One Table III row: accuracy at the baseline and the deltas under CPWL
/// granularities.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Task name.
    pub(crate) task: String,
    /// INT16 baseline metric (percent).
    pub(crate) original: f32,
    /// Metric deltas (percentage points) at each granularity.
    pub(crate) deltas: Vec<f32>,
}

/// Table III granularities (the paper's sweep).
pub(crate) const GRANULARITIES: [f32; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];

fn row(task: &str, evaluate: impl Fn(&InferenceMode) -> f32) -> AccuracyRow {
    // "Original" = INT16 quantization with near-exact nonlinears (the
    // paper's baseline column): finest shift-friendly granularity.
    let base_mode = InferenceMode::cpwl(0.03125).expect("valid granularity");
    let original = evaluate(&base_mode) * 100.0;
    let deltas = GRANULARITIES
        .iter()
        .map(|&g| {
            let mode = InferenceMode::cpwl(g).expect("valid granularity");
            evaluate(&mode) * 100.0 - original
        })
        .collect();
    AccuracyRow {
        task: task.to_string(),
        original,
        deltas,
    }
}

/// Table III: end-to-end inference accuracy of CNN / BERT / GCN models
/// across CPWL granularities. `quick` shrinks datasets and epochs.
pub(crate) fn table3_rows(quick: bool) -> Vec<(String, Vec<AccuracyRow>)> {
    let per_class = if quick { 12 } else { 40 };
    let cfg = if quick {
        TrainConfig {
            epochs: 8,
            lr: 5e-3,
            batch_size: 16,
            seed: 42,
        }
    } else {
        TrainConfig {
            epochs: 16,
            lr: 3e-3,
            batch_size: 16,
            seed: 42,
        }
    };

    let mut cnn_rows = Vec::new();
    for data in ImageDataset::table3_suite(11, per_class) {
        let mut model = SmallCnn::new(cfg.seed, data.geometry.0, data.classes);
        model.fit(&data, &cfg);
        cnn_rows.push(row(&data.name, |mode| model.evaluate(&data, mode)));
    }

    let mut bert_rows = Vec::new();
    let text_cfg = TrainConfig {
        epochs: cfg.epochs.min(8),
        lr: 2e-3,
        batch_size: 1,
        seed: 43,
    };
    for data in TextDataset::table3_suite(13, per_class) {
        let outputs = match data.task {
            onesa_data::text::TextTask::Classification => data.classes,
            onesa_data::text::TextTask::Regression => 1,
        };
        let mut model = TinyBert::new(text_cfg.seed, data.vocab, data.seq_len, outputs, 2);
        model.fit(&data, &text_cfg);
        bert_rows.push(row(&data.name, |mode| model.evaluate(&data, mode)));
    }

    let mut gcn_rows = Vec::new();
    let gcn_cfg = TrainConfig {
        epochs: 10,
        lr: 1e-2,
        batch_size: 0,
        seed: 44,
    };
    for g in GraphDataset::table3_suite(17, if quick { 1 } else { 2 }) {
        let mut model = Gcn::new(gcn_cfg.seed, g.features, 16, g.classes);
        model.fit(&g, &gcn_cfg);
        gcn_rows.push(row(&g.name, |mode| model.evaluate(&g, mode)));
    }

    vec![
        ("CNN".to_string(), cnn_rows),
        ("BERT".to_string(), bert_rows),
        ("GCN".to_string(), gcn_rows),
    ]
}

/// Formats Table III.
pub fn table3_report(quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III — end-to-end inference accuracy vs CPWL granularity"
    );
    let _ = writeln!(
        out,
        "{:<8}{:<16}{:>9}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "DNN", "Dataset", "Original", "0.1", "0.25", "0.5", "0.75", "1"
    );
    for (family, rows) in table3_rows(quick) {
        for r in rows {
            let _ = write!(out, "{:<8}{:<16}{:>8.1}%", family, r.task, r.original);
            for d in &r.deltas {
                let _ = write!(out, "{:>8}", format!("{d:+.1}"));
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Table IV: ONE-SA (the analytic model over each workload's phases)
/// against the baseline processor models, per network family, with the
/// split GEMM + SFU design's cycles as a multiple of ONE-SA's.
pub fn table4_report() -> String {
    let engine = OneSa::new(ArrayConfig::new(8, 16));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table IV — performance comparison (L ms, S ×, T GOPS, P W, T/P 1/W)"
    );
    for w in workloads::table4_workloads() {
        let cpu_latency = onesa_baselines::cpu_i7_11700()
            .latency_s(&w)
            .expect("cpu runs all");
        let _ = writeln!(
            out,
            "\n── {} ({:.2} GMACs) ──",
            w.family,
            w.total_macs() as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "{:<28}{:>9}{:>7}{:>9}{:>8}{:>7}",
            "Processor", "L(ms)", "S(x)", "T(GOPS)", "P(W)", "T/P"
        );
        for p in table4_baselines() {
            match p.latency_s(&w) {
                Some(l) => {
                    let t = p.gops_for(w.family).expect("family supported");
                    let _ = writeln!(
                        out,
                        "{:<28}{:>9.2}{:>7.2}{:>9.2}{:>8.2}{:>7.2}",
                        p.name,
                        l * 1e3,
                        cpu_latency / l,
                        t,
                        p.power_w,
                        t / p.power_w
                    );
                }
                None => {
                    let _ = writeln!(out, "{:<28}{:>9}", p.name, "-");
                }
            }
        }
        let r = engine.run_workload(&w);
        let _ = writeln!(
            out,
            "{:<28}{:>9.2}{:>7.2}{:>9.2}{:>8.2}{:>7.2}   <- this work (modeled)",
            "Virtex7 ONE-SA",
            r.latency_ms(),
            cpu_latency * 1e3 / r.latency_ms(),
            r.gops(),
            r.power_w,
            r.gops_per_watt()
        );
        // Flexibility footnote: a 16-lane split design serializes its
        // matrix and nonlinear units, and its matrix unit idles while the
        // nonlinear unit works.
        let split = split_accelerator_cycles(engine.config(), &w, 16);
        let _ = writeln!(
            out,
            "{:<28}(split GEMM+SFU design: {:.2}x ONE-SA's cycles, matrix unit idle {:.0}%)",
            "",
            split.total as f64 / r.stats.cycles() as f64,
            split.nonlinear_busy as f64 / split.total as f64 * 100.0
        );
    }
    out
}

/// Table V: buffer sizes of the evaluation design.
pub fn table5_report() -> String {
    let b = BufferSizes::paper_default();
    let dim = 8usize;
    let mut out = String::new();
    let _ = writeln!(out, "Table V — buffer sizes (64-PE, 16-MAC design)");
    let _ = writeln!(out, "{:<10}{:>10}{:>10}", "Buffer", "Size", "Count");
    let kb = |bytes: usize| format!("{:.3}KB", bytes as f64 / 1024.0);
    let _ = writeln!(out, "{:<10}{:>10}{:>10}", "L3", kb(b.l3_bytes), 3);
    let _ = writeln!(out, "{:<10}{:>10}{:>10}", "L2", kb(b.l2_bytes), 3 * dim);
    let _ = writeln!(
        out,
        "{:<10}{:>10}{:>10}",
        "PE out",
        kb(b.pe_out_bytes),
        dim * dim
    );
    let _ = writeln!(out, "{:<10}{:>10}{:>10}", "L1", kb(b.l1_bytes), dim * dim);
    let _ = writeln!(
        out,
        "total on-chip: {:.2} KB",
        b.total_bytes(dim) as f64 / 1024.0
    );
    out
}

/// Fig 8: linear GOPS and nonlinear GNFS across PE and MAC counts for
/// input dims 32 / 128 / 512 plus the theoretical maximum.
pub fn fig8_report() -> String {
    let dims_list = [512usize, 128, 32];
    let pe_log4 = [2usize, 4, 8, 16, 32]; // D: 4..1024 PEs
    let macs = [2usize, 4, 8, 16];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig 8 — performance under different types of calculation"
    );
    for (title, nonlinear) in [("(a) linear GOPS", false), ("(b) nonlinear GNFS", true)] {
        let _ = writeln!(out, "\n{title}");
        for &t in &macs {
            let _ = writeln!(out, " MACs = {t}");
            let mut header = format!("  {:<10}", "PEs");
            for &dims in &dims_list {
                header.push_str(&format!("{:>10}", format!("{dims}dims")));
            }
            header.push_str(&format!("{:>10}", "max"));
            let _ = writeln!(out, "{header}");
            for &d in &pe_log4 {
                let cfg = ArrayConfig::new(d, t);
                let mut line = format!("  {:<10}", d * d);
                for &dims in &dims_list {
                    let v = if nonlinear {
                        analytic::nonlinear_gnfs(&cfg, dims)
                    } else {
                        analytic::linear_gops(&cfg, dims)
                    };
                    line.push_str(&format!("{:>10.2}", v));
                }
                let peak = if nonlinear {
                    cfg.peak_gnfs()
                } else {
                    cfg.peak_gops()
                };
                line.push_str(&format!("{:>10.2}", peak));
                let _ = writeln!(out, "{line}");
            }
        }
    }
    out
}

/// Fig 9: resource consumption across PE counts {4,16,64,256} and MAC
/// counts {2..32}.
pub fn fig9_report() -> String {
    let model = ArrayResources::calibrated();
    let pes = [4usize, 16, 64, 256];
    let macs = [2usize, 4, 8, 16, 32];
    let mut out = String::new();
    let _ = writeln!(out, "Fig 9 — ONE-SA resources across sizes");
    for (name, pick) in [
        ("(a) LUT", 0usize),
        ("(b) FF", 1),
        ("(c) DSP", 2),
        ("(d) BRAM", 3),
    ] {
        let _ = writeln!(out, "\n{name}");
        let mut header = format!("  {:<8}", "PEs");
        for &t in &macs {
            header.push_str(&format!("{:>10}", format!("{t} MACs")));
        }
        let _ = writeln!(out, "{header}");
        for &pe in &pes {
            let d = (pe as f64).sqrt() as usize;
            let mut line = format!("  {:<8}", pe);
            for &t in &macs {
                let c = model.total(Design::OneSa, d, t);
                let v = match pick {
                    0 => c.lut,
                    1 => c.ff,
                    2 => c.dsp,
                    _ => c.bram,
                };
                line.push_str(&format!("{v:>10}"));
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

/// One Fig 10 design point.
#[derive(Debug, Clone, Copy)]
pub struct DesignPoint {
    /// Array dimension.
    pub(crate) dim: usize,
    /// MACs per PE.
    pub(crate) macs: usize,
    /// Latency in seconds.
    pub(crate) latency_s: f64,
    /// Power in watts.
    pub(crate) power_w: f64,
    /// Whether the point is Pareto-optimal (no point with both lower
    /// latency and lower power).
    pub(crate) pareto: bool,
}

/// Computes the Fig 10 design-space sweep for one input size.
pub(crate) fn fig10_points(input_dims: usize, nonlinear: bool) -> Vec<DesignPoint> {
    let model = ArrayResources::calibrated();
    let power = PowerModel::virtex7();
    let mut points = Vec::new();
    for dim in [2usize, 4, 8, 16] {
        for macs in [2usize, 4, 8, 16, 32] {
            let cfg = ArrayConfig::new(dim, macs);
            let stats = if nonlinear {
                analytic::nonlinear_stats(&cfg, input_dims, input_dims)
            } else {
                analytic::gemm_stats(&cfg, input_dims, input_dims, input_dims)
            };
            let cost = model.total(Design::OneSa, dim, macs);
            let p = power.power_at_utilization(&cost, stats.utilization(&cfg));
            points.push(DesignPoint {
                dim,
                macs,
                latency_s: stats.seconds(),
                power_w: p,
                pareto: false,
            });
        }
    }
    let snapshot = points.clone();
    for p in &mut points {
        p.pareto = !snapshot
            .iter()
            .any(|q| q.latency_s < p.latency_s && q.power_w < p.power_w);
    }
    points
}

/// Fig 10: latency/power scatter with Pareto marks.
pub fn fig10_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig 10 — computation latency with power consumption");
    for (title, nonlinear) in [
        ("(a) linear computation", false),
        ("(b) nonlinear computation", true),
    ] {
        let _ = writeln!(out, "\n{title}");
        for dims in [512usize, 128, 32] {
            let _ = writeln!(out, " input {dims} dims");
            let _ = writeln!(
                out,
                "  {:<6}{:<6}{:>14}{:>10}{:>9}",
                "Dim", "MACs", "latency", "power", "pareto"
            );
            for p in fig10_points(dims, nonlinear) {
                let lat = if p.latency_s >= 1e-3 {
                    format!("{:.3} ms", p.latency_s * 1e3)
                } else {
                    format!("{:.1} us", p.latency_s * 1e6)
                };
                let _ = writeln!(
                    out,
                    "  {:<6}{:<6}{:>14}{:>9.2}W{:>9}",
                    format!("{0}x{0}", p.dim),
                    p.macs,
                    lat,
                    p.power_w,
                    if p.pareto { "*" } else { "" }
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "\n(* = Pareto-optimal; the paper's observation: designs with ≥16 MACs sit on the frontier)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_nonempty() {
        for r in [
            fig1_report(),
            table1_report(),
            table2_report(),
            table4_report(),
            table5_report(),
            fig8_report(),
            fig9_report(),
            fig10_report(),
        ] {
            assert!(r.len() > 100, "{r}");
        }
    }

    #[test]
    fn table2_report_matches_exactly() {
        let r = table2_report();
        assert!(r.contains("exact match"));
        assert!(!r.contains("MISMATCH"));
    }

    #[test]
    fn fig10_has_pareto_points() {
        let pts = fig10_points(128, false);
        assert_eq!(pts.len(), 20);
        assert!(pts.iter().any(|p| p.pareto));
        // The paper: high-MAC designs dominate the frontier.
        let frontier_macs: Vec<usize> = pts.iter().filter(|p| p.pareto).map(|p| p.macs).collect();
        assert!(frontier_macs.iter().any(|&m| m >= 16), "{frontier_macs:?}");
    }

    #[test]
    fn headline_beats_cpu_everywhere() {
        // The abstract's efficiency headline: ONE-SA's GOPS/W over the
        // CPU's, per family.
        let engine = OneSa::new(ArrayConfig::new(8, 16));
        let cpu = onesa_baselines::cpu_i7_11700();
        for w in workloads::table4_workloads() {
            let eff = engine.run_workload(&w).gops_per_watt();
            let ratio = eff
                / cpu
                    .gops_per_watt(w.family)
                    .expect("the CPU runs every family");
            assert!(ratio > 1.0, "{}: ratio {ratio}", w.family);
        }
    }
}
