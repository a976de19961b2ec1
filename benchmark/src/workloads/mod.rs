//! The four workloads and what they share: the fixed design point, the
//! result of one run, and small measuring helpers.

pub mod infer_library;
pub mod serve_decode;
pub mod serve_mix;

use crate::spec;
use crate::stats::Samples;
use onesa_nn::infer::InferenceMode;
use onesa_sim::ArrayConfig;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Operations per op class in a traced run's onion.
pub const ONION_OPS: usize = 512;

/// The paper's design point, used by every workload: 8×8 PEs, 16 MACs
/// each.
pub fn array() -> ArrayConfig {
    ArrayConfig::new(8, 16)
}

/// The paper's evaluation mode: CPWL at granularity 0.25 with INT16
/// layer boundaries.
pub fn cpwl_mode() -> InferenceMode {
    InferenceMode::cpwl(0.25).expect("0.25 is a valid granularity")
}

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole networks called as a library.
    InferLibrary,
    /// Stateless mix through an in-process `ServeEngine`.
    ServeMix,
    /// Lockstep decoding sessions.
    ServeDecode,
    /// The mix through a worker process.
    ServeRemote,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "infer_library" => Some(Workload::InferLibrary),
            "serve_mix" => Some(Workload::ServeMix),
            "serve_decode" => Some(Workload::ServeDecode),
            "serve_remote" => Some(Workload::ServeRemote),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InferLibrary => "infer_library",
            Workload::ServeMix => "serve_mix",
            Workload::ServeDecode => "serve_decode",
            Workload::ServeRemote => "serve_remote",
        }
    }
}

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input and schedule.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations refused, errored, expired, degraded, late beyond
    /// saturation, or whose checked output differs from the reference.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic quantities two commits compare byte for byte.
    pub exact: Vec<(String, String)>,
    /// Reasons the run is invalid (saturated phase, unsupported
    /// percentile, …); empty on a good run.
    pub problems: Vec<String>,
    /// Human-readable detail: sample counts, the onion stacks.
    pub report: String,
}

impl RunOutput {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in the spec tables or `value` is not finite —
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::unit_of(name).is_some(),
            "metric `{name}` is not in spec.rs"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Records an `exact` entry.
    pub fn exact(&mut self, key: &str, value: impl ToString) {
        self.exact.push((key.to_string(), value.to_string()));
    }

    /// Appends a line to the human-readable report.
    pub fn note(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.report, "{}", line.as_ref());
    }

    /// Records percentile `q` over all of `samples` (scaled by `scale`),
    /// or a problem when the sample cannot support it under the
    /// ten-samples-beyond rule.
    pub fn set_gated(&mut self, name: &'static str, samples: &Samples, q: f64, scale: f64) {
        match samples.gated_percentile(q) {
            Ok(v) => self.set(name, v * scale),
            Err(why) => {
                self.problems.push(format!("{name}: {why}"));
                self.set(name, samples.percentile(q) * scale);
            }
        }
    }

    /// Whether the run is valid and every checked output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Runs `build` [`SETUP_REPS`] times, tearing every context but the last
/// down with `teardown`, and returns the last context with the median
/// build time in seconds.
pub fn median_setup<C>(mut build: impl FnMut() -> C, mut teardown: impl FnMut(C)) -> (C, f64) {
    let mut times = Samples::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        kept = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS is at least 1"), times.p50())
}

/// Seconds one call of `f` takes.
pub fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Per-call seconds of `f` over `reps` calls.
pub fn sample<R>(reps: usize, mut f: impl FnMut() -> R) -> Samples {
    (0..reps).map(|_| timed(&mut f)).collect()
}

/// The end of every traced run: prints each onion's stack, fails the run
/// if any op's self times do not sum to its outermost span, and fills in
/// the per-layer metrics this workload's path does not cross.
pub fn finish_traced(out: &mut RunOutput, onions: &[&Onion], workload: Workload) {
    let mut worst_residual = 0.0f64;
    for onion in onions {
        worst_residual = worst_residual.max(onion.max_residual_s());
        out.note(onion.render().trim_end());
    }
    out.note(format!(
        "  largest |sum of self times - outermost span| over all ops: {:.2e} us",
        worst_residual * 1e6
    ));
    if worst_residual > 1e-9 {
        out.problems.push(format!(
            "onion does not reconcile: residual {worst_residual:e} s"
        ));
    }
    crate::probes::zero_fill(out, workload.name());
}

/// Bit-for-bit equality of two float slices (the repo's contract).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest elementwise `|a - b|`.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

/// Peak resident memory of this process plus `workers`, in MiB.
pub fn peak_rss_mb(workers: &[u32]) -> f64 {
    std::iter::once(std::process::id())
        .chain(workers.iter().copied())
        .filter_map(crate::host::peak_rss_mb)
        .sum()
}

/// Accumulates one onion: per-level durations of every operation of
/// one op class, innermost level first.
#[derive(Debug)]
pub struct Onion {
    /// Op class name (`gemm`, `cnn`, `decode_step`, …).
    pub class: &'static str,
    /// Level names, innermost first.
    pub levels: Vec<&'static str>,
    /// `durations[level]`: seconds of every op at that level.
    pub durations: Vec<Samples>,
    /// `selfs[level]`: self seconds of every op at that level.
    pub selfs: Vec<Samples>,
    /// Modeled array seconds of every op.
    pub modeled: Samples,
}

impl Onion {
    /// An empty onion over `levels` (innermost first).
    pub fn new(class: &'static str, levels: &[&'static str]) -> Self {
        Onion {
            class,
            levels: levels.to_vec(),
            durations: levels.iter().map(|_| Samples::new()).collect(),
            selfs: levels.iter().map(|_| Samples::new()).collect(),
            modeled: Samples::new(),
        }
    }

    /// Adds one operation: its duration at every level (innermost
    /// first) and its modeled array seconds.
    pub fn push(&mut self, durations: &[f64], modeled_s: f64) {
        assert_eq!(durations.len(), self.levels.len());
        for (i, s) in crate::trace::self_times(durations).into_iter().enumerate() {
            self.durations[i].push(durations[i]);
            self.selfs[i].push(s);
        }
        self.modeled.push(modeled_s);
    }

    /// Index of level `name`.
    pub fn level(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| *l == name)
    }

    /// The stack, one line per level: mean and p50 of span and self
    /// time. The mean self times sum to the mean outermost span exactly
    /// (they telescope per op); the printed residual shows it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let n = self.modeled.len();
        let _ = writeln!(
            out,
            "  onion `{}` ({n} ops; us; innermost first)   modeled array: mean {:.2} p50 {:.2}",
            self.class,
            self.modeled.mean() * 1e6,
            self.modeled.p50() * 1e6
        );
        let _ = writeln!(
            out,
            "    {:<14} {:>11} {:>11} {:>11} {:>11}",
            "level", "span mean", "span p50", "self mean", "self p50"
        );
        let mut self_sum = 0.0;
        for i in 0..self.levels.len() {
            self_sum += self.selfs[i].mean();
            let _ = writeln!(
                out,
                "    {:<14} {:>11.2} {:>11.2} {:>11.2} {:>11.2}",
                self.levels[i],
                self.durations[i].mean() * 1e6,
                self.durations[i].p50() * 1e6,
                self.selfs[i].mean() * 1e6,
                self.selfs[i].p50() * 1e6
            );
        }
        let outer = self.durations.last().map_or(0.0, Samples::mean);
        let _ = writeln!(
            out,
            "    sum of self means {:.3} = outermost span mean {:.3} (residual {:.1e}); host/modeled {:.1}x",
            self_sum * 1e6,
            outer * 1e6,
            (self_sum - outer).abs() * 1e6,
            if self.modeled.mean() > 0.0 { outer / self.modeled.mean() } else { 0.0 }
        );
        out
    }

    /// Largest `|Σ self − outermost span|` over the ops, in seconds: the
    /// reconciliation the acceptance criteria ask for (0 up to float
    /// rounding).
    pub fn max_residual_s(&self) -> f64 {
        let n = self.modeled.len();
        (0..n)
            .map(|op| {
                let sum: f64 = self.selfs.iter().map(|s| s.values()[op]).sum();
                let outer = self.durations.last().expect("at least one level").values()[op];
                (sum - outer).abs()
            })
            .fold(0.0, f64::max)
    }
}
