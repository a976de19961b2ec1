//! `all`: the one command that runs every workload end to end and
//! traced, checks outputs, prints every metric, and writes a result set
//! `compare` can read back.
//!
//! Each run is a child process of this same binary invoked exactly as
//! the driver invokes it (`--workload … --seed … --seconds … --trace …`),
//! so a run's `peak_rss_mb` is its own and the contract CLI is what gets
//! exercised.

use crate::json::{self, Value};
use crate::spec;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Options of `all`.
#[derive(Debug, Clone)]
pub struct AllArgs {
    /// End-to-end runs per workload (each with its own seed).
    pub runs: usize,
    /// Seconds each run measures.
    pub seconds: f64,
    /// First seed; run `r` of every workload uses `seed + r`.
    pub seed: u64,
    /// Name of the result set (`out/results_<label>.jsonl`).
    pub label: String,
    /// Result sets to take, interleaved: run `r` of every set before run
    /// `r + 1` of any, so that a drift of the host lands on all of them
    /// alike. With two or more, `out/results_<label>_a.jsonl`, `_b`, …
    /// and a `compare` of the first two.
    pub sets: usize,
}

/// One run of a result set.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// The run's own verdict.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: f64,
    /// Ops failed.
    pub failed: f64,
    /// Metric values.
    pub metrics: BTreeMap<String, f64>,
    /// The `exact` block.
    pub exact: BTreeMap<String, String>,
}

impl Record {
    fn to_value(&self) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        Value::Obj(vec![
            ("workload".into(), s(&self.workload)),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("trace".into(), Value::Num(f64::from(u8::from(self.trace)))),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted)),
            ("failed".into(), Value::Num(self.failed)),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "exact".into(),
                Value::Obj(self.exact.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
            ),
        ])
    }

    fn from_value(v: &Value) -> Option<Record> {
        Some(Record {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            trace: v.get("trace")?.as_f64()? != 0.0,
            correct: matches!(v.get("correct")?, Value::Bool(true)),
            attempted: v.get("attempted")?.as_f64()?,
            failed: v.get("failed")?.as_f64()?,
            metrics: v
                .get("metrics")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            exact: v
                .get("exact")?
                .as_obj()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect(),
        })
    }
}

/// Reads a result set written by `all`.
///
/// # Errors
///
/// The file cannot be read or a line is not a run record.
pub fn read_set(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(n, line)| {
            json::parse(line)
                .ok()
                .as_ref()
                .and_then(Record::from_value)
                .ok_or_else(|| format!("{}:{}: not a run record", path.display(), n + 1))
        })
        .collect()
}

/// Runs one workload as a child process; echoes its report and parses
/// the result line and `exact` block out of it.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let result = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number = |key: &str| {
        result
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{workload}: result line lacks `{key}`"))
    };
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload}: result line lacks `metrics`"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let exact = lines
        .iter()
        .filter_map(|l| l.strip_prefix("exact "))
        .filter_map(|l| l.split_once(" = "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(Record {
        workload: workload.to_string(),
        seed,
        trace,
        correct: matches!(result.get("correct"), Some(Value::Bool(true))),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        exact,
    })
}

/// Spread of `values`: distance between the quartiles as a share of the
/// median — the quantity the acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, median, q3) = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

/// End-to-end values of `metric` on `workload` across a result set.
pub fn values_of(set: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn summarize(set: &[Record]) -> bool {
    let mut steady = true;
    println!("\n== end-to-end summary: median [q1 .. q3] spread vs bound ==");
    for w in &spec::WORKLOADS {
        println!("{}", w.name);
        for m in &spec::END_TO_END {
            let values = values_of(set, w.name, m.name);
            if values.is_empty() || spec::alias_of(w.name, m.name).is_some() {
                continue;
            }
            let (q1, median, q3) = quartiles(&values);
            let s = spread(&values);
            // setup_s is exempt from the spread rule (only its median
            // is held), everything else must repeat within its bound.
            let wide = values.len() >= 4 && m.name != "setup_s" && s > m.bound;
            steady &= !wide;
            println!(
                "  {:<20} {:>14.6} [{:>14.6} .. {:>14.6}] {:<8} spread {:>6.2}% / bound {:>5.1}%{}  n={}",
                m.name,
                median,
                q1,
                q3,
                m.unit,
                s * 100.0,
                m.bound * 100.0,
                if wide { "  SPREAD EXCEEDS BOUND" } else { "" },
                values.len()
            );
        }
    }
    steady
}

/// `all`: every workload, `runs` end-to-end runs plus one traced run,
/// `sets` times over. Returns the process exit code.
pub fn run_all(args: &AllArgs) -> i32 {
    let mut sets: Vec<Vec<Record>> = vec![Vec::new(); args.sets];
    let mut bad = Vec::new();
    for w in &spec::WORKLOADS {
        for r in 0..=args.runs {
            // The last pass of each workload is the traced run.
            let trace = r == args.runs;
            let seed = args.seed + if trace { 0 } else { r as u64 };
            for set in &mut sets {
                match run_child(w.name, seed, args.seconds, trace) {
                    Ok(record) => {
                        if !record.correct || record.failed > 0.0 {
                            bad.push(format!(
                                "{} seed {seed}{}: {} of {} ops failed or the run was invalid",
                                w.name,
                                if trace { " (traced)" } else { "" },
                                record.failed,
                                record.attempted
                            ));
                        }
                        set.push(record);
                    }
                    Err(why) => bad.push(why),
                }
            }
        }
    }

    let mut steady = true;
    for (n, set) in sets.iter().enumerate() {
        // The process backend must change nothing but the clock.
        for mix in set.iter().filter(|r| r.workload == "serve_mix" && !r.trace) {
            let remote = set
                .iter()
                .find(|r| r.workload == "serve_remote" && !r.trace && r.seed == mix.seed);
            if let Some(remote) = remote {
                if remote.exact != mix.exact {
                    bad.push(format!(
                        "seed {}: serve_remote outputs differ from serve_mix ({:?} vs {:?})",
                        mix.seed, remote.exact, mix.exact
                    ));
                }
            }
        }
        steady &= summarize(set);
        let label = if sets.len() == 1 {
            args.label.clone()
        } else {
            format!("{}_{}", args.label, char::from(b'a' + n as u8))
        };
        let path = result_set_path(&label);
        match write_set(&path, set) {
            Ok(()) => println!("\nresult set: {}", path.display()),
            Err(e) => bad.push(format!("write {}: {e}", path.display())),
        }
    }
    let mut exit = 0;
    if let [first, second, ..] = sets.as_slice() {
        println!("\n== the first two sets against each other ==");
        exit = crate::compare::compare(first, second);
    }
    for why in &bad {
        println!("FAILED {why}");
    }
    if !steady {
        println!("NOTE at least one metric's run-to-run spread exceeds its bound on this host");
    }
    exit.max(i32::from(!bad.is_empty()))
}

/// `out/results_<label>.jsonl` under the benchmark directory.
pub fn result_set_path(label: &str) -> PathBuf {
    crate::host::out_dir().join(format!("results_{label}.jsonl"))
}

fn write_set(path: &Path, set: &[Record]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for record in set {
        writeln!(out, "{}", record.to_value().render())?;
    }
    out.flush()
}
