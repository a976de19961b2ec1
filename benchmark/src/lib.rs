//! The ONE-SA reproduction's system benchmark.
//!
//! Four workloads (`infer_library`, `serve_mix`, `serve_decode`,
//! `serve_remote`), eight ratio-bounded end-to-end metrics plus the
//! absolute `failed_frac`, and a per-layer "onion" trace — all measured
//! **from outside** the program, through its public API only. See
//! `benchmark/README.md` for how to run it and how to read the numbers;
//! `spec.rs` is the contract (`BENCHMARK.json` is rendered from it).
//!
//! ```text
//! onesa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! onesa-benchmark all [--runs N] [--sets N] [--seconds S] [--seed N] [--label L] [--smoke]
//! onesa-benchmark compare <parent.jsonl> <change.jsonl>
//! onesa-benchmark spec
//! ```

// `host::pin_to_one_cpu` makes the two foreign calls safe Rust has no
// operation for; nothing else may.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod kernels;
pub mod loadgen;
pub mod probes;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::{RunArgs, RunOutput, Workload};

/// Seconds per run under `--smoke`: long enough for every gated
/// percentile to have its ten samples beyond, short enough for a test.
pub const SMOKE_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  onesa-benchmark --workload <infer_library|serve_mix|serve_decode|serve_remote> --seed <n> --seconds <s> --trace <0|1>
  onesa-benchmark all [--runs N] [--sets N] [--seconds S] [--seed N] [--label L] [--smoke]
  onesa-benchmark compare <parent.jsonl> <change.jsonl>
  onesa-benchmark spec";

/// Runs one workload in this process, on one CPU (see
/// [`host::pin_to_one_cpu`]; call it from the main thread before any
/// other exists), and writes its trace file when traced.
pub fn run_workload(args: RunArgs) -> RunOutput {
    host::pin_to_one_cpu();
    if !args.trace {
        return match args.workload {
            Workload::InferLibrary => workloads::infer_library::run(args),
            Workload::ServeMix | Workload::ServeRemote => workloads::serve_mix::run(args),
            Workload::ServeDecode => workloads::serve_decode::run(args),
        };
    }
    let (mut out, recorder) = match args.workload {
        Workload::InferLibrary => workloads::infer_library::run_traced(args),
        Workload::ServeMix | Workload::ServeRemote => workloads::serve_mix::run_traced(args),
        Workload::ServeDecode => workloads::serve_decode::run_traced(args),
    };
    let path = host::out_dir().join(format!("trace_{}.jsonl", args.workload.name()));
    match recorder.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "  {} spans written to {}",
            recorder.spans().len(),
            path.display()
        )),
        Err(e) => out.problems.push(format!("write {}: {e}", path.display())),
    }
    out
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let need = |flag: &str| value_of(args, flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(RunArgs {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

fn parse_all(args: &[String]) -> Result<runner::AllArgs, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    let number = |flag: &str, default: f64| -> Result<f64, String> {
        match value_of(args, flag) {
            Some(v) => v.parse().map_err(|_| format!("{flag} takes a number")),
            None => Ok(default),
        }
    };
    let seconds = number(
        "--seconds",
        if smoke {
            SMOKE_SECONDS
        } else {
            spec::RUN_SECONDS as f64
        },
    )?;
    let runs = number("--runs", 1.0)? as usize;
    let sets = number("--sets", 1.0)? as usize;
    if runs == 0 || runs > 100 || !(1..=4).contains(&sets) || !(seconds > 0.0 && seconds <= 3600.0)
    {
        return Err("--runs must be 1..=100, --sets 1..=4 and --seconds in (0, 3600]".into());
    }
    Ok(runner::AllArgs {
        runs,
        sets,
        seconds,
        seed: number("--seed", 1.0)? as u64,
        label: value_of(args, "--label")
            .unwrap_or(if smoke { "smoke" } else { "local" })
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
            .collect(),
    })
}

/// The command line (without the program name); returns the exit code.
pub fn main_with(args: &[String]) -> i32 {
    let fail = |why: String| {
        eprintln!("onesa-benchmark: {why}\n{USAGE}");
        2
    };
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            0
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(parent), Some(change)) => {
                match compare::compare_files(parent.as_ref(), change.as_ref()) {
                    Ok(code) => code,
                    Err(why) => fail(why),
                }
            }
            _ => fail("compare takes two result sets".into()),
        },
        Some("all") => match parse_all(&args[1..]) {
            Ok(all) => runner::run_all(&all),
            Err(why) => fail(why),
        },
        Some(_) => match parse_run(args) {
            Ok(run) => {
                let mut out = run_workload(run);
                report::print_run(&run, &mut out);
                0
            }
            Err(why) => fail(why),
        },
        None => fail("no arguments".into()),
    }
}
