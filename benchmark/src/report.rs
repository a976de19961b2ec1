//! Printing one run: every metric by name with its unit, the `exact`
//! block, and — last — the one-line JSON result the driver parses.

use crate::json::Value;
use crate::spec;
use crate::workloads::{RunArgs, RunOutput};

/// The result object: exactly `correct`, `attempted`, `failed` and
/// `metrics` (each `{value, unit}`).
pub fn result_value(out: &RunOutput) -> Value {
    let metrics = out
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).expect("RunOutput::set checked the name");
            (
                name.to_string(),
                Value::Obj(vec![
                    ("value".to_string(), Value::Num(*value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(out.correct())),
        (
            "attempted".to_string(),
            Value::Num(out.attempted.max(1) as f64),
        ),
        ("failed".to_string(), Value::Num(out.failed as f64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
}

/// Prints the run to stdout; the JSON result is the last line.
pub fn print_run(args: &RunArgs, out: &mut RunOutput) {
    // The metric set this mode promises, in table order.
    let order: Vec<&'static str> = if args.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in order.iter().filter(|n| !out.metrics.contains_key(*n)) {
        out.problems
            .push(format!("metric `{name}` was not reported"));
    }
    println!(
        "== {} seed {} {:.0} s {} ==",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace {
            "traced (per-layer)"
        } else {
            "end to end"
        }
    );
    print!("{}", out.report);
    if args.trace {
        println!("  predictions (written before measuring):");
        for layer in &spec::LAYERS {
            println!("    {:<11} should move {}", layer.name, layer.moves);
        }
    }
    for name in order {
        if let Some(value) = out.metrics.get(name) {
            let unit = spec::unit_of(name).expect("known metric");
            println!("  {name:<40} {value:>16.6} {unit}");
        }
    }
    println!(
        "  {:<40} {:>16.6} ratio   ({} failed of {} attempted)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (key, value) in &out.exact {
        println!("exact {key} = {value}");
    }
    for problem in &out.problems {
        println!("PROBLEM {problem}");
        eprintln!("onesa-benchmark: {}: {problem}", args.workload.name());
    }
    println!("{}", result_value(out).render());
}
