//! Drives the benchmark binary end to end in `--smoke` mode (2 s per
//! run): every workload once end to end and once traced, through the
//! same command line the driver uses, then `compare`s the result set
//! with itself.

use onesa_benchmark::json::{self, Value};
use onesa_benchmark::{runner, spec};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_onesa-benchmark");

fn run(args: &[&str]) -> (i32, String) {
    let output = Command::new(EXE)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("benchmark binary starts");
    (
        output.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&output.stdout).into_owned()
            + &String::from_utf8_lossy(&output.stderr),
    )
}

#[test]
fn smoke_run_covers_every_workload_metric_and_span() {
    let (code, text) = run(&["all", "--smoke", "--label", "smoke_test"]);
    assert_eq!(code, 0, "`all --smoke` failed:\n{text}");

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let set_path = out_dir.join("results_smoke_test.jsonl");
    let set = runner::read_set(&set_path).expect("result set parses");
    assert_eq!(
        set.len(),
        2 * spec::WORKLOADS.len(),
        "one end-to-end and one traced run each"
    );
    for w in &spec::WORKLOADS {
        let e2e = set
            .iter()
            .find(|r| r.workload == w.name && !r.trace)
            .expect("end-to-end run recorded");
        assert!(
            e2e.correct && e2e.failed == 0.0 && e2e.attempted >= 1.0,
            "{}",
            w.name
        );
        let names: BTreeSet<&str> = e2e.metrics.keys().map(String::as_str).collect();
        let want: BTreeSet<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}: exactly the end-to-end metrics", w.name);
        for (name, value) in &e2e.metrics {
            assert!(
                *value > 0.0,
                "{}: {name} must never be 0, got {value}",
                w.name
            );
        }
        assert!(!e2e.exact.is_empty(), "{}: exact block printed", w.name);

        let traced = set
            .iter()
            .find(|r| r.workload == w.name && r.trace)
            .expect("traced run recorded");
        assert!(traced.correct && traced.failed == 0.0, "{}", w.name);
        let names: BTreeSet<&str> = traced.metrics.keys().map(String::as_str).collect();
        let want: BTreeSet<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want, "{}: exactly the per-layer metrics", w.name);

        // The trace file: every line a span, every non-root span's
        // parent present for the same op, and per op the self times
        // (span minus the span one level in) sum to the outermost span.
        let trace = std::fs::read_to_string(out_dir.join(format!("trace_{}.jsonl", w.name)))
            .expect("trace file written");
        let mut by_op: BTreeMap<u64, Vec<(String, Option<String>, f64)>> = BTreeMap::new();
        for line in trace.lines() {
            let span = json::parse(line).expect("span line parses");
            let num = |k: &str| span.get(k).and_then(Value::as_f64).expect("numeric field");
            let (start, end) = (num("start_ns"), num("end_ns"));
            assert!(end >= start);
            by_op.entry(num("op") as u64).or_default().push((
                span.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                span.get("parent")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                end - start,
            ));
        }
        assert!(!by_op.is_empty(), "{}: spans recorded", w.name);
        for (op, spans) in &by_op {
            let roots: Vec<_> = spans.iter().filter(|s| s.1.is_none()).collect();
            assert_eq!(roots.len(), 1, "{} op {op}: one outermost span", w.name);
            // Walk from the innermost level out along `parent`.
            let mut level = spans
                .iter()
                .find(|s| !spans.iter().any(|c| c.1.as_deref() == Some(s.0.as_str())))
                .expect("an innermost span");
            let (mut self_sum, mut inner) = (0.0, 0.0);
            loop {
                self_sum += level.2 - inner;
                inner = level.2;
                match &level.1 {
                    Some(parent) => {
                        level = spans.iter().find(|s| &s.0 == parent).unwrap_or_else(|| {
                            panic!("{} op {op}: parent {parent} recorded", w.name)
                        });
                    }
                    None => break,
                }
            }
            assert!(
                (self_sum - roots[0].2).abs() < 1e-3,
                "{} op {op}: self times sum to the outer span",
                w.name
            );
        }
    }

    // The process backend changes the clock and nothing else.
    let exact_of = |name: &str| {
        &set.iter()
            .find(|r| r.workload == name && !r.trace)
            .unwrap()
            .exact
    };
    assert_eq!(exact_of("serve_mix"), exact_of("serve_remote"));

    // Same code against itself: nothing may read `worse`.
    let set_arg = set_path.to_str().unwrap();
    let (code, text) = run(&["compare", set_arg, set_arg]);
    assert_eq!(code, 0, "{text}");
    assert!(!text.contains(" worse "), "{text}");
    assert!(text.contains("failed_frac"), "{text}");
}

/// The two committed ten-run sets are the same code measured twice: the
/// gate must pass on them, or it cannot tell a regression from the host.
#[test]
fn the_committed_baselines_agree_within_the_bounds() {
    let (code, text) = run(&["compare", "baseline/set_a.jsonl", "baseline/set_b.jsonl"]);
    assert_eq!(code, 0, "{text}");
    for verdict in [" worse ", " unresolved "] {
        assert!(!text.contains(verdict), "{text}");
    }
    assert!(text.contains(" 0 differ"), "{text}");
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &["--workload", "serve_mix", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "serve_mix",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "serve_mix",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["compare", "only-one.jsonl"],
        &["compare", "missing-a.jsonl", "missing-b.jsonl"],
    ] {
        let (code, text) = run(args);
        assert_ne!(code, 0, "{args:?} must fail");
        assert!(!text.contains("\"metrics\""), "{args:?} printed a result");
    }
}

#[test]
fn spec_subcommand_prints_the_committed_benchmark_json() {
    let (code, text) = run(&["spec"]);
    assert_eq!(code, 0);
    assert_eq!(text, spec::benchmark_json());
}
