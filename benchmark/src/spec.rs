//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics with the prediction of
//! what each should move. `BENCHMARK.json` at the repository root is
//! [`benchmark_json`] rendered (a unit test holds the two equal), the
//! report takes units from here, and `compare` takes bounds from here.

use crate::json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// One workload: its name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists and which layers it stresses or bypasses.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "infer_library",
        why: "whole CNN/BERT/GCN/pruned-GCN inferences called directly, closed loop: the paper's own use; bypasses core, so a serve or net change must not move it",
    },
    WorkloadSpec {
        name: "serve_mix",
        why: "in-process ServeEngine, stateless GEMM/nonlinear/CNN-program mix, Poisson-paced then at capacity: kernel-bound, and the like-for-like control of serve_remote",
    },
    WorkloadSpec {
        name: "serve_decode",
        why: "8 lockstep TinyCausalLm sessions with KV caches, one staged window per round: same serve and plan layers, tiny GEMMs, so host overhead per token is everything, kernels negligible",
    },
    WorkloadSpec {
        name: "serve_remote",
        why: "the serve_mix traffic through one worker process over a Unix socket: the only workload that touches core.net and plan.wire (full tensor frames and fingerprint refs at once)",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// The end-to-end metrics every workload reports with `--trace 0`.
///
/// Two of the issue's ten are not here. `failed_frac` is the result
/// line's own `failed` / `attempted` (bound 0, absolute): it is always 0
/// on a passing run, so it cannot be a ratio-bounded entry. The p90
/// latency is diagnostic (`core.serve.latency_p90_ms`, and printed by
/// every run): between two back-to-back ten-run sets of one commit it
/// moved by 25–33 % on all three serving workloads while p50 moved by
/// 6–17 %, and no bound the contract allows (at most 25 %) holds that.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttft_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "modeled_ops_s",
        unit: "1/s",
        better: Higher,
        // Exact on infer_library and serve_decode; on the mix workloads
        // the makespan follows how the capacity windows happened to
        // fill, and one ten-run set spread by 0.66 %.
        bound: 0.02,
    },
    EndToEnd {
        name: "modeled_uj_per_op",
        unit: "uJ",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "cpwl_max_abs_err",
        unit: "abs",
        better: Lower,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
];

/// The end-to-end metric that `metric` merely repeats on `workload`, if
/// any. Only `serve_decode` streams, so only there is the first output
/// (`ttft_p50_ms`) something other than the only output; the result line
/// must still carry every metric on every workload, so elsewhere the
/// value is `latency_p50_ms` again — and `compare` and the `all` summary
/// leave such rows out rather than count one measurement twice.
pub fn alias_of(workload: &str, metric: &str) -> Option<&'static str> {
    (metric == "ttft_p50_ms" && workload != "serve_decode").then_some("latency_p50_ms")
}

/// One metric of a single layer (no bound; read from the traced run).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix up to the last dot-separated module name
    /// is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads whose traced run measures it (0 elsewhere: the layer
    /// or shape class is not on that workload's path).
    pub on: &'static str,
}

/// One layer: its metrics' common prediction.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Module name.
    pub name: &'static str,
    /// Which end-to-end metric on which workload the layer should move
    /// — written down before measuring.
    pub moves: &'static str,
}

/// The layers, innermost first, each with its prediction.
pub const LAYERS: [Layer; 9] = [
    Layer {
        name: "tensor",
        moves: "throughput_ops_s and latency_p50_ms on serve_mix / serve_remote (matmul is most of a GEMM request); a small share on infer_library; none on serve_decode",
    },
    Layer {
        name: "cpwl",
        moves: "throughput_ops_s on infer_library (BERT softmax / GELU / LayerNorm) and the nonlinear quarter of serve_mix; table_build_us moves setup_s",
    },
    Layer {
        name: "sim",
        moves: "modeled_ops_s and modeled_uj_per_op on every workload when the cost function is corrected; no host-time metric",
    },
    Layer {
        name: "plan",
        moves: "plan.exec.* -> throughput_ops_s on infer_library and latency_p50_ms on serve_decode; plan.cache / plan.program -> serve_decode throughput; plan.opt -> setup_s; plan.wire.* -> serve_remote only",
    },
    Layer {
        name: "nn",
        moves: "latency_p50_ms on infer_library; nn.compile_us moves setup_s",
    },
    Layer {
        name: "core.batch",
        moves: "throughput_ops_s on serve_mix",
    },
    Layer {
        name: "core.serve",
        moves: "latency_p50_ms on serve_mix (paced: every hop and wake is exposed) and serve_decode, ttft_p50_ms and peak_rss_mb on serve_decode; only a little of serve_mix throughput_ops_s (the admitter overlaps the shard at capacity)",
    },
    Layer {
        name: "core.net",
        moves: "every host metric on serve_remote, nothing elsewhere; spawn_ms moves setup_s",
    },
    Layer {
        name: "loadgen",
        moves: "nothing: loadgen.* and trace.* state the validity of the run, not the speed of the program",
    },
];

const LIB: &str = "infer_library";
const MIX: &str = "serve_mix serve_remote";
const DEC: &str = "serve_decode";
const REM: &str = "serve_remote";
const SERVE: &str = "serve_mix serve_decode serve_remote";
const ALL: &str = "infer_library serve_mix serve_decode serve_remote";
const LIB_MIX: &str = "infer_library serve_mix serve_remote";

const fn pl(name: &'static str, unit: &'static str, better: Better, on: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
    }
}

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [PerLayer; 74] = [
    // tensor — the host kernels.
    pl("tensor.matmul_mix_us_p50", "us", Lower, MIX),
    pl("tensor.matmul_mix_gflops", "GFLOP/s", Higher, MIX),
    pl("tensor.matmul_decode_us_p50", "us", Lower, DEC),
    pl("tensor.matmul_im2col_us_p50", "us", Lower, LIB_MIX),
    pl("tensor.sparse_matmul_us_p50", "us", Lower, LIB),
    pl("tensor.mhp_us_p50", "us", Lower, ALL),
    pl("tensor.quant_us_p50", "us", Lower, ALL),
    pl("tensor.im2col_us_p50", "us", Lower, LIB_MIX),
    pl("tensor.macs_per_op", "MACs", Lower, ALL),
    pl("tensor.bytes_per_op", "bytes", Lower, ALL),
    // cpwl — IPF, table evaluation, table construction.
    pl("cpwl.ipf_us_p50", "us", Lower, ALL),
    pl("cpwl.eval_melem_s", "Melem/s", Higher, ALL),
    pl("cpwl.table_build_us", "us", Lower, ALL),
    // sim — the modeled clock and the cost call on the admission path.
    pl("sim.cost_us_p50", "us", Lower, ALL),
    pl("sim.modeled_cycles_per_op", "cycles", Lower, ALL),
    pl("sim.array_utilization", "ratio", Higher, ALL),
    pl("sim.analytic_vs_event_err_p50", "ratio", Lower, ALL),
    pl("sim.analytic_vs_event_err_max", "ratio", Lower, ALL),
    pl("sim.event_cycles_per_host_s", "1/s", Higher, ALL),
    // plan — executor, compile cache, program handling, optimizer, wire.
    pl("plan.exec.solo_us_p50", "us", Lower, ALL),
    pl("plan.exec.self_us_p50", "us", Lower, ALL),
    pl("plan.exec.self_us_per_node", "us", Lower, ALL),
    pl("plan.exec.groups_per_window", "ratio", Lower, SERVE),
    pl("plan.exec.coalesce_ratio", "ratio", Higher, SERVE),
    pl("plan.cache.hit_us_p50", "us", Lower, DEC),
    pl(
        "plan.cache.hit_ratio",
        "ratio",
        Higher,
        "infer_library serve_decode",
    ),
    pl("plan.program.clone_us_p50", "us", Lower, SERVE),
    pl("plan.program.validate_us_p50", "us", Lower, SERVE),
    pl("plan.opt.optimize_us", "us", Lower, ALL),
    pl("plan.wire.encode_program_us_p50", "us", Lower, REM),
    pl("plan.wire.decode_program_us_p50", "us", Lower, REM),
    pl("plan.wire.encode_tensor_mb_s", "MB/s", Higher, REM),
    pl("plan.wire.decode_tensor_mb_s", "MB/s", Higher, REM),
    // nn — the model wrappers.
    pl("nn.cnn_ms_p50", "ms", Lower, LIB),
    pl("nn.bert_ms_p50", "ms", Lower, LIB),
    pl("nn.gcn_ms_p50", "ms", Lower, LIB),
    pl("nn.gcn_pruned_ms_p50", "ms", Lower, LIB),
    pl("nn.wrapper_self_us_p50", "us", Lower, LIB),
    pl("nn.decode_step_direct_us_p50", "us", Lower, DEC),
    pl("nn.compile_us", "us", Lower, ALL),
    // core.batch — the synchronous batching engine.
    pl("core.batch.run_us_p50", "us", Lower, SERVE),
    pl("core.batch.self_us_p50", "us", Lower, SERVE),
    pl("core.batch.request_clone_us_p50", "us", Lower, SERVE),
    pl("core.batch.requests_per_group", "ratio", Higher, SERVE),
    // core.serve — admission, routing, sessions, tickets.
    pl("core.serve.submit_us_p50", "us", Lower, SERVE),
    pl("core.serve.queue_us_p50", "us", Lower, SERVE),
    pl("core.serve.queue_us_p90", "us", Lower, SERVE),
    pl("core.serve.self_us_p50", "us", Lower, SERVE),
    pl("core.serve.unloaded_ms_p50", "ms", Lower, SERVE),
    pl("core.serve.latency_p90_ms", "ms", Lower, SERVE),
    pl("core.serve.latency_p99_ms", "ms", Lower, SERVE),
    pl("core.serve.requests_per_window", "ratio", Higher, SERVE),
    pl("core.serve.shard_occupancy", "ratio", Higher, SERVE),
    pl("core.serve.peak_queue_depth", "count", Lower, SERVE),
    pl("core.serve.session_step_self_us_p50", "us", Lower, DEC),
    pl("core.serve.kv_bytes_per_step", "bytes", Lower, DEC),
    pl("core.serve.expired", "count", Lower, SERVE),
    pl("core.serve.degraded", "count", Lower, SERVE),
    // core.net — worker processes and the socket.
    pl("core.net.spawn_ms", "ms", Lower, REM),
    pl("core.net.ping_us_p50", "us", Lower, REM),
    pl("core.net.run_window_us_p50", "us", Lower, REM),
    pl("core.net.self_us_p50", "us", Lower, REM),
    pl("core.net.wire_bytes_per_op", "bytes", Lower, REM),
    pl("core.net.full_sends", "count", Lower, REM),
    pl("core.net.ref_sends", "count", Higher, REM),
    pl("core.net.cache_hit_ratio", "ratio", Higher, REM),
    pl("core.net.failovers", "count", Lower, REM),
    pl("core.net.wire_overhead_x", "ratio", Lower, REM),
    // loadgen / trace — validity of the run.
    pl("loadgen.sent", "count", Higher, ALL),
    pl("loadgen.completed", "count", Higher, ALL),
    pl("loadgen.lateness_p99_ms", "ms", Lower, MIX),
    pl("loadgen.backlog_at_end", "count", Lower, MIX),
    pl("trace.overhead_frac", "ratio", Lower, ALL),
    pl("trace.unloaded_over_paced_p50", "ratio", Higher, MIX),
];

/// Unit of metric `name` (end-to-end or per-layer).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The command the driver runs (it appends `--workload … --seed …
/// --seconds … --trace …`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let obj = |members: Vec<(&str, Value)>| {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    obj(vec![
        (
            "command",
            Value::Arr(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn the_tables_meet_the_benchmark_contract() {
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
            assert!(
                LAYERS
                    .iter()
                    .any(|l| m.name.starts_with(l.name) || m.name.starts_with("trace.")),
                "{} belongs to no layer",
                m.name
            );
            for w in m.on.split_whitespace() {
                assert!(WORKLOADS.iter().any(|s| s.name == w), "{}: {w}", m.name);
            }
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        for arg in COMMAND {
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
    }

    #[test]
    fn only_the_streaming_workload_has_a_ttft_of_its_own() {
        for w in &WORKLOADS {
            let alias = alias_of(w.name, "ttft_p50_ms");
            assert_eq!(alias.is_none(), w.name == "serve_decode", "{}", w.name);
            assert_eq!(alias_of(w.name, "latency_p50_ms"), None);
        }
    }

    #[test]
    fn the_committed_benchmark_json_is_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let doc = crate::json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
