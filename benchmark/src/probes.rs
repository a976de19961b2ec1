//! Probes every traced run shares: the CPWL table build, the analytic
//! cost model against the event-driven array, and the bookkeeping that
//! fills in the per-layer metrics a workload's path does not cross.

use crate::spec;
use crate::stats::Samples;
use crate::trace::Recorder;
use crate::workloads::{array, sample, RunOutput, ONION_OPS};
use onesa_cpwl::ops::TableSet;
use onesa_sim::analytic;
use onesa_sim::array::SystolicArray;
use onesa_tensor::rng::Pcg32;
use std::collections::BTreeSet;
use std::time::Instant;

/// GEMM shapes the event-driven array simulates per traced run, spread
/// evenly over the workload's distinct shapes by size; it is ~10⁴×
/// slower than the closed form it checks.
const EVENT_SHAPES: usize = 6;

/// Operations per op class in the onion: [`ONION_OPS`] on a full-length
/// run, proportionally fewer on a short (smoke) one.
pub fn onion_ops(seconds: f64) -> usize {
    if seconds >= 10.0 {
        ONION_OPS
    } else {
        ((ONION_OPS as f64 * seconds / 10.0) as usize).clamp(24, ONION_OPS)
    }
}

/// Microseconds to build the CPWL table set at the paper's granularity
/// (every workload pays it in set-up).
pub fn table_build_us() -> f64 {
    sample(5, || {
        TableSet::for_granularity(0.25).expect("0.25 is valid")
    })
    .p50()
        * 1e6
}

/// Compares `analytic::gemm_breakdown` / `mhp_breakdown` — what
/// `op_cost`, admission and routing believe — with the cycles the
/// event-driven `SystolicArray` actually steps through, on
/// [`EVENT_SHAPES`] of the workload's own GEMM shapes and one MHP shape,
/// and sets the three `sim.*` comparison metrics.
pub fn sim_error(
    out: &mut RunOutput,
    gemm_shapes: &[(usize, usize, usize)],
    mhp_shape: (usize, usize),
    seed: u64,
) {
    let cfg = array();
    let mut rng = Pcg32::seed_with_stream(seed, 0x51E);
    let mut sim = SystolicArray::new(cfg.clone());
    let distinct: BTreeSet<(usize, (usize, usize, usize))> = gemm_shapes
        .iter()
        .map(|&(m, k, n)| (m * k * n, (m, k, n)))
        .collect();
    let mut errors = Samples::new();
    let mut event_cycles = 0u64;
    let mut host_s = 0.0;
    let mut lines = Vec::new();
    let distinct: Vec<_> = distinct.into_iter().collect();
    let picks = EVENT_SHAPES.min(distinct.len());
    for p in 0..picks {
        // Evenly spaced ranks, the smallest and the largest included.
        let rank = if picks > 1 {
            p * (distinct.len() - 1) / (picks - 1)
        } else {
            0
        };
        let (_, (m, k, n)) = distinct[rank];
        let (a, b) = (rng.randn(&[m, k], 1.0), rng.randn(&[k, n], 1.0));
        let t0 = Instant::now();
        let event = sim
            .gemm_full(&a, &b)
            .expect("shapes agree")
            .breakdown
            .total();
        host_s += t0.elapsed().as_secs_f64();
        event_cycles += event;
        let model = analytic::gemm_breakdown(&cfg, m, k, n).total();
        let err = (model as f64 - event as f64).abs() / event as f64;
        errors.push(err);
        lines.push(format!(
            "gemm {m}x{k}x{n}: analytic {model} vs event {event} ({:+.1}%)",
            (model as f64 / event as f64 - 1.0) * 100.0
        ));
    }
    let (m, n) = mhp_shape;
    let (x, kk, bb) = (
        rng.randn(&[m, n], 1.0),
        rng.randn(&[m, n], 1.0),
        rng.randn(&[m, n], 1.0),
    );
    let t0 = Instant::now();
    let event = sim
        .mhp_full(&x, &kk, &bb)
        .expect("same shape")
        .breakdown
        .total();
    host_s += t0.elapsed().as_secs_f64();
    event_cycles += event;
    let model = analytic::mhp_breakdown(&cfg, m, n).total();
    errors.push((model as f64 - event as f64).abs() / event as f64);
    lines.push(format!(
        "mhp {m}x{n}: analytic {model} vs event {event} ({:+.1}%)",
        (model as f64 / event as f64 - 1.0) * 100.0
    ));

    out.set("sim.analytic_vs_event_err_p50", errors.p50());
    out.set("sim.analytic_vs_event_err_max", errors.percentile(100.0));
    out.set("sim.event_cycles_per_host_s", event_cycles as f64 / host_s);
    out.note(format!(
        "  analytic vs event-driven cycles: {}",
        lines.join("; ")
    ));
}

/// `trace.overhead_frac`: the median cost of `op(i)` timed through an
/// enabled [`Recorder`] over the same through a disabled one, minus 1.
/// Every operation runs both ways back to back, alternating which goes
/// first, so neither side systematically inherits warmer caches.
pub fn trace_overhead<R>(ops: usize, mut op: impl FnMut(usize) -> R) -> f64 {
    let mut off = Recorder::new(false);
    let mut on = Recorder::new(true);
    let (mut off_s, mut on_s) = (Samples::new(), Samples::new());
    for i in 0..ops {
        for traced in [i % 2 == 0, i % 2 != 0] {
            let (rec, samples) = if traced {
                (&mut on, &mut on_s)
            } else {
                (&mut off, &mut off_s)
            };
            samples.push(rec.time(i as u64, "overhead", None, || op(i)).1);
        }
    }
    (on_s.p50() - off_s.p50()) / off_s.p50()
}

/// Sets every per-layer metric the run did not measure to 0 — the
/// layer (or shape class) is not on this workload's path, and the result
/// line must carry every per-layer metric on every workload — and holds
/// the run to `spec::PER_LAYER`'s `on` lists: a metric the spec says this
/// workload measures must have been measured, and no other.
pub fn zero_fill(out: &mut RunOutput, workload: &str) {
    for m in &spec::PER_LAYER {
        let listed = m.on.split_whitespace().any(|w| w == workload);
        let measured = out.metrics.contains_key(m.name);
        if listed != measured {
            out.problems.push(format!(
                "{}: spec.rs says {workload} {} it, the run {}",
                m.name,
                if listed {
                    "measures"
                } else {
                    "does not measure"
                },
                if measured { "did" } else { "did not" }
            ));
        }
        out.metrics.entry(m.name).or_insert(0.0);
    }
}
