//! Design-space exploration: sweep array dimension and MAC count, run
//! the BERT-base workload on every design, and print the
//! latency/power/efficiency landscape with its Pareto frontier — the
//! workflow behind the paper's Fig 10 and the "16 MACs is the sweet
//! spot" conclusion.
//!
//! ```sh
//! cargo run --release --example design_space_exploration
//! ```

use onesa_core::OneSa;
use onesa_nn::workloads;
use onesa_sim::ArrayConfig;

fn main() {
    let w = workloads::bert_base(64);
    println!(
        "workload: {} ({:.2} GMACs)\n",
        w.name,
        w.total_macs() as f64 / 1e9
    );
    println!(
        "{:<8}{:<6}{:>12}{:>10}{:>10}{:>12}{:>9}",
        "PEs", "MACs", "latency ms", "GOPS", "power W", "GOPS/W", "pareto"
    );

    let mut rows = Vec::new();
    for dim in [4usize, 8, 16] {
        for macs in [4usize, 8, 16, 32] {
            let engine = OneSa::new(ArrayConfig::new(dim, macs));
            let r = engine.run_workload(&w);
            rows.push((
                dim * dim,
                macs,
                r.latency_ms(),
                r.gops(),
                r.power_w,
                r.gops_per_watt(),
            ));
        }
    }
    let pareto: Vec<bool> = rows
        .iter()
        .map(|&(_, _, l, _, p, _)| !rows.iter().any(|&(_, _, l2, _, p2, _)| l2 < l && p2 < p))
        .collect();
    let mut best: Option<(usize, usize, f64)> = None;
    for (&(pes, macs, l, gops, p, eff), &is_pareto) in rows.iter().zip(&pareto) {
        println!(
            "{:<8}{:<6}{:>12.2}{:>10.1}{:>10.2}{:>12.2}{:>9}",
            pes,
            macs,
            l,
            gops,
            p,
            eff,
            if is_pareto { "*" } else { "" }
        );
        if best.map(|(_, _, e)| eff > e).unwrap_or(true) {
            best = Some((pes, macs, eff));
        }
    }
    if let Some((pes, macs, eff)) = best {
        println!(
            "\nmost efficient design: {pes} PEs × {macs} MACs at {eff:.2} GOPS/W \
             (the paper picks 64 PEs × 16 MACs)"
        );
    }
}
