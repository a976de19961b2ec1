//! `compare A B`: two result sets (parent, change) against the bounds
//! the benchmark fixed — one row per end-to-end metric × workload.
//!
//! Verdicts, by the rule the benchmark is accepted under:
//!
//! * `worse` — the change's median is worse than the parent's by more
//!   than the metric's bound (for `failed_frac`: any failure at all);
//! * `unresolved` — a side's run-to-run spread (quartile distance over
//!   median) is wider than the bound, so the medians cannot carry a
//!   verdict — unless every run of the change beats every run of the
//!   parent, which no spread can explain away;
//! * `better` — the median improved by more than the parent's own
//!   spread;
//! * `within` — anything else.
//!
//! A metric that only repeats another on a workload (`spec::alias_of`)
//! gets no row there: it is not a second piece of evidence.
//!
//! The `exact` blocks of runs with the same workload and seed must be
//! byte-identical; a difference is reported and fails the comparison.

use crate::runner::{read_set, spread, values_of, Record};
use crate::spec::{self, Better};
use crate::stats::quartiles;
use std::path::Path;

/// Verdict of one metric × workload row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the parent's own spread.
    Better,
    /// No regression beyond the bound.
    Within,
    /// Regressed beyond the bound.
    Worse,
    /// Run-to-run spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the rule to one metric's values on both sides.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    // Orient so that larger = worse.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (_, pm, _) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    let worsening = if pm == 0.0 {
        0.0
    } else {
        sign * (cm - pm) / pm.abs()
    };
    let change_always_wins = change
        .iter()
        .all(|c| parent.iter().all(|p| sign * c < sign * p));
    let noisy = spread(parent) > bound || spread(change) > bound;
    if noisy {
        return if change_always_wins {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > spread(parent) && worsening < 0.0 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn failed_frac(set: &[Record], workload: &str) -> f64 {
    let (failed, attempted) = set
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

/// Prints the comparison; returns the process exit code (non-zero on a
/// `worse` row, a failed operation, or an `exact` mismatch).
pub fn compare(parent: &[Record], change: &[Record]) -> i32 {
    let mut exit = 0;
    println!(
        "{:<14} {:<20} {:<10} {:>13} {:>13} {:>13} {:>13} {:>8} {:>7}",
        "workload",
        "metric",
        "verdict",
        "parent med",
        "parent iqr",
        "change med",
        "change iqr",
        "change%",
        "bound%"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (p, c) = (
                values_of(parent, w.name, m.name),
                values_of(change, w.name, m.name),
            );
            if p.is_empty() || c.is_empty() || spec::alias_of(w.name, m.name).is_some() {
                continue;
            }
            let verdict = judge(&p, &c, m.better, m.bound);
            if verdict == Verdict::Worse {
                exit = 1;
            }
            let (pq1, pm, pq3) = quartiles(&p);
            let (cq1, cm, cq3) = quartiles(&c);
            println!(
                "{:<14} {:<20} {:<10} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>+8.2} {:>7.1}",
                w.name,
                m.name,
                verdict.label(),
                pm,
                pq3 - pq1,
                cm,
                cq3 - cq1,
                if pm == 0.0 {
                    0.0
                } else {
                    (cm - pm) / pm * 100.0
                },
                m.bound * 100.0
            );
        }
        // failed_frac: bound 0, absolute.
        let (pf, cf) = (failed_frac(parent, w.name), failed_frac(change, w.name));
        let verdict = if cf > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Within
        };
        if verdict == Verdict::Worse {
            exit = 1;
        }
        println!(
            "{:<14} {:<20} {:<10} {:>13.6} {:>13} {:>13.6} {:>13} {:>8} {:>7.1}",
            w.name,
            "failed_frac",
            verdict.label(),
            pf,
            "-",
            cf,
            "-",
            "-",
            0.0
        );
    }

    let (mut compared, mut differing) = (0, 0);
    for p in parent {
        let twin = change
            .iter()
            .find(|c| c.workload == p.workload && c.seed == p.seed && c.trace == p.trace);
        if let Some(c) = twin {
            compared += 1;
            if c.exact != p.exact {
                exit = 1;
                differing += 1;
                println!(
                    "EXACT DIFFERS {} seed {}: parent {:?} change {:?}",
                    p.workload, p.seed, p.exact, c.exact
                );
            }
        }
    }
    println!("exact blocks: {compared} same-seed run pairs compared, {differing} differ");
    exit
}

/// Loads both sets and compares them.
///
/// # Errors
///
/// A result set that cannot be read.
pub fn compare_files(parent: &Path, change: &Path) -> Result<i32, String> {
    Ok(compare(&read_set(parent)?, &read_set(change)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_verdicts() {
        let steady = |centre: f64| -> Vec<f64> {
            (0..10)
                .map(|i| centre * (1.0 + 0.002 * f64::from(i - 5)))
                .collect()
        };
        // 20% slower on a lower-is-better metric with a 10% bound.
        assert_eq!(
            judge(&steady(1.0), &steady(1.2), Better::Lower, 0.1),
            Verdict::Worse
        );
        // 5% slower: inside the bound.
        assert_eq!(
            judge(&steady(1.0), &steady(1.05), Better::Lower, 0.1),
            Verdict::Within
        );
        // 20% more throughput on a higher-is-better metric.
        assert_eq!(
            judge(&steady(100.0), &steady(120.0), Better::Higher, 0.1),
            Verdict::Better
        );
        // ... and 20% less is a regression.
        assert_eq!(
            judge(&steady(100.0), &steady(80.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        // Same code twice.
        assert_eq!(
            judge(&steady(1.0), &steady(1.0), Better::Lower, 0.1),
            Verdict::Within
        );

        // A side whose quartiles are 40% of its median apart cannot
        // resolve a 10% bound...
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.08 * f64::from(i)).collect();
        assert_eq!(
            judge(&noisy, &steady(1.3), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every parent run.
        assert_eq!(
            judge(&noisy, &steady(0.5), Better::Lower, 0.1),
            Verdict::Better
        );
    }
}
