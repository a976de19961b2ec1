//! Approximation-quality analytics for CPWL tables.
//!
//! The paper's Table III sweeps granularity from 0.1 to 1.0 and observes
//! accuracy decline; these helpers quantify the underlying scalar
//! approximation error so the end-to-end results can be sanity-checked
//! against first principles (chord error of a C² function is `≈ M₂·g²/8`).

use crate::PwlTable;

/// Scalar approximation error statistics over a sampling of the range.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ApproxError {
    /// Largest absolute deviation observed.
    pub max_abs: f32,
    /// Mean absolute deviation.
    pub mean_abs: f32,
    /// Root-mean-square deviation.
    pub rms: f32,
}

/// Measures the approximation error of `table` against its exact function
/// with `samples` uniformly spaced probes across the table range.
///
/// Sampling stays strictly inside the range: capping behaviour outside the
/// range is intentional extrapolation, measured separately by
/// [`capped_error`].
pub fn measure(table: &PwlTable, samples: usize) -> ApproxError {
    let (lo, hi) = table.range();
    let n = samples.max(2);
    let mut max_abs = 0.0f32;
    let mut sum_abs = 0.0f64;
    let mut sum_sq = 0.0f64;
    for i in 0..n {
        // Probe strictly inside [lo, hi] so the final point is not capped.
        let x = lo + (hi - lo) * (i as f32 + 0.5) / n as f32;
        let e = (table.eval(x) - table.func().eval(x)).abs();
        max_abs = max_abs.max(e);
        sum_abs += e as f64;
        sum_sq += (e as f64) * (e as f64);
    }
    ApproxError {
        max_abs,
        mean_abs: (sum_abs / n as f64) as f32,
        rms: (sum_sq / n as f64).sqrt() as f32,
    }
}

/// Measures the error of the capped extrapolation over `[hi, hi+span]`
/// and `[lo-span, lo]`, the regions where the boundary chords take over.
pub fn capped_error(table: &PwlTable, span: f32, samples: usize) -> ApproxError {
    let (lo, hi) = table.range();
    let n = samples.max(2);
    let mut max_abs = 0.0f32;
    let mut sum_abs = 0.0f64;
    let mut sum_sq = 0.0f64;
    let mut probe = |x: f32| {
        let exact = table.func().eval(x);
        if !exact.is_finite() {
            return;
        }
        let e = (table.eval(x) - exact).abs();
        max_abs = max_abs.max(e);
        sum_abs += e as f64;
        sum_sq += (e as f64) * (e as f64);
    };
    for i in 0..n {
        let f = (i as f32 + 0.5) / n as f32;
        probe(hi + span * f);
        probe(lo - span * f);
    }
    ApproxError {
        max_abs,
        mean_abs: (sum_abs / (2 * n) as f64) as f32,
        rms: (sum_sq / (2 * n) as f64).sqrt() as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NonlinearFn;

    #[test]
    fn error_grows_with_granularity() {
        let sweep: Vec<(f32, ApproxError)> = [0.1, 0.25, 0.5, 1.0]
            .into_iter()
            .map(|g| {
                let table = PwlTable::builder(NonlinearFn::Gelu)
                    .granularity(g)
                    .build()
                    .unwrap();
                (g, measure(&table, 2000))
            })
            .collect();
        for w in sweep.windows(2) {
            assert!(
                w[0].1.max_abs <= w[1].1.max_abs + 1e-6,
                "{:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn chord_error_bound_holds_for_gelu() {
        // |f''| of GELU is bounded by ~1.13; chord error ≤ M2 g^2 / 8.
        let g = 0.25f32;
        let table = PwlTable::builder(NonlinearFn::Gelu)
            .granularity(g)
            .build()
            .unwrap();
        let err = measure(&table, 4000);
        let bound = 1.2 * g * g / 8.0;
        assert!(err.max_abs <= bound, "{} > {bound}", err.max_abs);
    }

    #[test]
    fn capped_error_small_for_saturating_functions() {
        let table = PwlTable::builder(NonlinearFn::Tanh)
            .granularity(0.25)
            .build()
            .unwrap();
        let e = capped_error(&table, 8.0, 256);
        // tanh saturates; the boundary chord is nearly flat at ±1.
        assert!(e.max_abs < 0.05, "{e:?}");
    }

    #[test]
    fn relu_error_zero() {
        let table = PwlTable::builder(NonlinearFn::Relu)
            .granularity(0.5)
            .build()
            .unwrap();
        let e = measure(&table, 1000);
        assert!(e.max_abs < 1e-6);
        let ce = capped_error(&table, 4.0, 100);
        assert!(ce.max_abs < 1e-6);
    }

    #[test]
    fn stats_are_ordered() {
        let table = PwlTable::builder(NonlinearFn::Exp)
            .granularity(0.5)
            .build()
            .unwrap();
        let e = measure(&table, 1000);
        assert!(e.mean_abs <= e.rms + 1e-9);
        assert!(e.rms <= e.max_abs + 1e-9);
    }
}
