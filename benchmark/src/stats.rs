//! Order statistics over timing samples, and the FNV-1a checksum the
//! `exact` block uses.

/// Samples of one timed quantity (seconds, unless the caller says
/// otherwise), kept in recording order; a percentile sorts a copy.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Appends every sample of `other`, in order.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The samples in recording order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// Nearest-rank percentile, `q` in `0..=100` (0.0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
        let n = sorted.len();
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// A percentile that is only reported when the sample supports it:
    /// at least ten samples must lie beyond it (so p50 needs 20
    /// samples, p90 needs 100, p99 needs 1000). A tail estimated from
    /// fewer is one slow request, not a percentile.
    ///
    /// # Errors
    ///
    /// Names the shortfall, so a run that cannot support a gated
    /// percentile fails instead of printing noise.
    pub fn gated_percentile(&self, q: f64) -> Result<f64, String> {
        if supports(self.len(), q) {
            Ok(self.percentile(q))
        } else {
            Err(format!(
                "p{q} needs at least ten samples beyond it; have {} samples",
                self.len()
            ))
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

/// Whether `n` samples leave at least ten beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    // Samples strictly beyond the nearest-rank position.
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    n >= rank + 10
}

/// Median and quartiles `(q1, median, q3)` by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, which is
/// what the benchmark's acceptance rule is written against.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, linearly interpolated
        // between its neighbours (extrapolated past the ends for tiny
        // n, exactly as Python does).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (at(1), at(2), at(3))
}

/// FNV-1a over a stream of 32-bit words — the output checksum two
/// commits (or two backends) compare byte for byte.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice of floats in, by bit pattern.
    pub fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// The checksum so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Samples = (1..=100).map(f64::from).collect();
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn gated_percentile_honours_ten_samples_beyond() {
        // p50 of 19 samples leaves 9 beyond the median: refused.
        let mut s: Samples = (0..19).map(f64::from).collect();
        assert!(s.gated_percentile(50.0).is_err());
        s.push(19.0);
        assert_eq!(s.gated_percentile(50.0), Ok(9.0));
        // p90 needs 100, p99 needs 1000.
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn fnv_distinguishes_bit_patterns() {
        let mut a = Fnv::default();
        a.floats(&[0.0, 1.0]);
        let mut b = Fnv::default();
        b.floats(&[-0.0, 1.0]);
        assert_ne!(a.finish(), b.finish());
    }
}
