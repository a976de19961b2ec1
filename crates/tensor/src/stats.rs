//! Error metrics and small statistics helpers shared by the accuracy
//! experiments and the approximation-quality analyses.

/// Maximum absolute elementwise difference between two equally-sized
/// slices (`0` when either slice is empty).
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

/// Root-mean-square elementwise difference (`0` when empty).
pub fn rms_diff(a: &[f32], b: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let sq: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64) * ((x - y) as f64))
        .sum();
    ((sq / a.len() as f64) as f32).sqrt()
}

/// Index of the maximum element (`None` for an empty slice; ties resolve
/// to the first maximum).
pub fn argmax(xs: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in xs.iter().enumerate() {
        match best {
            Some((_, bx)) if bx >= x => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Pearson correlation coefficient between two equal-length slices
/// (`0` for degenerate inputs), used for the STS-B-style regression task.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    if n < 2 {
        return 0.0;
    }
    let ma = a[..n].iter().sum::<f32>() / n as f32;
    let mb = b[..n].iter().sum::<f32>() / n as f32;
    let mut cov = 0.0f64;
    let mut va = 0.0f64;
    let mut vb = 0.0f64;
    for i in 0..n {
        let da = (a[i] - ma) as f64;
        let db = (b[i] - mb) as f64;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    (cov / (va.sqrt() * vb.sqrt())) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffs() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.0, 1.0];
        assert_eq!(max_abs_diff(&a, &b), 2.0);
        let rms = rms_diff(&a, &b);
        assert!((rms - ((0.25 + 4.0) / 3.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
        assert_eq!(rms_diff(&[], &[]), 0.0);
    }

    #[test]
    fn argmax_ties_and_empty() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[-5.0]), Some(0));
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-6);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-6);
        assert_eq!(pearson(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }
}
