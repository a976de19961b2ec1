//! Small exact-interpolation helper used to pin the array-level overhead
//! model to the three published design points.

/// A quadratic `y = a + b·x + c·x²` through three points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quadratic {
    /// Constant term.
    pub(crate) a: f64,
    /// Linear coefficient.
    pub(crate) b: f64,
    /// Quadratic coefficient.
    pub(crate) c: f64,
}

impl Quadratic {
    /// Exact interpolation through three points with distinct abscissae.
    ///
    /// # Panics
    ///
    /// Panics if two abscissae coincide.
    pub(crate) fn through(p1: (f64, f64), p2: (f64, f64), p3: (f64, f64)) -> Self {
        let (x1, y1) = p1;
        let (x2, y2) = p2;
        let (x3, y3) = p3;
        assert!(
            x1 != x2 && x2 != x3 && x1 != x3,
            "abscissae must be distinct"
        );
        // Divided differences (Newton form), expanded to monomials.
        let d1 = (y2 - y1) / (x2 - x1);
        let d2 = ((y3 - y2) / (x3 - x2) - d1) / (x3 - x1);
        // y = y1 + d1 (x - x1) + d2 (x - x1)(x - x2)
        let a = y1 - d1 * x1 + d2 * x1 * x2;
        let b = d1 - d2 * (x1 + x2);
        let c = d2;
        Quadratic { a, b, c }
    }

    /// Evaluates the polynomial.
    pub(crate) fn eval(&self, x: f64) -> f64 {
        self.a + self.b * x + self.c * x * x
    }

    /// Evaluates, clamped below at zero and rounded to the nearest
    /// integer — resource counts cannot be negative.
    pub(crate) fn eval_count(&self, x: f64) -> u64 {
        self.eval(x).max(0.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_through_anchor_points() {
        let q = Quadratic::through((4.0, 454.0), (8.0, 758.0), (16.0, 1110.0));
        assert!((q.eval(4.0) - 454.0).abs() < 1e-6);
        assert!((q.eval(8.0) - 758.0).abs() < 1e-6);
        assert!((q.eval(16.0) - 1110.0).abs() < 1e-6);
    }

    #[test]
    fn recovers_known_polynomial() {
        // y = 2 + 3x + 0.5x²
        let f = |x: f64| 2.0 + 3.0 * x + 0.5 * x * x;
        let q = Quadratic::through((1.0, f(1.0)), (2.0, f(2.0)), (5.0, f(5.0)));
        assert!((q.a - 2.0).abs() < 1e-9);
        assert!((q.b - 3.0).abs() < 1e-9);
        assert!((q.c - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eval_count_clamps_and_rounds() {
        let q = Quadratic {
            a: -10.0,
            b: 0.0,
            c: 0.0,
        };
        assert_eq!(q.eval_count(1.0), 0);
        let q = Quadratic {
            a: 2.4,
            b: 0.0,
            c: 0.0,
        };
        assert_eq!(q.eval_count(1.0), 2);
    }

    #[test]
    #[should_panic]
    fn duplicate_abscissae_panic() {
        let _ = Quadratic::through((1.0, 1.0), (1.0, 2.0), (3.0, 3.0));
    }
}
