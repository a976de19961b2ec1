//! The library of nonlinear scalar functions the paper's networks need.
//!
//! Each variant knows its exact reference implementation and a sensible
//! default approximation range. The ranges are chosen so that the capped
//! linear extension beyond the range keeps behaving like the function's
//! asymptote (e.g. GELU's last chord has slope ≈ 1 and intercept ≈ 0, so
//! capping extrapolates the identity — exactly the behaviour the paper's
//! "capped" qualifier relies on).

/// A nonlinear scalar function that CPWL can tabulate.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum NonlinearFn {
    /// Gaussian Error Linear Unit, `x·Φ(x)` (exact erf form).
    Gelu,
    /// The error function `erf(x)`.
    Erf,
    /// Natural exponential `e^x`.
    Exp,
    /// Logistic sigmoid `1/(1+e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// SiLU / swish, `x·sigmoid(x)`.
    Silu,
    /// Softplus `ln(1+e^x)`.
    Softplus,
    /// Mish, `x·tanh(softplus(x))`.
    Mish,
    /// Exponential linear unit with slope parameter `alpha`.
    Elu(f32),
    /// Leaky ReLU with negative slope.
    LeakyRelu(f32),
    /// Rectified linear unit (piecewise linear already; included to show
    /// CPWL reproduces it exactly at any granularity).
    Relu,
    /// Square root (domain `x ≥ 0`).
    Sqrt,
    /// Reciprocal square root `1/√x` (domain `x > 0`), used by the
    /// layer-norm lowering.
    Rsqrt,
    /// Reciprocal `1/x` (domain `x > 0`), used by the softmax lowering.
    Reciprocal,
    /// Natural logarithm (domain `x > 0`).
    Ln,
    /// Square `x²`, used by the variance step of layer norm.
    Square,
}

impl NonlinearFn {
    /// Exact value of the function at `x` (the reference the chords are
    /// drawn against).
    pub fn eval(&self, x: f32) -> f32 {
        match *self {
            NonlinearFn::Gelu => 0.5 * x * (1.0 + erf(x / std::f32::consts::SQRT_2)),
            NonlinearFn::Erf => erf(x),
            NonlinearFn::Exp => x.exp(),
            NonlinearFn::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            NonlinearFn::Tanh => x.tanh(),
            NonlinearFn::Silu => x / (1.0 + (-x).exp()),
            NonlinearFn::Softplus => {
                // Numerically-stable ln(1+e^x).
                if x > 20.0 {
                    x
                } else {
                    x.exp().ln_1p()
                }
            }
            NonlinearFn::Mish => {
                let sp = if x > 20.0 { x } else { x.exp().ln_1p() };
                x * sp.tanh()
            }
            NonlinearFn::Elu(alpha) => {
                if x >= 0.0 {
                    x
                } else {
                    alpha * (x.exp() - 1.0)
                }
            }
            NonlinearFn::LeakyRelu(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            NonlinearFn::Relu => x.max(0.0),
            NonlinearFn::Sqrt => x.max(0.0).sqrt(),
            NonlinearFn::Rsqrt => 1.0 / x.sqrt(),
            NonlinearFn::Reciprocal => 1.0 / x,
            NonlinearFn::Ln => x.ln(),
            NonlinearFn::Square => x * x,
        }
    }

    /// Default capped approximation range `[lo, hi]` for the function.
    ///
    /// Outside the range the boundary chord extrapolates; the defaults are
    /// chosen so that extrapolation matches the asymptote (identity for
    /// GELU/SiLU above, zero below; saturation for sigmoid/tanh; …).
    pub(crate) fn default_range(&self) -> (f32, f32) {
        match *self {
            NonlinearFn::Gelu | NonlinearFn::Silu | NonlinearFn::Mish => (-4.0, 4.0),
            NonlinearFn::Erf | NonlinearFn::Tanh => (-4.0, 4.0),
            NonlinearFn::Exp => (-8.0, 0.0),
            NonlinearFn::Sigmoid => (-8.0, 8.0),
            NonlinearFn::Softplus => (-8.0, 8.0),
            NonlinearFn::Elu(_) => (-8.0, 0.0),
            NonlinearFn::LeakyRelu(_) | NonlinearFn::Relu => (-4.0, 4.0),
            NonlinearFn::Sqrt => (0.0, 16.0),
            NonlinearFn::Rsqrt => (0.25, 16.0),
            NonlinearFn::Reciprocal => (0.5, 64.0),
            NonlinearFn::Ln => (0.25, 16.0),
            NonlinearFn::Square => (-8.0, 8.0),
        }
    }

    /// Short stable name (used in reports and table caches).
    pub(crate) fn name(&self) -> &'static str {
        match *self {
            NonlinearFn::Gelu => "gelu",
            NonlinearFn::Erf => "erf",
            NonlinearFn::Exp => "exp",
            NonlinearFn::Sigmoid => "sigmoid",
            NonlinearFn::Tanh => "tanh",
            NonlinearFn::Silu => "silu",
            NonlinearFn::Softplus => "softplus",
            NonlinearFn::Mish => "mish",
            NonlinearFn::Elu(_) => "elu",
            NonlinearFn::LeakyRelu(_) => "leaky_relu",
            NonlinearFn::Relu => "relu",
            NonlinearFn::Sqrt => "sqrt",
            NonlinearFn::Rsqrt => "rsqrt",
            NonlinearFn::Reciprocal => "reciprocal",
            NonlinearFn::Ln => "ln",
            NonlinearFn::Square => "square",
        }
    }
}

impl std::fmt::Display for NonlinearFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (|error| < 1.5e-7, far below INT16 resolution).
pub(crate) fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_6
            + t * (-0.284_496_72 + t * (1.421_413_8 + t * (-1.453_152_1 + t * 1.061_405_4))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::FRAC_2_SQRT_PI;

    #[test]
    fn erf_reference_points() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_8).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_8).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
        // 2/sqrt(pi) is the derivative at zero; check small-x slope.
        assert!((erf(1e-3) / 1e-3 - FRAC_2_SQRT_PI).abs() < 1e-3);
    }

    #[test]
    fn gelu_reference_points() {
        let g = NonlinearFn::Gelu;
        assert!(g.eval(0.0).abs() < 1e-6);
        assert!((g.eval(1.0) - 0.841_345).abs() < 1e-4);
        assert!((g.eval(-1.0) + 0.158_655).abs() < 1e-4);
        assert!((g.eval(3.0) - 2.995_95).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_tanh_silu_consistency() {
        for x in [-3.0f32, -1.0, 0.0, 0.5, 2.0] {
            let s = NonlinearFn::Sigmoid.eval(x);
            assert!((NonlinearFn::Silu.eval(x) - x * s).abs() < 1e-6);
            assert!(
                (NonlinearFn::Tanh.eval(x) - (2.0 * NonlinearFn::Sigmoid.eval(2.0 * x) - 1.0))
                    .abs()
                    < 1e-5
            );
        }
    }

    #[test]
    fn piecewise_linear_functions_exact() {
        assert_eq!(NonlinearFn::Relu.eval(-2.0), 0.0);
        assert_eq!(NonlinearFn::Relu.eval(2.0), 2.0);
        assert_eq!(NonlinearFn::LeakyRelu(0.1).eval(-2.0), -0.2);
        assert_eq!(NonlinearFn::Elu(1.0).eval(3.0), 3.0);
        let expect = (-1.0f32).exp() - 1.0;
        assert!((NonlinearFn::Elu(1.0).eval(-1.0) - expect).abs() < 1e-6);
    }

    #[test]
    fn softplus_stability() {
        assert!((NonlinearFn::Softplus.eval(30.0) - 30.0).abs() < 1e-3);
        assert!(NonlinearFn::Softplus.eval(-30.0) < 1e-6);
    }

    #[test]
    fn reciprocal_and_rsqrt() {
        assert_eq!(NonlinearFn::Reciprocal.eval(4.0), 0.25);
        assert_eq!(NonlinearFn::Rsqrt.eval(4.0), 0.5);
        assert_eq!(NonlinearFn::Sqrt.eval(9.0), 3.0);
        assert_eq!(NonlinearFn::Square.eval(-3.0), 9.0);
    }

    #[test]
    fn default_ranges_are_well_formed() {
        let fns = [
            NonlinearFn::Gelu,
            NonlinearFn::Erf,
            NonlinearFn::Exp,
            NonlinearFn::Sigmoid,
            NonlinearFn::Tanh,
            NonlinearFn::Silu,
            NonlinearFn::Softplus,
            NonlinearFn::Mish,
            NonlinearFn::Elu(1.0),
            NonlinearFn::LeakyRelu(0.01),
            NonlinearFn::Relu,
            NonlinearFn::Sqrt,
            NonlinearFn::Rsqrt,
            NonlinearFn::Reciprocal,
            NonlinearFn::Ln,
            NonlinearFn::Square,
        ];
        for f in fns {
            let (lo, hi) = f.default_range();
            assert!(lo < hi, "{f}");
            // Function must be finite across its default range.
            let steps = 64;
            for i in 0..=steps {
                let x = lo + (hi - lo) * i as f32 / steps as f32;
                assert!(f.eval(x).is_finite(), "{f} at {x}");
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(NonlinearFn::Gelu.to_string(), "gelu");
        assert_eq!(NonlinearFn::Elu(0.5).to_string(), "elu");
    }
}
