use std::fmt;

/// Error type for CPWL table construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CpwlError {
    /// The requested granularity is not positive and finite.
    InvalidGranularity(f32),
    /// The approximation range is empty or inverted.
    InvalidRange {
        /// Lower bound of the offending range.
        lo: f32,
        /// Upper bound of the offending range.
        hi: f32,
    },
    /// The function produced a non-finite value inside the range, so no
    /// chord can be drawn there.
    NonFiniteSample {
        /// The abscissa at which sampling failed.
        x: f32,
    },
    /// The table would exceed the configured maximum number of segments
    /// (bounded by the L3 buffer capacity in hardware).
    TooManySegments {
        /// Segments the request implies.
        requested: usize,
        /// Hard cap.
        cap: usize,
    },
    /// A tensor operation failed while applying the table to a matrix.
    Tensor(onesa_tensor::TensorError),
}

impl fmt::Display for CpwlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpwlError::InvalidGranularity(g) => {
                write!(f, "granularity must be positive and finite, got {g}")
            }
            CpwlError::InvalidRange { lo, hi } => {
                write!(f, "invalid approximation range [{lo}, {hi}]")
            }
            CpwlError::NonFiniteSample { x } => {
                write!(f, "function is not finite at x = {x}")
            }
            CpwlError::TooManySegments { requested, cap } => {
                write!(f, "table would need {requested} segments, cap is {cap}")
            }
            CpwlError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for CpwlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CpwlError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<onesa_tensor::TensorError> for CpwlError {
    fn from(e: onesa_tensor::TensorError) -> Self {
        CpwlError::Tensor(e)
    }
}

/// The way back, for callers whose error type is [`TensorError`]
/// (the executor, the engine): a wrapped tensor error unwraps, a table
/// error becomes an `InvalidArgument` naming it.
///
/// [`TensorError`]: onesa_tensor::TensorError
impl From<CpwlError> for onesa_tensor::TensorError {
    fn from(e: CpwlError) -> Self {
        use onesa_tensor::TensorError::InvalidArgument;
        match e {
            CpwlError::Tensor(t) => t,
            CpwlError::InvalidGranularity(_) => InvalidArgument("invalid granularity"),
            CpwlError::InvalidRange { .. } => InvalidArgument("invalid range"),
            _ => InvalidArgument("cpwl table error"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            CpwlError::InvalidGranularity(-1.0),
            CpwlError::InvalidRange { lo: 1.0, hi: 0.0 },
            CpwlError::NonFiniteSample { x: 0.0 },
            CpwlError::TooManySegments {
                requested: 100,
                cap: 10,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn converts_back_to_a_tensor_error() {
        use onesa_tensor::TensorError;
        let inner = TensorError::NotAMatrix { rank: 1 };
        assert_eq!(TensorError::from(CpwlError::from(inner.clone())), inner);
        assert_eq!(
            TensorError::from(CpwlError::InvalidGranularity(0.0)),
            TensorError::InvalidArgument("invalid granularity")
        );
        assert_eq!(
            TensorError::from(CpwlError::NonFiniteSample { x: 0.0 }),
            TensorError::InvalidArgument("cpwl table error")
        );
    }

    #[test]
    fn source_chains_tensor_error() {
        use std::error::Error;
        let e = CpwlError::from(onesa_tensor::TensorError::NotAMatrix { rank: 1 });
        assert!(e.source().is_some());
    }
}
