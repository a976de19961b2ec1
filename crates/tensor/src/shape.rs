use crate::TensorError;

/// The dimensions of a [`Tensor`](crate::Tensor), stored outermost first.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` that owns the
/// index-arithmetic used throughout the crate.
///
/// # Example
///
/// ```
/// use onesa_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.shape().as_matrix()?, (2, 3));
/// assert!(Tensor::zeros(&[2, 3, 4]).shape().as_matrix().is_err());
/// # Ok::<(), onesa_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    pub(crate) fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of all dimensions).
    pub(crate) fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides for this shape.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index` has the wrong
    /// rank or any coordinate exceeds its dimension.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.len(),
                bound: self.dims.len(),
            });
        }
        let mut off = 0usize;
        let strides = self.strides();
        for (i, (&ix, &dim)) in index.iter().zip(self.dims.iter()).enumerate() {
            if ix >= dim {
                return Err(TensorError::IndexOutOfBounds {
                    index: ix,
                    bound: dim,
                });
            }
            off += ix * strides[i];
        }
        Ok(off)
    }

    /// Returns the matrix dimensions `(rows, cols)` if this is rank-2.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for any other rank.
    pub fn as_matrix(&self) -> Result<(usize, usize), TensorError> {
        if self.dims.len() == 2 {
            Ok((self.dims[0], self.dims[1]))
        } else {
            Err(TensorError::NotAMatrix {
                rank: self.dims.len(),
            })
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.dims
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.volume(), 1);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::new(&[3, 5]);
        assert_eq!(s.offset(&[0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2]).unwrap(), 7);
        assert_eq!(s.offset(&[2, 4]).unwrap(), 14);
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(&[3, 5]);
        assert!(s.offset(&[3, 0]).is_err());
        assert!(s.offset(&[0, 5]).is_err());
        assert!(s.offset(&[0]).is_err());
    }

    #[test]
    fn as_matrix() {
        assert_eq!(Shape::new(&[4, 7]).as_matrix().unwrap(), (4, 7));
        assert!(Shape::new(&[4]).as_matrix().is_err());
        assert!(Shape::new(&[1, 2, 3]).as_matrix().is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }
}
