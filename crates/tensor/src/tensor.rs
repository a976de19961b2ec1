use crate::{Result, Shape, TensorError};
use std::sync::Arc;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the workhorse value type of the reproduction: network
/// activations, weights, CPWL parameter matrices (`K`, `B`) and simulator
/// payloads are all `Tensor`s.
///
/// # Shared storage
///
/// The elements live in one reference-counted buffer, copied on write.
/// [`Clone`] and [`Tensor::reshape`] bump the count and copy nothing, so a
/// weight handed to many requests, programs and dataset clones is one
/// buffer. Every mutator ([`Tensor::as_mut_slice`], [`Tensor::set`],
/// [`Tensor::row_mut`], [`Tensor::tile_write`]) first makes the buffer
/// unique: it copies it when another tensor still shares it, and leaves it
/// in place otherwise. That check is an atomic operation, so a loop that
/// writes element by element takes one `&mut [f32]` before it starts.
/// [`Tensor::shares_storage`] tells whether two tensors hold one buffer.
///
/// # Example
///
/// ```
/// use onesa_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.at(&[1, 2])?, 6.0);
/// let doubled = t.map(|x| x * 2.0);
/// assert_eq!(doubled.at(&[0, 0])?, 2.0);
/// # Ok::<(), onesa_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let volume = shape.volume();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; volume]),
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::filled(dims, 1.0)
    }

    /// Creates a tensor where every element is `value`.
    pub fn filled(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let volume = shape.volume();
        Tensor {
            shape,
            data: Arc::new(vec![value; volume]),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        let data = t.as_mut_slice();
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data, first copying it if
    /// another tensor shares it.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor and returns its raw data: its own buffer when no
    /// other tensor shares it, a copy otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Whether `self` and `other` hold one buffer (one is a clone or a
    /// reshape of the other, and neither has been written since). Tensors
    /// sharing storage hold equal elements, though their dims may differ.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on bad indices.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] on bad indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.as_mut_slice()[off] = value;
        Ok(())
    }

    /// Reinterprets the tensor with a new shape of identical volume. The
    /// result shares this tensor's storage.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                len: self.data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::clone(&self.data),
        })
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    /// Elementwise combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
                op: "zip",
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data: Arc::new(data),
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        self.zip(rhs, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Self> {
        self.zip(rhs, |a, b| a - b)
    }

    /// Elementwise multiplication (Hadamard product).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Self> {
        self.zip(rhs, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Transposes a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Self> {
        let (rows, cols) = self.shape.as_matrix()?;
        let mut out = Tensor::zeros(&[cols, rows]);
        let dst = out.as_mut_slice();
        for r in 0..rows {
            for c in 0..cols {
                dst[c * rows + r] = self.data[r * cols + c];
            }
        }
        Ok(out)
    }

    /// Borrows row `r` of a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] for a bad row.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let (rows, cols) = self.shape.as_matrix()?;
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: rows,
            });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Mutably borrows row `r` of a matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::row`].
    pub fn row_mut(&mut self, r: usize) -> Result<&mut [f32]> {
        let (rows, cols) = self.shape.as_matrix()?;
        if r >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: r,
                bound: rows,
            });
        }
        Ok(&mut self.as_mut_slice()[r * cols..(r + 1) * cols])
    }

    /// Extracts a rectangular sub-matrix `[r0..r0+h, c0..c0+w]`, zero padded
    /// where the window extends past the matrix edge.
    ///
    /// Tiling a matrix onto a fixed-size systolic array uses this to build
    /// edge tiles.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if the tensor is not rank-2.
    pub fn tile_padded(&self, r0: usize, c0: usize, h: usize, w: usize) -> Result<Self> {
        let (rows, cols) = self.shape.as_matrix()?;
        let mut out = Tensor::zeros(&[h, w]);
        let dst = out.as_mut_slice();
        for r in 0..h {
            if r0 + r >= rows {
                break;
            }
            for c in 0..w {
                if c0 + c >= cols {
                    break;
                }
                dst[r * w + c] = self.data[(r0 + r) * cols + (c0 + c)];
            }
        }
        Ok(out)
    }

    /// Writes a tile back into `self` at `[r0.., c0..]`, ignoring the parts
    /// of the tile that fall outside the matrix (the inverse of
    /// [`Tensor::tile_padded`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NotAMatrix`] if either tensor is not rank-2.
    pub fn tile_write(&mut self, r0: usize, c0: usize, tile: &Tensor) -> Result<()> {
        let (rows, cols) = self.shape.as_matrix()?;
        let (h, w) = tile.shape.as_matrix()?;
        let dst = self.as_mut_slice();
        for r in 0..h {
            if r0 + r >= rows {
                break;
            }
            for c in 0..w {
                if c0 + c >= cols {
                    break;
                }
                dst[(r0 + r) * cols + (c0 + c)] = tile.data[r * w + c];
            }
        }
        Ok(())
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor{} {:?}",
            self.shape,
            &self.data[..self.data.len().min(8)]
        )?;
        if self.data.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.at(&[0, 1]).unwrap(), 0.0);
        assert_eq!(i.as_slice().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.map(|x| x + 1.0).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[10.0, 40.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0]);
    }

    #[test]
    fn zip_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]).unwrap(), 5.0);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn tile_padded_pads_with_zeros() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32).collect(), &[3, 3]).unwrap();
        let t = a.tile_padded(2, 2, 2, 2).unwrap();
        assert_eq!(t.as_slice(), &[8.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn tile_write_round_trip() {
        let a = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[4, 4]).unwrap();
        let mut b = Tensor::zeros(&[4, 4]);
        for r0 in [0, 2] {
            for c0 in [0, 2] {
                let tile = a.tile_padded(r0, c0, 2, 2).unwrap();
                b.tile_write(r0, c0, &tile).unwrap();
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn rows() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.row(1).unwrap(), &[3.0, 4.0, 5.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn clone_and_reshape_share_the_buffer_and_copy_nothing() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let b = a.clone();
        let view = a.reshape(&[3, 2]).unwrap();
        for t in [&b, &view] {
            assert!(t.shares_storage(&a));
            assert_eq!(t.as_slice().as_ptr(), a.as_slice().as_ptr());
        }
        assert!(!a.shares_storage(&Tensor::zeros(&[2, 3])));
    }

    #[test]
    fn into_vec_moves_a_unique_buffer_and_copies_a_shared_one() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let ptr = a.as_slice().as_ptr();
        let b = a.clone();
        let copied = a.into_vec();
        assert_ne!(copied.as_ptr(), ptr);
        assert_eq!(copied, b.as_slice());
        let moved = b.into_vec();
        assert_eq!(moved.as_ptr(), ptr);
        assert_eq!(moved, copied);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.as_slice(), a.as_slice());
        assert!(a.reshape(&[4, 2]).is_err());
    }
}
