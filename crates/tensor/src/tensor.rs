use crate::parallel::{PackedLhs, PackedRhs};
use crate::sparse::SparseTensor;
use crate::{Result, Shape, TensorError};
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

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
/// # What the buffer remembers
///
/// Beside its elements the buffer keeps what is derived from them, each
/// computed by its first reader: the [`tensor_fingerprint`] and the packs
/// the GEMM kernels read a reused operand in (a [`PackedLhs`] by either
/// layout, a convolution weight's transposed lines pack, a
/// [`SparseTensor`], the right-operand panels — made by the buffer's
/// second product, so one that arrives for a single product is never
/// packed whole). Every clone and reshape shares them, so a weight
/// resubmitted with every request is hashed and packed once. Each entry
/// records the dims it was taken under, and each kind of value keeps one
/// entry for each of the first two dims it is asked under, so a view that
/// reads first (a flat view's hash) does not cost the buffer's own dims
/// their entry; a third view computes its own and keeps nothing. A
/// mutator clears them all before it writes, and a copy starts without
/// them.
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
    data: Arc<Storage>,
}

/// A tensor's shared buffer: its elements and what is derived from them.
struct Storage {
    values: Vec<f32>,
    /// Allocated by the first reader of a derived value, so a buffer that
    /// is never hashed or packed (an activation) carries one empty cell.
    memo: OnceLock<Box<Memo>>,
}

/// What is derived from a buffer's contents, each entry beside the dims it
/// was taken under (see "What the buffer remembers" on [`Tensor`]).
#[derive(Default)]
pub(crate) struct Memo {
    fingerprint: Slot<u64>,
    pub(crate) lhs: Slot<PackedLhs>,
    pub(crate) conv: Slot<PackedLhs>,
    pub(crate) sparse: Slot<SparseTensor>,
    pub(crate) rhs: Slot<PackedRhs>,
    /// Whether a product has read the buffer as a reused right operand.
    multiplied: AtomicBool,
}

/// One kind of derived value, kept for the first two dims it is asked
/// under, each entry filled once.
pub(crate) type Slot<T> = [OnceLock<(Shape, T)>; 2];

impl Storage {
    fn new(values: Vec<f32>) -> Arc<Self> {
        Arc::new(Storage {
            values,
            memo: OnceLock::new(),
        })
    }
}

/// A copy holds the elements and none of what was derived from them.
impl Clone for Storage {
    fn clone(&self) -> Self {
        Storage {
            values: self.values.clone(),
            memo: OnceLock::new(),
        }
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.values.fmt(f)
    }
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
            data: Storage::new(data),
        })
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let volume = shape.volume();
        Tensor {
            shape,
            data: Storage::new(vec![0.0; volume]),
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
            data: Storage::new(vec![value; volume]),
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
        self.data.values.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.values.is_empty()
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data.values
    }

    /// Mutably borrow the underlying row-major data, first copying it if
    /// another tensor shares it, and forgetting what was derived from it.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let storage = Arc::make_mut(&mut self.data);
        storage.memo.take();
        &mut storage.values
    }

    /// Consumes the tensor and returns its raw data: its own buffer when no
    /// other tensor shares it, a copy otherwise.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(storage) => storage.values,
            Err(shared) => shared.values.clone(),
        }
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
        Ok(self.as_slice()[self.shape.offset(index)?])
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
        if shape.volume() != self.len() {
            return Err(TensorError::LengthMismatch {
                len: self.len(),
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
            data: Storage::new(self.data.values.iter().map(|&x| f(x)).collect()),
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
            .iter()
            .zip(rhs.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data: Storage::new(data),
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
                dst[c * rows + r] = self.data.values[r * cols + c];
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
        Ok(&self.as_slice()[r * cols..(r + 1) * cols])
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
                dst[r * w + c] = self.data.values[(r0 + r) * cols + (c0 + c)];
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
                dst[(r0 + r) * cols + (c0 + c)] = tile.data.values[r * w + c];
            }
        }
        Ok(())
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.as_slice().iter()
    }

    /// The value `slot` of the buffer's memo holds for these dims, made by
    /// `make` from this tensor: the shared entry taken under these dims
    /// (made and kept now in the first empty entry if there is none), or a
    /// value of the caller's own once both entries hold other dims.
    pub(crate) fn memo<T: Clone>(
        &self,
        slot: fn(&Memo) -> &Slot<T>,
        make: impl Fn(&Tensor) -> Result<T>,
    ) -> Result<Cow<'_, T>> {
        for cell in slot(self.data.memo.get_or_init(Box::default)) {
            if cell.get().is_none() {
                // A racing first reader's value may win the entry; both
                // are made from the same bits, and one under other dims
                // sends this reader on to the next entry.
                let _ = cell.set((self.shape.clone(), make(self)?));
            }
            let (dims, value) = cell.get().expect("the entry was just filled");
            if *dims == self.shape {
                return Ok(Cow::Borrowed(value));
            }
        }
        make(self).map(Cow::Owned)
    }

    /// Whether a product read the buffer as a reused right operand before
    /// this one (which is recorded): the second product packs it.
    pub(crate) fn multiplied_before(&self) -> bool {
        let memo = self.data.memo.get_or_init(Box::default);
        // A flag that publishes no other data: the pack itself is
        // published by its `OnceLock`.
        memo.multiplied.swap(true, Ordering::Relaxed)
    }

    /// How many kernel packs the buffer keeps (its fingerprint aside): one
    /// per layout and dims some reader asked for.
    pub fn packs(&self) -> usize {
        fn kept<T>(slot: &Slot<T>) -> usize {
            slot.iter().filter(|cell| cell.get().is_some()).count()
        }
        self.data.memo.get().map_or(0, |memo| {
            kept(&memo.lhs) + kept(&memo.conv) + kept(&memo.sparse) + kept(&memo.rhs)
        })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over a 64-bit value.
fn fnv_step(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// The independent FNV-1a chains [`tensor_fingerprint`] spreads a
/// tensor's values over.
const LANES: usize = 64;

/// Cheap content hash used to bucket constant tensors before exact
/// equality checks — what the staged executor groups shared-weight GEMMs
/// by, and what keys a program and a weight on the wire. FNV-1a over the
/// dims, then value `i`'s bit pattern into lane `i % 64` of 64 independent
/// FNV-1a chains (no chain waits on another's multiply, so the loop
/// vectorises and runs at about memory speed), then the `len % 64`
/// trailing values into the dims' chain, which finally absorbs the 64
/// lanes in order. Every step is a bijection in its state and in its
/// value, so two tensors of one rank and length that differ in a single
/// value or a single dim always hash apart. A pure function of the dims
/// and the bit patterns: the same on every platform and alignment, as the
/// wire's recorded program fingerprints need.
///
/// The hash is kept in the tensor's storage (see "What the buffer
/// remembers" on [`Tensor`]): a `[256, 128]` weight hashes in ~5 µs the
/// first time and is read back in a few nanoseconds by every clone after,
/// until a write.
pub fn tensor_fingerprint(t: &Tensor) -> u64 {
    let hash = t.memo(|memo| &memo.fingerprint, |t| Ok(hash_contents(t)));
    *hash.expect("hashing cannot fail")
}

/// [`tensor_fingerprint`]'s hash itself.
fn hash_contents(t: &Tensor) -> u64 {
    let h = t
        .dims()
        .iter()
        .fold(FNV_OFFSET, |h, &d| fnv_step(h, d as u64));
    let values = t.as_slice().chunks_exact(LANES);
    let tail = values.remainder();
    let mut lanes = [FNV_OFFSET; LANES];
    for chunk in values {
        let chunk: &[f32; LANES] = chunk.try_into().expect("chunks_exact");
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = fnv_step(*lane, u64::from(v.to_bits()));
        }
    }
    let h = tail
        .iter()
        .fold(h, |h, v| fnv_step(h, u64::from(v.to_bits())));
    lanes.iter().fold(h, |h, &lane| fnv_step(h, lane))
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
            &self.as_slice()[..self.len().min(8)]
        )?;
        if self.len() > 8 {
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
    fn a_view_that_reads_first_leaves_the_buffers_own_dims_their_entry() {
        let w = Tensor::from_vec((0..24).map(|i| i as f32 - 7.5).collect(), &[4, 6]).unwrap();
        fn hash(t: &Tensor) -> Cow<'_, u64> {
            t.memo(|memo| &memo.fingerprint, |t| Ok(hash_contents(t)))
                .unwrap()
        }
        let flat = w.reshape(&[24]).unwrap();
        assert_eq!(tensor_fingerprint(&flat), hash_contents(&flat));
        assert!(matches!(hash(&w), Cow::Borrowed(&h) if h == hash_contents(&w)));
        assert!(matches!(hash(&flat), Cow::Borrowed(_)));

        let view = w.reshape(&[6, 4]).unwrap();
        assert!(matches!(PackedLhs::of(&view).unwrap(), Cow::Borrowed(_)));
        assert!(matches!(PackedLhs::of(&w).unwrap(), Cow::Borrowed(_)));
        assert!(matches!(
            PackedLhs::of(&w.clone()).unwrap(),
            Cow::Borrowed(_)
        ));
        assert_eq!(w.packs(), 2);
        // A third view computes its own and keeps nothing.
        let third = w.reshape(&[3, 8]).unwrap();
        assert!(matches!(PackedLhs::of(&third).unwrap(), Cow::Owned(_)));
        assert_eq!(w.packs(), 2);
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
