//! Symmetric INT16 and INT8 tensor quantization.
//!
//! The paper evaluates all networks and the array itself at INT16
//! precision ("both the neural networks and the systolic arrays are
//! quantized to INT16 precision"). This module provides the
//! per-tensor symmetric scheme used by the reproduction's quantized
//! inference path, plus an integer GEMM with `i64` accumulation mirroring
//! the multi-layer accumulator of the PE. [`QuantTensor8`] is the INT8
//! rung one step below the paper's boundary precision — the same
//! symmetric scheme at an 8-bit range, for activation round trips where
//! a model tolerates the coarser step (the mobile-CNN operating point of
//! the structured-sparse low-precision literature).
//!
//! # One branch-free loop
//!
//! A layer boundary quantizes and at once dequantizes, so the served
//! form is the round trip ([`QuantTensor::round_trip`],
//! [`QuantTensor::round_trip_rows`] per row): scale from the
//! absolute maximum, then one pass that never builds the integer tensor.
//! It and `quantize` share the per-element steps, written so the compiler
//! vectorises them and so every bit equals the scalar definition
//! (`round()`, compare-and-saturate, `as` cast):
//!
//! * **Rounding** — ties away from zero — is
//!   `trunc(v + copysign(0.49999997, v))`, the constant being the float
//!   just below one half (see `round_ties_away`).
//! * **Saturation** is a float `max` / `min` against the integer range;
//!   the value converted afterwards is integral and in range, so the
//!   integer form reads it out of the mantissa of `1.5·2²³ + r` instead
//!   of through a saturating (branching) `as` cast.
//! * **Two special cases of `as`** are reproduced by hand: `NaN → 0`, a
//!   select on `is_nan`, and `-0.0 → +0.0` — a small negative rounds to
//!   `-0.0`, the integer `0` has no sign — which the round trip gets by
//!   adding `+0.0` before it multiplies the scale back in.

use crate::{Result, Tensor, TensorError};

/// Defines a symmetric per-tensor quantized tensor type over one integer
/// width, and its integer GEMM — the one implementation behind both
/// precision rungs.
macro_rules! quant_tensor {
    (
        $(#[$tensor_doc:meta])* $name:ident($int:ty);
        $(#[$matmul_doc:meta])* $matmul:ident
    ) => {
        $(#[$tensor_doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            dims: Vec<usize>,
            data: Vec<$int>,
            scale: f32,
        }

        impl $name {
            /// Quantizes a float tensor symmetrically so its absolute
            /// maximum maps to the integer type's `MAX`. An all-zero
            /// tensor gets scale `1.0`.
            pub fn quantize(t: &Tensor) -> Self {
                Self::quantize_with_scale(t, Self::scale_for(t.as_slice()))
            }

            /// The symmetric scale of `x`: its absolute maximum (`NaN`s
            /// ignored) over the integer type's `MAX`, `1.0` if that
            /// maximum is zero.
            fn scale_for(x: &[f32]) -> f32 {
                let max_abs = max_abs(x);
                if max_abs == 0.0 {
                    1.0
                } else {
                    max_abs / <$int>::MAX as f32
                }
            }

            /// `x / scale` rounded to the nearest integer (ties away
            /// from zero), saturated at the integer range, `NaN` → 0 —
            /// still a float, and `-0.0` where a small negative rounded
            /// up to zero.
            #[inline(always)]
            fn round_sat(x: f32, scale: f32) -> f32 {
                let r = round_ties_away(x / scale);
                let r = if r.is_nan() { 0.0 } else { r };
                r.max(<$int>::MIN as f32).min(<$int>::MAX as f32)
            }

            /// Quantizes with an explicit scale (values saturate at the
            /// integer range).
            pub fn quantize_with_scale(t: &Tensor, scale: f32) -> Self {
                let data = t
                    .as_slice()
                    .iter()
                    // The low bits of `1.5·2²³ + r` are `r` in two's
                    // complement for any integer `|r| < 2²²`; an `as`
                    // cast from the float would saturate, and that is a
                    // branch per lane.
                    .map(|&x| (Self::round_sat(x, scale) + 12_582_912.0).to_bits() as $int)
                    .collect();
                $name {
                    dims: t.dims().to_vec(),
                    data,
                    scale,
                }
            }

            /// The quantize → dequantize round trip of `x` at its own
            /// symmetric scale, written to `out` without materialising
            /// the integers: bit-identical to
            /// `quantize(x).dequantize()`.
            ///
            /// # Panics
            ///
            /// Panics if the slices differ in length.
            pub(crate) fn round_trip_slice(x: &[f32], out: &mut [f32]) {
                assert_eq!(x.len(), out.len(), "round trip input and output lengths");
                let scale = Self::scale_for(x);
                for (o, &v) in out.iter_mut().zip(x) {
                    // `+ 0.0` is the integer's view of `-0.0`.
                    *o = (Self::round_sat(v, scale) + 0.0) * scale;
                }
            }

            /// The quantize → dequantize round trip of `t` at its own
            /// symmetric scale, without materialising the integers:
            /// bit-identical to `quantize(t).dequantize()`.
            pub fn round_trip(t: &Tensor) -> Tensor {
                let mut out = Tensor::zeros(t.dims());
                Self::round_trip_slice(t.as_slice(), out.as_mut_slice());
                out
            }

            /// [`Self::round_trip`] over each row of a matrix, every
            /// row at its own scale — so row `i` of the result is a
            /// function of row `i` alone.
            ///
            /// # Errors
            ///
            /// Returns [`TensorError::NotAMatrix`] for non-matrices.
            pub fn round_trip_rows(t: &Tensor) -> Result<Tensor> {
                let (_, n) = t.shape().as_matrix()?;
                let mut out = Tensor::zeros(t.dims());
                let rows = out.as_mut_slice().chunks_mut(n.max(1));
                for (row, src) in rows.zip(t.as_slice().chunks(n.max(1))) {
                    Self::round_trip_slice(src, row);
                }
                Ok(out)
            }

            /// Reconstructs the float tensor `scale * q`.
            pub fn dequantize(&self) -> Tensor {
                let data = self.data.iter().map(|&q| q as f32 * self.scale).collect();
                Tensor::from_vec(data, &self.dims).expect("shape preserved by construction")
            }

            /// The quantization scale.
            pub fn scale(&self) -> f32 {
                self.scale
            }

            /// Borrow the raw integer values.
            pub fn as_slice(&self) -> &[$int] {
                &self.data
            }
        }

        $(#[$matmul_doc])*
        pub fn $matmul(a: &$name, b: &$name) -> Result<Tensor> {
            if a.dims.len() != 2 || b.dims.len() != 2 {
                return Err(TensorError::NotAMatrix {
                    rank: a.dims.len().max(b.dims.len()),
                });
            }
            let (m, k) = (a.dims[0], a.dims[1]);
            let (k2, n) = (b.dims[0], b.dims[1]);
            if k != k2 {
                return Err(TensorError::ShapeMismatch {
                    lhs: a.dims.clone(),
                    rhs: b.dims.clone(),
                    op: stringify!($matmul),
                });
            }
            let mut out = Tensor::zeros(&[m, n]);
            let scale = a.scale * b.scale;
            let dst = out.as_mut_slice();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i64;
                    for p in 0..k {
                        acc += a.data[i * k + p] as i64 * b.data[p * n + j] as i64;
                    }
                    dst[i * n + j] = acc as f32 * scale;
                }
            }
            Ok(out)
        }
    };
}

/// The largest `|v|` in `x`, `NaN`s ignored, `+0.0` when there is none:
/// `x.fold(0.0, |m, v| m.max(v.abs()))`. Non-`NaN` magnitudes order like
/// their bit patterns, so this is an integer maximum — order-independent,
/// hence vectorisable, with the same bits whatever the order.
fn max_abs(x: &[f32]) -> f32 {
    let magnitude = |v: &f32| match v.to_bits() & 0x7fff_ffff {
        nan if nan > 0x7f80_0000 => 0,
        m => m,
    };
    let mut lanes = [0u32; 16];
    let mut chunks = x.chunks_exact(lanes.len());
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).max(magnitude(v));
        }
    }
    let tail = chunks.remainder().iter().map(magnitude);
    f32::from_bits(tail.chain(lanes).max().unwrap_or(0))
}

/// `v.round()` — nearest integer, ties away from zero — as
/// `trunc(v + copysign(0.5⁻, v))` with `0.5⁻ = 0.49999997`, the float
/// just below one half: a tie `n + 0.5` plus `0.5⁻` rounds up to `n + 1`,
/// the float just below a tie stays below `n + 1`, and from 2²³ on every
/// float is an integer the addition leaves alone. Straight-line, where
/// `round()` is a call.
#[inline(always)]
fn round_ties_away(v: f32) -> f32 {
    (v + 0.499_999_97f32.copysign(v)).trunc()
}

quant_tensor! {
    /// An INT16-quantized tensor with one symmetric scale factor.
    ///
    /// Real value = `scale * q` for each stored `i16` element `q`.
    ///
    /// # Example
    ///
    /// ```
    /// use onesa_tensor::{Tensor, quant::QuantTensor};
    ///
    /// let t = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3])?;
    /// let q = QuantTensor::quantize(&t);
    /// let back = q.dequantize();
    /// for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
    ///     assert!((a - b).abs() < 1e-3);
    /// }
    /// # Ok::<(), onesa_tensor::TensorError>(())
    /// ```
    QuantTensor(i16);
    /// Integer GEMM `A · B` with `i64` accumulation, dequantized on the way
    /// out — functionally what the INT16 array computes for one tile.
    ///
    /// # Errors
    ///
    /// Returns shape errors as in [`crate::gemm::matmul`].
    quant_matmul
}

quant_tensor! {
    /// An INT8-quantized tensor with one symmetric scale factor — the
    /// precision rung below [`QuantTensor`]. Real value = `scale * q` for
    /// each stored `i8` element `q`.
    ///
    /// The scheme is deterministic: quantization is a pure function of the
    /// input bits (scale from the absolute maximum, round-to-nearest with
    /// saturation), so two round trips of the same tensor are bit-identical.
    ///
    /// # Example
    ///
    /// ```
    /// use onesa_tensor::{Tensor, quant::QuantTensor8};
    ///
    /// let t = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3])?;
    /// let q = QuantTensor8::quantize(&t);
    /// let back = q.dequantize();
    /// for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
    ///     assert!((a - b).abs() < 2.0 / 127.0);
    /// }
    /// # Ok::<(), onesa_tensor::TensorError>(())
    /// ```
    QuantTensor8(i8);
    /// Integer GEMM `A · B` over INT8 operands with `i64` accumulation,
    /// dequantized on the way out — the INT8 analogue of [`quant_matmul`].
    ///
    /// # Errors
    ///
    /// Returns shape errors as in [`crate::gemm::matmul`].
    quant_matmul8
}

/// Quantization error statistics for a round trip through INT16.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantError {
    /// Maximum absolute error.
    pub max_abs: f32,
}

/// Measures the round-trip error of symmetric INT16 quantization on `t`.
pub fn round_trip_error(t: &Tensor) -> QuantError {
    let back = QuantTensor::quantize(t).dequantize();
    QuantError {
        max_abs: crate::stats::max_abs_diff(t.as_slice(), back.as_slice()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use crate::stats::max_abs_diff;

    #[test]
    fn quantize_zero_tensor() {
        let t = Tensor::zeros(&[4]);
        let q = QuantTensor::quantize(&t);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.dequantize(), t);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let t = Tensor::from_vec(
            (0..100).map(|i| ((i as f32) * 0.731).sin() * 3.0).collect(),
            &[10, 10],
        )
        .unwrap();
        let q = QuantTensor::quantize(&t);
        let err = round_trip_error(&t);
        assert!(err.max_abs <= q.scale() * 0.5 + 1e-7, "{err:?}");
    }

    #[test]
    fn saturation_with_small_scale() {
        let t = Tensor::from_vec(vec![100.0, -100.0], &[2]).unwrap();
        let q = QuantTensor::quantize_with_scale(&t, 1e-3);
        assert_eq!(q.as_slice(), &[i16::MAX, i16::MIN]);
    }

    #[test]
    fn quant_matmul_close_to_float() {
        let a =
            Tensor::from_vec((0..12).map(|i| (i as f32 * 0.21).cos()).collect(), &[3, 4]).unwrap();
        let b =
            Tensor::from_vec((0..20).map(|i| (i as f32 * 0.37).sin()).collect(), &[4, 5]).unwrap();
        let exact = gemm::matmul(&a, &b).unwrap();
        let qa = QuantTensor::quantize(&a);
        let qb = QuantTensor::quantize(&b);
        let approx = quant_matmul(&qa, &qb).unwrap();
        for (x, y) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn quant_matmul_shape_errors() {
        let a = QuantTensor::quantize(&Tensor::zeros(&[2, 3]));
        let b = QuantTensor::quantize(&Tensor::zeros(&[2, 3]));
        assert!(quant_matmul(&a, &b).is_err());
        let v = QuantTensor::quantize(&Tensor::zeros(&[3]));
        assert!(quant_matmul(&a, &v).is_err());
    }

    #[test]
    fn int8_rung_mirrors_int16_semantics() {
        let t = Tensor::from_vec(
            (0..64).map(|i| ((i as f32) * 0.611).sin() * 2.5).collect(),
            &[8, 8],
        )
        .unwrap();
        let q = QuantTensor8::quantize(&t);
        let back = q.dequantize();
        assert_eq!(back.dims(), t.dims());
        assert_eq!(q.as_slice().len(), 64);
        let err = max_abs_diff(t.as_slice(), back.as_slice());
        assert!(err <= q.scale() * 0.5 + 1e-7, "{err}");
        // INT8 is a strictly coarser rung: its worst-case step is the
        // INT16 step scaled by the range ratio.
        let err16 = round_trip_error(&t);
        assert!(err16.max_abs <= err + 1e-7);
        // Zero tensor and saturation behave as the INT16 scheme does.
        assert_eq!(QuantTensor8::quantize(&Tensor::zeros(&[4])).scale(), 1.0);
        let big = Tensor::from_vec(vec![100.0, -100.0], &[2]).unwrap();
        let qs = QuantTensor8::quantize_with_scale(&big, 1e-3);
        assert_eq!(qs.as_slice(), &[i8::MAX, i8::MIN]);
    }

    #[test]
    fn quant_matmul8_close_to_float() {
        let a =
            Tensor::from_vec((0..12).map(|i| (i as f32 * 0.21).cos()).collect(), &[3, 4]).unwrap();
        let b =
            Tensor::from_vec((0..20).map(|i| (i as f32 * 0.37).sin()).collect(), &[4, 5]).unwrap();
        let exact = gemm::matmul(&a, &b).unwrap();
        let qa = QuantTensor8::quantize(&a);
        let qb = QuantTensor8::quantize(&b);
        let approx = quant_matmul8(&qa, &qb).unwrap();
        for (x, y) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((x - y).abs() < 0.25, "{x} vs {y}");
        }
        let bad = QuantTensor8::quantize(&Tensor::zeros(&[2, 3]));
        assert!(quant_matmul8(&qa, &bad).is_err());
    }

    use crate::rng::Pcg32;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The INT8 rung is deterministic: the round trip is a pure
        /// function of the input bits, so repeating it is bit-identical,
        /// and re-quantizing an already round-tripped tensor is a fixed
        /// point of the scheme up to one further rounding step.
        #[test]
        fn prop_int8_round_trip_deterministic(seed in 0u64..10_000, m in 1usize..12, n in 1usize..12) {
            let t = Pcg32::seed_from_u64(seed).randn(&[m, n], 1.5);
            let q1 = QuantTensor8::quantize(&t);
            let q2 = QuantTensor8::quantize(&t);
            prop_assert_eq!(q1.scale().to_bits(), q2.scale().to_bits());
            prop_assert_eq!(q1.as_slice(), q2.as_slice());
            let b1 = q1.dequantize();
            let b2 = q2.dequantize();
            for (x, y) in b1.as_slice().iter().zip(b2.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // Error bound: half a step at the tensor's scale.
            let err = max_abs_diff(t.as_slice(), b1.as_slice());
            prop_assert!(err <= q1.scale() * 0.5 + 1e-6);
        }
    }
}
