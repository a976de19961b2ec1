//! Q-format fixed-point scalar arithmetic.
//!
//! The paper quantizes networks and the systolic array to INT16 and makes
//! the L3 data-addressing module compute CPWL segment indices by *bit
//! shifting*, which only works because segment lengths are powers of two.
//! [`QFormat`] captures an `i16` interpretation with a fixed number of
//! fractional bits and provides the saturating arithmetic the hardware
//! datapath would implement.

use std::fmt;

/// A fixed-point interpretation of `i16` with `frac_bits` fractional bits
/// (a "Q-format", e.g. Q8.8 for `frac_bits = 8`).
///
/// # Example
///
/// ```
/// use onesa_tensor::fixed::QFormat;
///
/// let q = QFormat::new(8);
/// let x = q.from_f32(1.5);
/// assert_eq!(x, 384); // 1.5 * 2^8
/// assert_eq!(q.to_f32(x), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u8,
}

impl QFormat {
    /// Creates a Q-format with the given number of fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 15` (an `i16` has only 15 magnitude bits).
    pub fn new(frac_bits: u8) -> Self {
        assert!(
            frac_bits <= 15,
            "i16 Q-format supports at most 15 fractional bits"
        );
        QFormat { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Value of one least-significant bit.
    pub fn resolution(&self) -> f32 {
        1.0 / (1i32 << self.frac_bits) as f32
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        self.to_f32(i16::MAX)
    }

    /// Converts an `f32` to fixed point with round-to-nearest and
    /// saturation at the `i16` range.
    pub fn from_f32(&self, x: f32) -> i16 {
        let scaled = x * (1i64 << self.frac_bits) as f32;
        let rounded = scaled.round();
        if rounded >= i16::MAX as f32 {
            i16::MAX
        } else if rounded <= i16::MIN as f32 {
            i16::MIN
        } else {
            rounded as i16
        }
    }

    /// Converts a fixed-point value back to `f32` (exact).
    pub fn to_f32(&self, x: i16) -> f32 {
        x as f32 / (1i32 << self.frac_bits) as f32
    }

    /// Fused multiply-add `a*b + c` with a single widening intermediate,
    /// matching the PE's MAC unit.
    pub fn mac(&self, a: i16, b: i16, c: i16) -> i16 {
        let wide = a as i32 * b as i32;
        let half = 1i32 << (self.frac_bits.max(1) - 1);
        let prod = if self.frac_bits == 0 {
            wide
        } else {
            (wide + half) >> self.frac_bits
        };
        saturate_i32(prod.saturating_add(c as i32))
    }

    /// CPWL segment index of `x` for segments of length `2^log2_seg`
    /// starting at `x_min`, computed with the hardware shift trick:
    /// `(x_q - xmin_q) >> (frac_bits + log2_seg)`.
    ///
    /// `log2_seg` is the base-2 logarithm of the segment length in *real*
    /// units (e.g. `-2` for granularity 0.25). The result is **not**
    /// capped; capping is the scale module's job
    /// (see `onesa-cpwl`).
    pub fn segment_shift(&self, x: i16, x_min: i16, log2_seg: i8) -> i32 {
        let delta = x as i32 - x_min as i32;
        let shift = self.frac_bits as i32 + log2_seg as i32;
        debug_assert!(shift >= 0, "segment smaller than fixed-point resolution");
        // Arithmetic right shift floors toward negative infinity, exactly
        // like the hardware barrel shifter on two's-complement data.
        delta >> shift
    }
}

impl Default for QFormat {
    /// Q8.8 — the balance of range (±128) and resolution (1/256) used for
    /// activations throughout the reproduction.
    fn default() -> Self {
        QFormat::new(8)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", 15 - self.frac_bits, self.frac_bits)
    }
}

fn saturate_i32(x: i32) -> i16 {
    if x > i16::MAX as i32 {
        i16::MAX
    } else if x < i16::MIN as i32 {
        i16::MIN
    } else {
        x as i16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_values() {
        let q = QFormat::new(8);
        for x in [-2.0f32, -0.5, 0.0, 0.25, 1.0, 100.0] {
            assert_eq!(q.to_f32(q.from_f32(x)), x);
        }
    }

    #[test]
    fn saturation() {
        let q = QFormat::new(8);
        assert_eq!(q.from_f32(1e9), i16::MAX);
        assert_eq!(q.from_f32(-1e9), i16::MIN);
        assert_eq!(q.mac(i16::MAX, i16::MAX, 0), i16::MAX);
        assert_eq!(q.mac(0, 0, i16::MIN), i16::MIN);
    }

    #[test]
    fn mul_matches_float_within_resolution() {
        let q = QFormat::new(10);
        let cases = [(1.5f32, 2.25f32), (-3.0, 0.5), (0.125, 0.125), (-1.0, -1.0)];
        for (a, b) in cases {
            let got = q.to_f32(q.mac(q.from_f32(a), q.from_f32(b), 0));
            assert!((got - a * b).abs() <= q.resolution(), "{a}*{b}: {got}");
        }
    }

    #[test]
    fn mac_matches_mul_then_add() {
        let q = QFormat::new(8);
        let (a, b, c) = (q.from_f32(1.25), q.from_f32(-2.5), q.from_f32(0.75));
        assert_eq!(q.to_f32(q.mac(a, b, c)), 1.25 * -2.5 + 0.75);
    }

    #[test]
    fn segment_shift_matches_float_floor() {
        let q = QFormat::new(8);
        // Segments of length 0.25 starting at -2.0.
        let x_min = q.from_f32(-2.0);
        for (x, expect) in [(-2.0f32, 0), (-1.8, 0), (-1.75, 1), (0.0, 8), (1.99, 15)] {
            let idx = q.segment_shift(q.from_f32(x), x_min, -2);
            assert_eq!(idx, expect, "x = {x}");
        }
    }

    #[test]
    fn segment_shift_negative_below_range() {
        let q = QFormat::new(8);
        let x_min = q.from_f32(-2.0);
        // Below the range the raw index goes negative; capping happens later.
        assert!(q.segment_shift(q.from_f32(-3.0), x_min, -2) < 0);
    }

    #[test]
    fn display_names_q_format() {
        assert_eq!(QFormat::new(8).to_string(), "Q7.8");
        assert_eq!(QFormat::new(12).to_string(), "Q3.12");
    }

    #[test]
    #[should_panic]
    fn too_many_frac_bits_panics() {
        let _ = QFormat::new(16);
    }
}
