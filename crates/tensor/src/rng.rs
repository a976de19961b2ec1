//! Deterministic pseudo-random number generation.
//!
//! A self-contained PCG-32 generator keeps every experiment in the
//! repository bit-reproducible across platforms and crate versions — no
//! external RNG crate is needed, which also keeps the dependency policy in
//! `DESIGN.md` honest.

use crate::Tensor;

/// Permuted congruential generator (PCG-XSH-RR 64/32).
///
/// # Example
///
/// ```
/// use onesa_tensor::rng::Pcg32;
///
/// let mut a = Pcg32::seed_from_u64(42);
/// let mut b = Pcg32::seed_from_u64(42);
/// assert_eq!(a.next_u32(), b.next_u32());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;
const PCG_DEFAULT_INC: u64 = 1_442_695_040_888_963_407;

impl Pcg32 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: PCG_DEFAULT_INC | 1,
        };
        let _ = rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        let _ = rng.next_u32();
        rng
    }

    /// Creates a generator with an independent stream id, for decorrelated
    /// parallel streams.
    pub fn seed_with_stream(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        let _ = rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        let _ = rng.next_u32();
        rng
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            let m = (r as u64) * (bound as u64);
            if (m as u32) >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        loop {
            let u1 = self.next_f32();
            if u1 > f32::EPSILON {
                let u2 = self.next_f32();
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (2.0 * std::f32::consts::PI * u2).cos();
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Tensor of i.i.d. standard-normal entries scaled by `std`.
    pub fn randn(&mut self, dims: &[usize], std: f32) -> Tensor {
        let volume: usize = dims.iter().product();
        let data = (0..volume).map(|_| self.normal() * std).collect();
        Tensor::from_vec(data, dims).expect("volume matches by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Pcg32::seed_from_u64(7);
        let mut b = Pcg32::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::seed_from_u64(1);
        let mut b = Pcg32::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Pcg32::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg32::seed_from_u64(4);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = rng.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Pcg32::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::seed_from_u64(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn randn_shape() {
        let mut rng = Pcg32::seed_from_u64(8);
        let t = rng.randn(&[3, 4], 0.1);
        assert_eq!(t.dims(), &[3, 4]);
        assert!(t.as_slice().iter().all(|x| x.abs() < 1.0));
    }
}
