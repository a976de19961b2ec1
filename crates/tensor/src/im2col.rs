//! Convolution-as-GEMM lowering.
//!
//! Systolic arrays execute convolutions by first unrolling input patches
//! into a matrix (`im2col`), turning the convolution into one general
//! matrix multiply — exactly the transformation the paper assumes when it
//! says "linear computations can be succinctly expressed as general matrix
//! multiplications".
//!
//! The patch matrix stays the array's view of a convolution — what the
//! modeled clock costs and what the reference oracles (`Conv2d::infer`,
//! the `*_direct` models) multiply — and `Op::Im2col` still builds it
//! wherever a program reads it as a value. The served path does not:
//! `onesa-plan` runs an `Im2col` → `Gemm` → `Col2im` chain as one
//! [`parallel::conv2d`](crate::parallel::conv2d) sweep, which reads each
//! line of the transposed patch matrix in place, from one zero-padded copy
//! of the image.

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height and width (square kernels).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output spatial size for an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the stride or the
    /// kernel is zero, the padded input size overflows `usize`, or the
    /// kernel does not fit the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be nonzero"));
        }
        if self.kernel == 0 {
            return Err(TensorError::InvalidArgument("kernel must be nonzero"));
        }
        let padded = |x: usize| {
            self.padding
                .checked_mul(2)
                .and_then(|p| x.checked_add(p))
                .ok_or(TensorError::InvalidArgument("padded input size overflows"))
        };
        let (ph, pw) = (padded(h)?, padded(w)?);
        if ph < self.kernel || pw < self.kernel {
            return Err(TensorError::InvalidArgument(
                "kernel larger than padded input",
            ));
        }
        Ok((
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        ))
    }

    /// Rows of the im2col matrix (= patch volume `Cin·k·k`).
    ///
    /// # Panics
    ///
    /// Panics in a debug build if the volume overflows `usize`; a caller
    /// holding an untrusted geometry uses
    /// [`Conv2dGeometry::checked_patch_len`].
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// [`Conv2dGeometry::patch_len`], checked.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] if `Cin·k·k` overflows `usize`.
    pub fn checked_patch_len(&self) -> Result<usize> {
        self.kernel
            .checked_mul(self.kernel)
            .and_then(|kk| kk.checked_mul(self.in_channels))
            .ok_or(TensorError::InvalidArgument("patch volume overflows"))
    }

    /// Output pixels `oh · ow` for an `h × w` input, checked.
    ///
    /// # Errors
    ///
    /// As for [`Conv2dGeometry::output_hw`], and
    /// [`TensorError::InvalidArgument`] if the product overflows `usize`.
    pub fn output_pixels(&self, h: usize, w: usize) -> Result<usize> {
        let (oh, ow) = self.output_hw(h, w)?;
        oh.checked_mul(ow)
            .ok_or(TensorError::InvalidArgument("output pixel count overflows"))
    }
}

/// Unrolls a `[C, H, W]` input into a `[out_h·out_w, C·k·k]` patch matrix.
///
/// Multiplying the result by the `[C·k·k, out_channels]` reshaped kernel
/// yields the convolution output as a `[out_h·out_w, out_channels]` matrix.
///
/// # Errors
///
/// Returns a shape error if `input` is not `[C, H, W]` with
/// `C = geometry.in_channels`, or an invalid-argument error from
/// [`Conv2dGeometry::output_hw`].
pub fn im2col(input: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    let dims = input.dims();
    if dims.len() != 3 || dims[0] != geo.in_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: dims.to_vec(),
            rhs: vec![geo.in_channels, 0, 0],
            op: "im2col",
        });
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let ow = geo.output_hw(h, w)?.1;
    let patch = geo.checked_patch_len()?;
    let mut out = Tensor::zeros(&[geo.output_pixels(h, w)?, patch]);
    let data = input.as_slice();
    let cols = out.as_mut_slice();
    let (k, pad, stride) = (geo.kernel, geo.padding, geo.stride);
    // Where each patch element sits in the input relative to its window's
    // origin in *padded* coordinates; `shift` takes the padding back off.
    // A window that lies wholly inside the image — almost all of them —
    // is one flat gather through this table, no test per tap.
    let taps: Vec<usize> = (0..patch)
        .map(|i| (i / (k * k)) * h * w + (i / k % k) * w + i % k)
        .collect();
    let shift = pad * w + pad;
    // The taps of a window starting at padded coordinate `at` that land
    // inside an axis of `extent` pixels, clipped once per output pixel.
    // Whatever is clipped away keeps the zero the matrix starts with.
    let clip = |at: usize, extent: usize| {
        let lo = pad.saturating_sub(at).min(k);
        lo..(extent + pad).saturating_sub(at).min(k).max(lo)
    };
    for (pixel, row) in cols.chunks_exact_mut(patch.max(1)).enumerate() {
        let (oy, ox) = (pixel / ow, pixel % ow);
        let (kys, kxs) = (clip(oy * stride, h), clip(ox * stride, w));
        let origin = oy * stride * w + ox * stride;
        if kys.len() == k && kxs.len() == k {
            let window = &data[origin - shift..];
            for (v, &tap) in row.iter_mut().zip(&taps) {
                *v = window[tap];
            }
            continue;
        }
        for ch in 0..c {
            for ky in kys.clone() {
                for kx in kxs.clone() {
                    let i = (ch * k + ky) * k + kx;
                    row[i] = data[origin + taps[i] - shift];
                }
            }
        }
    }
    Ok(out)
}

/// Reassembles a `[out_h·out_w, out_channels]` GEMM result into a
/// `[out_channels, out_h, out_w]` feature map.
///
/// # Errors
///
/// Returns a shape error if `cols` does not match the given geometry.
pub fn col2im_output(cols: &Tensor, out_channels: usize, oh: usize, ow: usize) -> Result<Tensor> {
    let (rows, ch) = cols.shape().as_matrix()?;
    if oh.checked_mul(ow) != Some(rows) || ch != out_channels {
        return Err(TensorError::ShapeMismatch {
            lhs: cols.dims().to_vec(),
            rhs: vec![oh, ow, out_channels],
            op: "col2im_output",
        });
    }
    let mut out = Tensor::zeros(&[out_channels, oh, ow]);
    let (dst, src) = (out.as_mut_slice(), cols.as_slice());
    for r in 0..rows {
        for c in 0..ch {
            dst[c * oh * ow + r] = src[r * ch + c];
        }
    }
    Ok(out)
}

/// Direct (reference) convolution used to validate the im2col path.
///
/// `input` is `[C, H, W]`; `weight` is `[out_channels, C, k, k]` flattened
/// into `[out_channels, C·k·k]`.
///
/// # Errors
///
/// Shape errors mirror [`im2col`].
pub fn conv2d_direct(input: &Tensor, weight: &Tensor, geo: &Conv2dGeometry) -> Result<Tensor> {
    let dims = input.dims();
    if dims.len() != 3 {
        return Err(TensorError::NotAMatrix { rank: dims.len() });
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let (oh, ow) = geo.output_hw(h, w)?;
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let mut out = Tensor::zeros(&[geo.out_channels, oh, ow]);
    let dst = out.as_mut_slice();
    for oc in 0..geo.out_channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ch in 0..c {
                    for ky in 0..k {
                        let iy = (oy * geo.stride) as isize - pad + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * geo.stride) as isize - pad + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let iv = input.as_slice()[ch * h * w + iy as usize * w + ix as usize];
                            let wv = weight.as_slice()[oc * c * k * k + ch * k * k + ky * k + kx];
                            acc += iv * wv;
                        }
                    }
                }
                dst[oc * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;

    fn geo(cin: usize, cout: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: cin,
            out_channels: cout,
            kernel: k,
            stride,
            padding: pad,
        }
    }

    #[test]
    fn output_geometry() {
        let g = geo(3, 8, 3, 1, 1);
        assert_eq!(g.output_hw(8, 8).unwrap(), (8, 8));
        let g2 = geo(3, 8, 3, 2, 1);
        assert_eq!(g2.output_hw(8, 8).unwrap(), (4, 4));
        assert!(geo(1, 1, 3, 0, 0).output_hw(8, 8).is_err());
        assert!(geo(1, 1, 9, 1, 0).output_hw(8, 8).is_err());
    }

    #[test]
    fn hostile_geometry_is_an_error_not_an_overflow() {
        assert!(geo(1, 1, 0, 1, 0).output_hw(8, 8).is_err());
        assert!(geo(1, 1, 3, 1, 1 << 63).output_hw(8, 8).is_err());
        assert!(geo(1, 1, 3, 1, usize::MAX / 2).output_hw(8, 8).is_err());
        let huge = geo(1 << 62, 1, 1 << 33, 1, 1 << 33);
        assert_eq!(
            huge.output_hw(8, 8).unwrap(),
            ((1 << 33) + 9, (1 << 33) + 9)
        );
        assert!(huge.output_pixels(8, 8).is_err());
        assert!(huge.checked_patch_len().is_err());
        assert_eq!(geo(3, 8, 3, 1, 1).checked_patch_len().unwrap(), 27);
        assert_eq!(geo(3, 8, 3, 2, 1).output_pixels(8, 8).unwrap(), 16);
        let cols = Tensor::zeros(&[4, 3]);
        assert!(col2im_output(&cols, 3, 1 << 33, 1 << 33).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is just a channels-last reshuffle.
        let input = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 2, 2]).unwrap();
        let g = geo(2, 1, 1, 1, 0);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 2]);
        assert_eq!(cols.at(&[0, 0]).unwrap(), 0.0);
        assert_eq!(cols.at(&[0, 1]).unwrap(), 4.0);
        assert_eq!(cols.at(&[3, 0]).unwrap(), 3.0);
        assert_eq!(cols.at(&[3, 1]).unwrap(), 7.0);
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let g = geo(3, 5, 3, 1, 1);
        let h = 6;
        let w = 7;
        let input = Tensor::from_vec(
            (0..3 * h * w)
                .map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1)
                .collect(),
            &[3, h, w],
        )
        .unwrap();
        let weight = Tensor::from_vec(
            (0..5 * 3 * 9)
                .map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.05)
                .collect(),
            &[5, 3 * 9],
        )
        .unwrap();

        let direct = conv2d_direct(&input, &weight, &g).unwrap();

        let (oh, ow) = g.output_hw(h, w).unwrap();
        let cols = im2col(&input, &g).unwrap();
        let wt = weight.transpose().unwrap();
        let prod = gemm::matmul(&cols, &wt).unwrap();
        let folded = col2im_output(&prod, 5, oh, ow).unwrap();

        assert_eq!(direct.dims(), folded.dims());
        for (a, b) in direct.as_slice().iter().zip(folded.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn im2col_with_stride_and_padding() {
        let g = geo(1, 1, 3, 2, 1);
        let input = Tensor::from_vec((0..25).map(|i| i as f32).collect(), &[1, 5, 5]).unwrap();
        let cols = im2col(&input, &g).unwrap();
        // (5 + 2 - 3)/2 + 1 = 3 outputs per axis.
        assert_eq!(cols.dims(), &[9, 9]);
        // First patch is the top-left corner: padded row and column are 0.
        let first = cols.row(0).unwrap();
        assert_eq!(first, &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 5.0, 6.0]);
    }

    /// The loop `im2col` replaced: one bounds-tested store per tap.
    fn im2col_by_taps(input: &Tensor, geo: &Conv2dGeometry) -> Tensor {
        let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
        let (oh, ow) = geo.output_hw(h, w).unwrap();
        let (k, patch) = (geo.kernel, geo.patch_len());
        let mut out = Tensor::zeros(&[oh * ow, patch]);
        let dst = out.as_mut_slice();
        for oy in 0..oh {
            for ox in 0..ow {
                for ch in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * geo.stride + ky) as isize - geo.padding as isize;
                            let ix = (ox * geo.stride + kx) as isize - geo.padding as isize;
                            if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[(oy * ow + ox) * patch + ch * k * k + ky * k + kx] =
                                input.as_slice()[ch * h * w + iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
        out
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every geometry — strides, paddings wider than the kernel,
        /// windows that hang off an edge, 1-pixel images — unrolls to the
        /// same bits as the tap-by-tap loop, and multiplies out to the
        /// direct convolution.
        #[test]
        fn prop_im2col_matches_tap_loop_and_direct_conv(
            (c, h, w) in (1usize..4, 1usize..12, 1usize..12),
            (k, stride, pad) in (1usize..5, 1usize..4, 0usize..6),
            seed in 0u64..1 << 32,
        ) {
            let g = geo(c, 2, k, stride, pad);
            prop_assume!(g.output_hw(h, w).is_ok());
            let mut rng = crate::rng::Pcg32::seed_from_u64(seed);
            let input = rng.randn(&[c, h, w], 1.0);
            let cols = im2col(&input, &g).unwrap();
            let want = im2col_by_taps(&input, &g);
            prop_assert_eq!(cols.dims(), want.dims());
            for (a, b) in cols.as_slice().iter().zip(want.as_slice()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let weight = rng.randn(&[2, g.patch_len()], 1.0);
            let (oh, ow) = g.output_hw(h, w).unwrap();
            let prod = gemm::matmul(&cols, &weight.transpose().unwrap()).unwrap();
            let folded = col2im_output(&prod, 2, oh, ow).unwrap();
            let direct = conv2d_direct(&input, &weight, &g).unwrap();
            for (a, b) in folded.as_slice().iter().zip(direct.as_slice()) {
                prop_assert!((a - b).abs() < 1e-3, "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn col2im_shape_check() {
        let cols = Tensor::zeros(&[4, 3]);
        assert!(col2im_output(&cols, 3, 2, 2).is_ok());
        assert!(col2im_output(&cols, 2, 2, 2).is_err());
        assert!(col2im_output(&cols, 3, 3, 2).is_err());
    }
}
