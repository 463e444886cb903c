//! Multi-channel 2-D convolution: shape bookkeeping and the naive MAC
//! reference (the paper's Algorithm 1).

use std::ops::Range;

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Shape of a convolution operator, following the paper's notation:
/// batch `B`, input channels `Ni`, output channels `No`, output spatial
/// `Ro × Co`, kernel `Kr × Kc`, plus stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    pub b: usize,
    pub ni: usize,
    pub no: usize,
    pub ro: usize,
    pub co: usize,
    pub kr: usize,
    pub kc: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvShape {
    /// Square-image, 3×3, stride-1, unpadded convolution (the shape family
    /// of the paper's Listing 1 sweep).
    pub fn square(b: usize, ni: usize, no: usize, ro: usize) -> Self {
        ConvShape { b, ni, no, ro, co: ro, kr: 3, kc: 3, stride: 1, pad: 0 }
    }

    /// Input rows needed for the configured output size.
    pub fn ri(&self) -> usize {
        (self.ro - 1) * self.stride + self.kr - 2 * self.pad
    }

    /// Input columns needed for the configured output size.
    pub fn ci(&self) -> usize {
        (self.co - 1) * self.stride + self.kc - 2 * self.pad
    }

    /// Input tensor shape in NCHW.
    pub fn input_shape(&self) -> Shape {
        Shape::from([self.b, self.ni, self.ri(), self.ci()])
    }

    /// Weight tensor shape `[No][Ni][Kr][Kc]`.
    pub fn weight_shape(&self) -> Shape {
        Shape::from([self.no, self.ni, self.kr, self.kc])
    }

    /// Output tensor shape in NCHW.
    pub fn output_shape(&self) -> Shape {
        Shape::from([self.b, self.no, self.ro, self.co])
    }

    /// MAC count of the direct convolution.
    pub fn macs(&self) -> u64 {
        (self.b * self.no * self.ro * self.co) as u64 * (self.ni * self.kr * self.kc) as u64
    }

    /// FLOP count (2 per MAC), the normaliser for all efficiency numbers —
    /// including Winograd, which is why its "efficiency" can exceed 100%.
    pub fn flops(&self) -> u64 {
        2 * self.macs()
    }

    /// Whether the Winograd F(2×2,3×3) method applies (3×3, stride 1).
    pub fn winograd_applicable(&self) -> bool {
        self.kr == 3 && self.kc == 3 && self.stride == 1
    }

    /// The outputs `o` of `outs` whose tap `tap` lands inside an input
    /// extent of `ins`: `0 <= o·stride + tap - pad < ins`. Every other
    /// output reads that tap from the zero padding.
    pub(crate) fn outputs_inside(&self, tap: usize, ins: usize, outs: usize) -> Range<usize> {
        let (stride, pad) = (self.stride, self.pad);
        pad.saturating_sub(tap).div_ceil(stride)
            ..(ins + pad).saturating_sub(tap).div_ceil(stride).min(outs)
    }

    /// The taps `k` of a kernel extent `extent` that output `o` reads inside
    /// an input extent of `ins`: the same inequality, solved for `k`.
    pub(crate) fn taps_inside(&self, o: usize, ins: usize, extent: usize) -> Range<usize> {
        let at = o * self.stride;
        self.pad.saturating_sub(at)..(ins + self.pad).saturating_sub(at).min(extent)
    }
}

/// An NCHW input copied to `[b][r][c][ni]`: one pixel's `Ni` channels side
/// by side.
pub(crate) fn channels_last(shape: &ConvShape, input: &Tensor) -> Vec<f32> {
    let (plane, chans) = (shape.ri() * shape.ci(), shape.ni);
    let mut x = vec![0.0f32; input.data().len()];
    for (b_ni, pixels) in input.data().chunks_exact(plane).enumerate() {
        let (b, ni) = (b_ni / chans, b_ni % chans);
        for (pixel, &v) in pixels.iter().enumerate() {
            x[(b * plane + pixel) * chans + ni] = v;
        }
    }
    x
}

/// Naive MAC-based direct convolution (Algorithm 1): one multiply-accumulate
/// per `(B, No, Ro, Co, Kr, Kc, Ni)`. Input NCHW, weight `[No][Ni][Kr][Kc]`,
/// output NCHW.
///
/// Every output element sums its products over `(Kr, Kc, Ni)` in that order
/// from zero, skipping the taps that fall in the zero padding. The loops keep
/// one output pixel's `No` accumulators side by side: `X` is read from a
/// channels-last copy and `W` from a `[Kr][Kc][Ni][No]` copy, so the
/// innermost loop — one input value times the `No` weights of one tap and
/// channel — is unit-stride in both, and each element still sees its
/// products in the same order.
pub fn conv2d_ref(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    assert_eq!(input.shape(), &shape.input_shape(), "input shape");
    assert_eq!(weight.shape(), &shape.weight_shape(), "weight shape");
    let (ri, ci, stride, pad) = (shape.ri(), shape.ci(), shape.stride, shape.pad);
    let (chans, outs, taps) = (shape.ni, shape.no, shape.kr * shape.kc);
    let x = channels_last(shape, input);
    // W as [tap][ni][no].
    let mut w = vec![0.0f32; weight.data().len()];
    for (no_ni, filter) in weight.data().chunks_exact(taps).enumerate() {
        let (no, ni) = (no_ni / chans, no_ni % chans);
        for (tap, &v) in filter.iter().enumerate() {
            w[(tap * chans + ni) * outs + no] = v;
        }
    }
    let mut out = Tensor::zeros(shape.output_shape());
    let y = out.data_mut();
    let mut acc = vec![0.0f32; outs];
    for b in 0..shape.b {
        for ro in 0..shape.ro {
            for co in 0..shape.co {
                acc.fill(0.0);
                for kr in shape.taps_inside(ro, ri, shape.kr) {
                    let r = ro * stride + kr - pad;
                    for kc in shape.taps_inside(co, ci, shape.kc) {
                        let c = co * stride + kc - pad;
                        let x_px = &x[((b * ri + r) * ci + c) * chans..][..chans];
                        let w_tap = &w[(kr * shape.kc + kc) * chans * outs..][..chans * outs];
                        for (&x, w_ni) in x_px.iter().zip(w_tap.chunks_exact(outs)) {
                            for (a, &w) in acc.iter_mut().zip(w_ni) {
                                *a += x * w;
                            }
                        }
                    }
                }
                let pixel = ro * shape.co + co;
                for (no, &a) in acc.iter().enumerate() {
                    y[((b * outs + no) * shape.ro) * shape.co + pixel] = a;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_tensor;

    #[test]
    fn shape_arithmetic() {
        let s = ConvShape::square(2, 8, 4, 6);
        assert_eq!(s.ri(), 8);
        assert_eq!(s.ci(), 8);
        assert_eq!(s.input_shape().dims(), &[2, 8, 8, 8]);
        assert_eq!(s.output_shape().dims(), &[2, 4, 6, 6]);
        assert_eq!(s.macs(), (2 * 4 * 6 * 6 * 8 * 9) as u64);
        assert!(s.winograd_applicable());
    }

    #[test]
    fn strided_shape() {
        let s = ConvShape { b: 1, ni: 3, no: 8, ro: 16, co: 16, kr: 3, kc: 3, stride: 2, pad: 0 };
        assert_eq!(s.ri(), 33);
        assert!(!s.winograd_applicable());
    }

    #[test]
    fn padded_shape() {
        // Same-padding 3×3 conv: pad 1 keeps spatial size.
        let s = ConvShape { b: 1, ni: 2, no: 2, ro: 8, co: 8, kr: 3, kc: 3, stride: 1, pad: 1 };
        assert_eq!(s.ri(), 8);
        assert_eq!(s.ci(), 8);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1×1 kernel with weight = identity over channels copies the input.
        let s = ConvShape { b: 1, ni: 2, no: 2, ro: 4, co: 4, kr: 1, kc: 1, stride: 1, pad: 0 };
        let input = random_tensor(s.input_shape().dims().to_vec(), 11);
        let mut w = Tensor::zeros(s.weight_shape().dims().to_vec());
        *w.at_mut(&[0, 0, 0, 0]) = 1.0;
        *w.at_mut(&[1, 1, 0, 0]) = 1.0;
        let out = conv2d_ref(&s, &input, &w);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn averaging_kernel() {
        // All-ones 2×2 kernel over a constant image sums 4·Ni values.
        let s = ConvShape { b: 1, ni: 3, no: 1, ro: 3, co: 3, kr: 2, kc: 2, stride: 1, pad: 0 };
        let input = Tensor::from_fn(s.input_shape().dims().to_vec(), |_| 0.5);
        let w = Tensor::from_fn(s.weight_shape().dims().to_vec(), |_| 1.0);
        let out = conv2d_ref(&s, &input, &w);
        assert!(out.data().iter().all(|&x| (x - 6.0).abs() < 1e-6));
    }

    #[test]
    fn padding_zeroes_border_contributions() {
        let s = ConvShape { b: 1, ni: 1, no: 1, ro: 3, co: 3, kr: 3, kc: 3, stride: 1, pad: 1 };
        let input = Tensor::from_fn(s.input_shape().dims().to_vec(), |_| 1.0);
        let w = Tensor::from_fn(s.weight_shape().dims().to_vec(), |_| 1.0);
        let out = conv2d_ref(&s, &input, &w);
        // Corner output sees only a 2×2 valid window; centre sees 3×3.
        assert_eq!(out.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(out.at(&[0, 0, 1, 1]), 9.0);
    }
}
