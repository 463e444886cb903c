//! Multi-channel 2-D convolution: shape bookkeeping and the naive MAC
//! reference (the paper's Algorithm 1).

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
}

/// Naive MAC-based direct convolution (Algorithm 1): one multiply-accumulate
/// per `(B, No, Ro, Co, Kr, Kc, Ni)`. Input NCHW, weight `[No][Ni][Kr][Kc]`,
/// output NCHW.
///
/// Every output element sums its products over `(Kr, Kc, Ni)` in that order
/// from zero, skipping the taps that fall in the zero padding. The loops run
/// with the output plane innermost — one tap of one input channel is added
/// to a whole output plane, row by row, so the innermost loop walks a row of
/// the input and a row of the output instead of striding across `Ni` planes
/// — which leaves each element's sum and its order as they are.
pub fn conv2d_ref(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    assert_eq!(input.shape(), &shape.input_shape(), "input shape");
    assert_eq!(weight.shape(), &shape.weight_shape(), "weight shape");
    let mut out = Tensor::zeros(shape.output_shape());
    let (ri, ci, stride, pad) = (shape.ri(), shape.ci(), shape.stride, shape.pad);
    let (x_len, w_len) = (ri * ci, shape.kr * shape.kc);
    // The outputs `o` of `outs` whose tap lands inside the input extent:
    // 0 <= o·stride + tap - pad < ins.
    let inside = |tap: usize, ins: usize, outs: usize| {
        pad.saturating_sub(tap).div_ceil(stride)
            ..(ins + pad).saturating_sub(tap).div_ceil(stride).min(outs)
    };
    let (x, w) = (input.data(), weight.data());
    let y_planes = out.data_mut().chunks_exact_mut(shape.ro * shape.co);
    for (b_no, y_plane) in y_planes.enumerate() {
        let (b, no) = (b_no / shape.no, b_no % shape.no);
        for kr in 0..shape.kr {
            let rows = inside(kr, ri, shape.ro);
            for kc in 0..shape.kc {
                let cols = inside(kc, ci, shape.co);
                if cols.is_empty() {
                    continue;
                }
                let x_col = cols.start * stride + kc - pad;
                for ni in 0..shape.ni {
                    let w_tap = w[(no * shape.ni + ni) * w_len + kr * shape.kc + kc];
                    let x_plane = &x[(b * shape.ni + ni) * x_len..][..x_len];
                    for ro in rows.clone() {
                        let y_row = &mut y_plane[ro * shape.co..][cols.clone()];
                        let x_row = &x_plane[(ro * stride + kr - pad) * ci + x_col..];
                        // Spelled out for stride 1: through `step_by(1)` the
                        // loop is not vectorised and runs at half the speed.
                        if stride == 1 {
                            for (y, &x) in y_row.iter_mut().zip(x_row) {
                                *y += x * w_tap;
                            }
                        } else {
                            for (y, &x) in y_row.iter_mut().zip(x_row.iter().step_by(stride)) {
                                *y += x * w_tap;
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// [`conv2d_ref`] as one accumulator per output element, every element
/// addressed through `Tensor::at`: the oracle the row-at-a-time version must
/// equal exactly.
#[cfg(test)]
fn conv2d_ref_at(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(shape.output_shape());
    let (ri, ci) = (shape.ri(), shape.ci());
    for b in 0..shape.b {
        for ro in 0..shape.ro {
            for co in 0..shape.co {
                for kr in 0..shape.kr {
                    for kc in 0..shape.kc {
                        let r = (ro * shape.stride + kr) as isize - shape.pad as isize;
                        let c = (co * shape.stride + kc) as isize - shape.pad as isize;
                        if r < 0 || c < 0 || r as usize >= ri || c as usize >= ci {
                            continue;
                        }
                        let (r, c) = (r as usize, c as usize);
                        for no in 0..shape.no {
                            let mut acc = out.at(&[b, no, ro, co]);
                            for ni in 0..shape.ni {
                                acc += input.at(&[b, ni, r, c]) * weight.at(&[no, ni, kr, kc]);
                            }
                            *out.at_mut(&[b, no, ro, co]) = acc;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Shapes covering pad 0/1, stride 2, 1×1 kernels, non-square images and
/// kernels, a mesh-aligned shape, stride 2 with padding, and the geometry
/// backward-data runs the forward reference at (pad `K-1-p` = 2).
#[cfg(test)]
pub(crate) fn oracle_shapes() -> Vec<ConvShape> {
    let mut rng = crate::init::XorShift::new(2019);
    let mut pick = |lo: usize, hi: usize| lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize;
    let mut shapes = vec![
        ConvShape { b: 1, ni: 1, no: 1, ro: 1, co: 1, kr: 1, kc: 1, stride: 1, pad: 0 },
        ConvShape { b: 2, ni: 3, no: 4, ro: 7, co: 7, kr: 3, kc: 3, stride: 1, pad: 2 },
        ConvShape { b: 1, ni: 2, no: 2, ro: 5, co: 6, kr: 3, kc: 3, stride: 1, pad: 1 },
        ConvShape::square(2, 8, 8, 8),
        ConvShape { b: 1, ni: 3, no: 2, ro: 4, co: 5, kr: 3, kc: 2, stride: 2, pad: 1 },
    ];
    for _ in 0..24 {
        let (kr, kc) = (pick(1, 3), pick(1, 3));
        shapes.push(ConvShape {
            b: pick(1, 3),
            ni: pick(1, 5),
            no: pick(1, 5),
            ro: pick(2, 6),
            co: pick(2, 6),
            kr,
            kc,
            stride: pick(1, 2),
            // `ri()`/`ci()` must stay positive: pad < kernel extent.
            pad: pick(0, 1).min(kr.min(kc) - 1),
        });
    }
    shapes
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
    fn slice_indexing_equals_the_at_based_nest() {
        for (i, s) in oracle_shapes().iter().enumerate() {
            let input = random_tensor(s.input_shape(), 100 + i as u64);
            let w = random_tensor(s.weight_shape(), 200 + i as u64);
            let got = conv2d_ref(s, &input, &w);
            let want = conv2d_ref_at(s, &input, &w);
            assert_eq!(got.shape(), want.shape(), "{s:?}");
            assert!(
                got.data().iter().zip(want.data()).all(|(g, w)| g.to_bits() == w.to_bits()),
                "{s:?}"
            );
        }
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
