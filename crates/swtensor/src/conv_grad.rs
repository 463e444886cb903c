//! Golden references for convolution gradients (the training-side
//! operators swDNN exposes alongside the forward pass).
//!
//! For `Y = conv(X, W)` (stride 1, padding `p`):
//!
//! * **backward-data**: `dX = conv(pad(dY, K-1-p), rot180_swap(W))` — a
//!   full-correlation with the filter rotated 180° spatially and its
//!   channel axes swapped;
//! * **backward-filter**: `dW[no][ni][kr][kc] = Σ_{b,ro,co}
//!   dY[b][no][ro][co] · X[b][ni][ro+kr][co+kc]` — itself a batch of
//!   GEMM-shaped contractions over `(b, ro, co)`.
//!
//! Both are therefore *tensorizable* with the same machinery as the
//! forward pass, which is exactly how the framework lowers them.

use crate::conv::{conv2d_ref, ConvShape};
use crate::tensor::Tensor;

/// Reference backward-data: given `dY` (NCHW, the output gradient) and the
/// forward weights, produce `dX` (NCHW, the input gradient). Stride-1
/// convolutions only (strided backward-data is a dilated scatter).
pub fn conv2d_backward_data_ref(shape: &ConvShape, d_out: &Tensor, weight: &Tensor) -> Tensor {
    assert_eq!(shape.stride, 1, "backward-data reference requires stride 1");
    assert_eq!(d_out.shape(), &shape.output_shape());
    assert_eq!(weight.shape(), &shape.weight_shape());

    // Rotate the filter 180° spatially and swap the channel axes:
    // w'[ni][no][kr][kc] = w[no][ni][Kr-1-kr][Kc-1-kc].
    let mut w_rot = Tensor::zeros([shape.ni, shape.no, shape.kr, shape.kc]);
    for no in 0..shape.no {
        for ni in 0..shape.ni {
            for kr in 0..shape.kr {
                for kc in 0..shape.kc {
                    *w_rot.at_mut(&[ni, no, shape.kr - 1 - kr, shape.kc - 1 - kc]) =
                        weight.at(&[no, ni, kr, kc]);
                }
            }
        }
    }
    // Full correlation: pad dY by (K-1-p) on each side so the "output" of
    // the auxiliary convolution is the input gradient.
    let grad_shape = ConvShape {
        b: shape.b,
        ni: shape.no,
        no: shape.ni,
        ro: shape.ri(),
        co: shape.ci(),
        kr: shape.kr,
        kc: shape.kc,
        stride: 1,
        pad: shape.kr - 1 - shape.pad,
    };
    assert_eq!(grad_shape.ri(), shape.ro, "gradient conv geometry");
    conv2d_ref(&grad_shape, d_out, &w_rot)
}

/// Reference backward-filter: given the forward input `X` and the output
/// gradient `dY`, produce `dW` (`[No][Ni][Kr][Kc]`). One accumulator per
/// filter tap, summed over `(b, ro, co)` in that order from zero.
///
/// A tap's sum is one serial chain of adds over `B` whole planes, so the
/// loops advance the `Ni` chains of a tap side by side: `X` is read from a
/// channels-last copy and the accumulators are kept `[No][Kr][Kc][Ni]`, which
/// makes the innermost loop — one `dY` element times the `Ni` channels of one
/// input pixel — unit-stride in both. Each tap still sees its products in
/// the same order.
pub fn conv2d_backward_filter_ref(shape: &ConvShape, input: &Tensor, d_out: &Tensor) -> Tensor {
    assert_eq!(input.shape(), &shape.input_shape());
    assert_eq!(d_out.shape(), &shape.output_shape());
    let (ri, ci, stride, pad) = (shape.ri(), shape.ci(), shape.stride, shape.pad);
    let (chans, taps) = (shape.ni, shape.kr * shape.kc);
    // X as [b][r][c][ni].
    let mut x = vec![0.0f32; input.data().len()];
    for (b_ni, plane) in input.data().chunks_exact(ri * ci).enumerate() {
        let (b, ni) = (b_ni / chans, b_ni % chans);
        for (pixel, &v) in plane.iter().enumerate() {
            x[(b * ri * ci + pixel) * chans + ni] = v;
        }
    }
    // The taps `k` of `extent` that output `o` reads inside the input with:
    // 0 <= o·stride + k - pad < ins.
    let inside = |o: usize, ins: usize, extent: usize| {
        pad.saturating_sub(o * stride)..(ins + pad).saturating_sub(o * stride).min(extent)
    };
    let mut acc = vec![0.0f32; shape.no * taps * chans];
    for (b_no, dy_plane) in d_out.data().chunks_exact(shape.ro * shape.co).enumerate() {
        let (b, no) = (b_no / shape.no, b_no % shape.no);
        for (ro_co, &d) in dy_plane.iter().enumerate() {
            let (ro, co) = (ro_co / shape.co, ro_co % shape.co);
            for kr in inside(ro, ri, shape.kr) {
                for kc in inside(co, ci, shape.kc) {
                    let pixel = (ro * stride + kr - pad) * ci + co * stride + kc - pad;
                    let x_px = &x[(b * ri * ci + pixel) * chans..][..chans];
                    let acc_tap = &mut acc[(no * taps + kr * shape.kc + kc) * chans..][..chans];
                    for (a, &x) in acc_tap.iter_mut().zip(x_px) {
                        *a += d * x;
                    }
                }
            }
        }
    }
    // [no][tap][ni] back to [no][ni][tap].
    let mut dw = Tensor::zeros(shape.weight_shape());
    for (no_ni, filter) in dw.data_mut().chunks_exact_mut(taps).enumerate() {
        let (no, ni) = (no_ni / chans, no_ni % chans);
        for (tap, w) in filter.iter_mut().enumerate() {
            *w = acc[(no * taps + tap) * chans + ni];
        }
    }
    dw
}

/// [`conv2d_backward_filter_ref`] one tap at a time, every element addressed
/// through `Tensor::at`: the oracle the channels-last version must equal
/// exactly.
#[cfg(test)]
fn conv2d_backward_filter_ref_at(shape: &ConvShape, input: &Tensor, d_out: &Tensor) -> Tensor {
    let (ri, ci) = (shape.ri(), shape.ci());
    let mut dw = Tensor::zeros(shape.weight_shape());
    for no in 0..shape.no {
        for ni in 0..shape.ni {
            for kr in 0..shape.kr {
                for kc in 0..shape.kc {
                    let mut acc = 0.0f32;
                    for b in 0..shape.b {
                        for ro in 0..shape.ro {
                            for co in 0..shape.co {
                                let r = (ro * shape.stride + kr) as isize - shape.pad as isize;
                                let c = (co * shape.stride + kc) as isize - shape.pad as isize;
                                if r < 0 || c < 0 || r as usize >= ri || c as usize >= ci {
                                    continue;
                                }
                                acc += d_out.at(&[b, no, ro, co])
                                    * input.at(&[b, ni, r as usize, c as usize]);
                            }
                        }
                    }
                    *dw.at_mut(&[no, ni, kr, kc]) = acc;
                }
            }
        }
    }
    dw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::assert_close;
    use crate::init::random_tensor;

    #[test]
    fn slice_indexing_equals_the_at_based_nest() {
        for (i, s) in crate::conv::oracle_shapes().iter().enumerate() {
            let x = random_tensor(s.input_shape(), 300 + i as u64);
            let dy = random_tensor(s.output_shape(), 400 + i as u64);
            let got = conv2d_backward_filter_ref(s, &x, &dy);
            let want = conv2d_backward_filter_ref_at(s, &x, &dy);
            assert_eq!(got.shape(), want.shape(), "{s:?}");
            assert!(
                got.data().iter().zip(want.data()).all(|(g, w)| g.to_bits() == w.to_bits()),
                "{s:?}"
            );
        }
    }

    /// Finite-difference check of backward-data: dX must equal the
    /// derivative of Σ(dY ⊙ Y) w.r.t. X, which for the linear conv is the
    /// analytic transpose — validated here by the adjoint identity
    /// ⟨dY, conv(X)⟩ = ⟨convᵀ(dY), X⟩ with random tensors.
    #[test]
    fn backward_data_is_the_adjoint() {
        for pad in [0usize, 1] {
            let s = ConvShape { b: 2, ni: 3, no: 4, ro: 5, co: 5, kr: 3, kc: 3, stride: 1, pad };
            let x = random_tensor(s.input_shape().dims().to_vec(), 1);
            let w = random_tensor(s.weight_shape().dims().to_vec(), 2);
            let dy = random_tensor(s.output_shape().dims().to_vec(), 3);
            let y = conv2d_ref(&s, &x, &w);
            let dx = conv2d_backward_data_ref(&s, &dy, &w);
            let lhs: f64 =
                y.data().iter().zip(dy.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            let rhs: f64 =
                dx.data().iter().zip(x.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
                "adjoint identity violated (pad {pad}): {lhs} vs {rhs}"
            );
        }
    }

    /// Same adjoint identity for backward-filter:
    /// ⟨dY, conv(X; W)⟩ = ⟨dW, W⟩.
    #[test]
    fn backward_filter_is_the_adjoint() {
        for (stride, pad) in [(1usize, 0usize), (1, 1), (2, 1)] {
            let s = ConvShape { b: 2, ni: 3, no: 2, ro: 4, co: 4, kr: 3, kc: 3, stride, pad };
            let x = random_tensor(s.input_shape().dims().to_vec(), 4);
            let w = random_tensor(s.weight_shape().dims().to_vec(), 5);
            let dy = random_tensor(s.output_shape().dims().to_vec(), 6);
            let y = conv2d_ref(&s, &x, &w);
            let dw = conv2d_backward_filter_ref(&s, &x, &dy);
            let lhs: f64 =
                y.data().iter().zip(dy.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            let rhs: f64 =
                dw.data().iter().zip(w.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
                "adjoint identity violated (stride {stride}, pad {pad}): {lhs} vs {rhs}"
            );
        }
    }

    /// 1×1 kernels make backward-data a plain channel-transposed GEMM.
    #[test]
    fn one_by_one_backward_data() {
        let s = ConvShape { b: 1, ni: 2, no: 3, ro: 4, co: 4, kr: 1, kc: 1, stride: 1, pad: 0 };
        let w = random_tensor(s.weight_shape().dims().to_vec(), 7);
        let dy = random_tensor(s.output_shape().dims().to_vec(), 8);
        let dx = conv2d_backward_data_ref(&s, &dy, &w);
        // dx[b][ni][r][c] = Σ_no w[no][ni] · dy[b][no][r][c]
        for b in 0..1 {
            for ni in 0..2 {
                for r in 0..4 {
                    for c in 0..4 {
                        let mut acc = 0.0;
                        for no in 0..3 {
                            acc += w.at(&[no, ni, 0, 0]) * dy.at(&[b, no, r, c]);
                        }
                        assert!((dx.at(&[b, ni, r, c]) - acc).abs() < 1e-5);
                    }
                }
            }
        }
    }

    /// Explicit small-case check of backward-filter against hand expansion.
    #[test]
    fn tiny_backward_filter_by_hand() {
        // 1 batch, 1 in, 1 out channel, 2×2 input, 1×1 output, 2×2 kernel.
        let s = ConvShape { b: 1, ni: 1, no: 1, ro: 1, co: 1, kr: 2, kc: 2, stride: 1, pad: 0 };
        let x = Tensor::from_vec(s.input_shape().dims().to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let dy = Tensor::from_vec(s.output_shape().dims().to_vec(), vec![5.0]);
        let dw = conv2d_backward_filter_ref(&s, &x, &dy);
        assert_close(dw.data(), &[5.0, 10.0, 15.0, 20.0], 1e-6, 1e-6, "dW");
    }
}
