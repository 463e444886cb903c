//! Explicit-GEMM convolution support: the `im2col` expansion.
//!
//! The explicit method (paper Fig. 2, left) first expands the image into a
//! column matrix, then performs one big matrix multiplication against the
//! filter matrix:
//!
//! ```text
//! cols   : (Ni·Kr·Kc) × (B·Ro·Co)
//! filter : No × (Ni·Kr·Kc)        (weights reshaped)
//! output : No × (B·Ro·Co) = filter · cols
//! ```

use crate::conv::ConvShape;
use crate::gemm::gemm_rowmajor;
use crate::tensor::Tensor;

/// Expand an NCHW input into the im2col column matrix, stored row-major as
/// `(Ni·Kr·Kc) × (B·Ro·Co)`.
///
/// Row `(ni, kr, kc)` holds, for every image and output row, one segment of
/// an input row: the outputs whose tap lands inside the input copy it, every
/// other output keeps the zero of the padding.
pub fn im2col(shape: &ConvShape, input: &Tensor) -> Tensor {
    assert_eq!(input.shape(), &shape.input_shape());
    let cols = shape.b * shape.ro * shape.co;
    let (ri, ci, stride, pad) = (shape.ri(), shape.ci(), shape.stride, shape.pad);
    let mut out = Tensor::zeros([shape.ni * shape.kr * shape.kc, cols]);
    let x = input.data();
    for (row, out_row) in out.data_mut().chunks_exact_mut(cols).enumerate() {
        let (ni, kr, kc) = (row / (shape.kr * shape.kc), row / shape.kc % shape.kr, row % shape.kc);
        let (rows_in, cols_in) =
            (shape.outputs_inside(kr, ri, shape.ro), shape.outputs_inside(kc, ci, shape.co));
        if cols_in.is_empty() {
            continue;
        }
        let x_col = cols_in.start * stride + kc - pad;
        for b in 0..shape.b {
            let x_plane = &x[(b * shape.ni + ni) * ri * ci..][..ri * ci];
            for ro in rows_in.clone() {
                let seg = &mut out_row[(b * shape.ro + ro) * shape.co..][cols_in.clone()];
                let x_row = &x_plane[(ro * stride + kr - pad) * ci + x_col..];
                if stride == 1 {
                    seg.copy_from_slice(&x_row[..seg.len()]);
                } else {
                    for (y, &x) in seg.iter_mut().zip(x_row.iter().step_by(stride)) {
                        *y = x;
                    }
                }
            }
        }
    }
    out
}

/// Number of f32 elements in the im2col matrix (the method's extra memory).
pub fn im2col_elems(shape: &ConvShape) -> usize {
    shape.ni * shape.kr * shape.kc * shape.b * shape.ro * shape.co
}

/// Full explicit-GEMM convolution on the host: im2col + reference GEMM +
/// reshape back to NCHW. Golden reference for the explicit method.
pub fn conv2d_explicit_ref(shape: &ConvShape, input: &Tensor, weight: &Tensor) -> Tensor {
    assert_eq!(weight.shape(), &shape.weight_shape());
    let cols = im2col(shape, input);
    let k = shape.ni * shape.kr * shape.kc;
    let n = shape.b * shape.ro * shape.co;
    // Weight [No][Ni][Kr][Kc] is already the No × K filter matrix row-major.
    let mut prod = vec![0.0f32; shape.no * n];
    gemm_rowmajor(shape.no, n, k, weight.data(), cols.data(), &mut prod);
    // prod is No × (B·Ro·Co); output must be NCHW = [B][No][Ro][Co]: each
    // image's plane of each output channel is one run of a prod row.
    let plane = shape.ro * shape.co;
    let mut out = Tensor::zeros(shape.output_shape());
    for (b_no, y_plane) in out.data_mut().chunks_exact_mut(plane).enumerate() {
        let (b, no) = (b_no / shape.no, b_no % shape.no);
        y_plane.copy_from_slice(&prod[no * n + b * plane..][..plane]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::assert_close;
    use crate::conv::conv2d_ref;
    use crate::init::random_tensor;

    #[test]
    fn matches_direct_conv() {
        let s = ConvShape::square(2, 4, 3, 5);
        let input = random_tensor(s.input_shape().dims().to_vec(), 1);
        let weight = random_tensor(s.weight_shape().dims().to_vec(), 2);
        let direct = conv2d_ref(&s, &input, &weight);
        let explicit = conv2d_explicit_ref(&s, &input, &weight);
        assert_close(direct.data(), explicit.data(), 1e-4, 1e-5, "explicit vs direct");
    }

    #[test]
    fn matches_direct_with_stride_and_pad() {
        let s = ConvShape { b: 1, ni: 3, no: 2, ro: 4, co: 4, kr: 3, kc: 3, stride: 2, pad: 1 };
        let input = random_tensor(s.input_shape().dims().to_vec(), 3);
        let weight = random_tensor(s.weight_shape().dims().to_vec(), 4);
        let direct = conv2d_ref(&s, &input, &weight);
        let explicit = conv2d_explicit_ref(&s, &input, &weight);
        assert_close(direct.data(), explicit.data(), 1e-4, 1e-5, "strided explicit");
    }

    #[test]
    fn column_matrix_shape() {
        let s = ConvShape::square(2, 4, 3, 5);
        let input = random_tensor(s.input_shape().dims().to_vec(), 1);
        let cols = im2col(&s, &input);
        assert_eq!(cols.shape().dims(), &[4 * 9, 2 * 25]);
        assert_eq!(im2col_elems(&s), cols.shape().numel());
    }

    #[test]
    fn one_by_one_kernel_is_reshape() {
        let s = ConvShape { b: 1, ni: 3, no: 2, ro: 4, co: 4, kr: 1, kc: 1, stride: 1, pad: 0 };
        let input = random_tensor(s.input_shape().dims().to_vec(), 9);
        let cols = im2col(&s, &input);
        // With a 1×1 kernel the column matrix is just the input reshaped.
        assert_eq!(cols.data(), input.data());
    }
}
