//! Dense row-major f32 tensors with layout permutation.

use crate::shape::Shape;

/// A dense, owned, row-major f32 tensor.
///
/// Layout transformations in the scheduler are realised by
/// [`Tensor::permuted`], which produces a *materialised* copy in the new
/// dimension order — mirroring what a generated SW26010 program does when it
/// rearranges data in main memory before the compute loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// Build from existing data (length must match).
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(shape.numel(), data.len(), "shape {shape} != data len {}", data.len());
        Tensor { shape, data }
    }

    /// Build by evaluating `f` at every multi-index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let mut data = Vec::with_capacity(shape.numel());
        let mut idx = vec![0usize; shape.rank()];
        let n = shape.numel();
        for _ in 0..n {
            data.push(f(&idx));
            // Increment the multi-index (row-major order).
            for d in (0..shape.rank()).rev() {
                idx[d] += 1;
                if idx[d] < shape.dim(d) {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor { shape, data }
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element access by multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Materialised copy with permuted dimensions: `perm[i]` is the source
    /// axis of new axis `i`. The copy runs along the innermost new axis, one
    /// strided run of the source per row of the result.
    pub fn permuted(&self, perm: &[usize]) -> Tensor {
        let new_shape = self.shape.permute(perm);
        let Some((&inner_axis, outer_axes)) = perm.split_last() else {
            return self.clone();
        };
        let (inner, n) = (new_shape.dim(perm.len() - 1), new_shape.numel());
        let src_strides = self.shape.row_major_strides();
        let inner_stride = src_strides[inner_axis];
        let mut out = Vec::with_capacity(n);
        // idx is the multi-index of the row's start over the NEW outer axes.
        let mut idx = vec![0usize; outer_axes.len()];
        for _ in 0..n.checked_div(inner).unwrap_or(0) {
            let base: usize = idx.iter().zip(outer_axes).map(|(&i, &a)| i * src_strides[a]).sum();
            let run = &self.data[base..];
            if inner_stride == 1 {
                out.extend_from_slice(&run[..inner]);
            } else {
                out.extend(run.iter().step_by(inner_stride).take(inner));
            }
            for d in (0..idx.len()).rev() {
                idx[d] += 1;
                if idx[d] < new_shape.dim(d) {
                    break;
                }
                idx[d] = 0;
            }
        }
        Tensor { shape: new_shape, data: out }
    }

    /// Reinterpret the data with a different shape of equal element count.
    pub fn reshaped(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(shape.numel(), self.data.len());
        Tensor { shape, data: self.data.clone() }
    }

    /// Zero-pad each dimension on the high side to `new_dims`.
    pub fn padded_to(&self, new_dims: &[usize]) -> Tensor {
        assert_eq!(new_dims.len(), self.shape.rank());
        for (d, &n) in new_dims.iter().enumerate() {
            assert!(n >= self.shape.dim(d), "padding cannot shrink dim {d}");
        }
        let out_shape = Shape::new(new_dims.to_vec());
        let mut out = Tensor::zeros(out_shape);
        let rank = self.shape.rank();
        let mut idx = vec![0usize; rank];
        for _ in 0..self.shape.numel() {
            *out.at_mut(&idx) = self.at(&idx);
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < self.shape.dim(d) {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// Crop each dimension to `new_dims` (inverse of `padded_to`).
    pub fn cropped_to(&self, new_dims: &[usize]) -> Tensor {
        assert_eq!(new_dims.len(), self.shape.rank());
        for (d, &n) in new_dims.iter().enumerate() {
            assert!(n <= self.shape.dim(d), "crop cannot grow dim {d}");
        }
        Tensor::from_fn(Shape::new(new_dims.to_vec()), |idx| self.at(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn([2, 3], |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(t.data(), &[0., 1., 2., 10., 11., 12.]);
        assert_eq!(t.at(&[1, 2]), 12.0);
    }

    #[test]
    fn permute_is_transpose_for_matrices() {
        let t = Tensor::from_fn([2, 3], |i| (i[0] * 3 + i[1]) as f32);
        let p = t.permuted(&[1, 0]);
        assert_eq!(p.shape().dims(), &[3, 2]);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t.at(&[r, c]), p.at(&[c, r]));
            }
        }
    }

    #[test]
    fn double_permute_roundtrips() {
        let t = Tensor::from_fn([2, 3, 4, 5], |i| {
            (i[0] * 1000 + i[1] * 100 + i[2] * 10 + i[3]) as f32
        });
        let p = t.permuted(&[3, 1, 0, 2]);
        // Inverse of [3,1,0,2] is [2,1,3,0].
        let back = p.permuted(&[2, 1, 3, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn pad_and_crop_roundtrip() {
        let t = Tensor::from_fn([3, 5], |i| (i[0] + i[1]) as f32);
        let p = t.padded_to(&[4, 8]);
        assert_eq!(p.shape().dims(), &[4, 8]);
        assert_eq!(p.at(&[3, 7]), 0.0);
        assert_eq!(p.at(&[2, 4]), 6.0);
        let c = p.cropped_to(&[3, 5]);
        assert_eq!(c, t);
    }

    #[test]
    #[should_panic]
    fn from_vec_checks_len() {
        Tensor::from_vec([2, 2], vec![1.0; 3]);
    }
}
