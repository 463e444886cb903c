//! Training-side convolution operators: backward-data and backward-filter.
//!
//! swDNN (the library swATOP replaces for the implicit method) exposes the
//! full training triple — forward, ∂input, ∂filter — and both gradients
//! are arithmetic-intensive tensorizable contractions, so they belong in
//! the operator library:
//!
//! * **backward-data** `dX = conv(pad(dY, K−1−p), rot180-swap(W))` runs the
//!   explicit-GEMM structure on the *gradient geometry* after a one-pass
//!   filter rotation (a layout transform);
//! * **backward-filter** `dW = dY_mat · colsᵀ` is one big GEMM between the
//!   reshaped output gradient (`No × B·Ro·Co`) and the transposed im2col
//!   matrix (`B·Ro·Co × Ni·Kr·Kc`), whose product *is* the flattened
//!   weight-gradient tensor.
//!
//! Both reuse the matmul schedule space, boundary machinery and prefetch
//! pass unchanged — the point of the paper's hardware-agnostic layer.

use swatop_dsl::{SchedulePoint, ScheduleSpace};
use swatop_ir::{MemRole, Program, Stmt, TransformKind};
use swtensor::ConvShape;

use crate::ops::explicit_conv::lower_explicit_body;
use crate::ops::matmul::{lower_matmul_body, MatmulKnobs, LAYOUTS};
use crate::ops::tiling::PadMode;
use crate::ops::DMA_LADDER;
use crate::scheduler::Operator;

/// Backward-data convolution: input gradient from output gradient.
#[derive(Debug, Clone)]
pub struct ConvBackwardDataOp {
    pub shape: ConvShape,
}

impl ConvBackwardDataOp {
    pub fn new(shape: ConvShape) -> Self {
        ConvBackwardDataOp { shape }
    }

    /// Stride-1 only (strided backward-data is a dilated scatter, outside
    /// the GEMM-decomposition family).
    pub fn applicable(shape: &ConvShape) -> bool {
        shape.stride == 1 && shape.kr > shape.pad && shape.kc > shape.pad
    }

    /// The geometry of the auxiliary full-correlation convolution.
    fn grad_shape(&self) -> ConvShape {
        let s = &self.shape;
        ConvShape {
            b: s.b,
            ni: s.no,
            no: s.ni,
            ro: s.ri(),
            co: s.ci(),
            kr: s.kr,
            kc: s.kc,
            stride: 1,
            pad: s.kr - 1 - s.pad,
        }
    }
}

impl Operator for ConvBackwardDataOp {
    fn name(&self) -> String {
        let s = &self.shape;
        format!("conv_bwd_data_b{}_ni{}_no{}_r{}x{}", s.b, s.ni, s.no, s.ro, s.co)
    }

    fn space(&self) -> ScheduleSpace {
        let g = self.grad_shape();
        MatmulKnobs::space(g.no, g.b * g.ro * g.co, g.ni * g.kr * g.kc, &LAYOUTS, &DMA_LADDER)
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        if !Self::applicable(&self.shape) {
            return None;
        }
        let knobs = MatmulKnobs::from_point(space, point);
        let s = &self.shape;
        let g = self.grad_shape();
        let mut p = Program::new(self.name());
        let dy = p.mem_buf("d_out", s.output_shape().numel(), MemRole::Input);
        let w = p.mem_buf("weight", s.weight_shape().numel(), MemRole::Input);
        let dx = p.mem_buf("d_in", s.input_shape().numel(), MemRole::Output);
        let w_rot = p.mem_buf("w_rot", s.weight_shape().numel(), MemRole::Temp);
        let rotate = Stmt::transform(TransformKind::RotateFilter { shape: *s, src: w, dst: w_rot });
        let body = lower_explicit_body(&mut p, &g, dy, w_rot, dx, &knobs, PadMode::Lightweight)?;
        let mut stmts = vec![rotate];
        stmts.extend(body);
        p.set_body(Stmt::seq(stmts));
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            swtensor::init::random_vec(self.shape.output_shape().numel(), 0x8D),
            swtensor::init::random_vec(self.shape.weight_shape().numel(), 0x9D),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let dy = swtensor::Tensor::from_vec(
            self.shape.output_shape().dims().to_vec(),
            inputs[0].clone(),
        );
        let w = swtensor::Tensor::from_vec(
            self.shape.weight_shape().dims().to_vec(),
            inputs[1].clone(),
        );
        swtensor::conv_grad::conv2d_backward_data_ref(&self.shape, &dy, &w).into_vec()
    }

    fn flops(&self) -> u64 {
        // Same contraction volume as the forward pass.
        self.shape.flops()
    }
}

/// Backward-filter convolution: weight gradient from input and output
/// gradient.
#[derive(Debug, Clone)]
pub struct ConvBackwardFilterOp {
    pub shape: ConvShape,
}

impl ConvBackwardFilterOp {
    pub fn new(shape: ConvShape) -> Self {
        ConvBackwardFilterOp { shape }
    }

    /// GEMM dimensions: `M = No`, `N = Ni·Kr·Kc`, `K = B·Ro·Co`.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        let s = &self.shape;
        (s.no, s.ni * s.kr * s.kc, s.b * s.ro * s.co)
    }
}

impl Operator for ConvBackwardFilterOp {
    fn name(&self) -> String {
        let s = &self.shape;
        format!("conv_bwd_filter_b{}_ni{}_no{}_r{}x{}", s.b, s.ni, s.no, s.ro, s.co)
    }

    fn space(&self) -> ScheduleSpace {
        let (m, n, k) = self.gemm_dims();
        MatmulKnobs::space(m, n, k, &LAYOUTS, &DMA_LADDER)
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        let knobs = MatmulKnobs::from_point(space, point);
        let s = &self.shape;
        let (m, n, k) = self.gemm_dims();
        let mut p = Program::new(self.name());
        let x = p.mem_buf("in", s.input_shape().numel(), MemRole::Input);
        let dy = p.mem_buf("d_out", s.output_shape().numel(), MemRole::Input);
        let dw = p.mem_buf("d_weight", s.weight_shape().numel(), MemRole::Output);
        let cols = p.mem_buf("cols", n * k, MemRole::Temp);
        let cols_t = p.mem_buf("cols_t", n * k, MemRole::Temp);
        let dy_mat = p.mem_buf("dy_mat", m * k, MemRole::Temp);

        let im2col = Stmt::transform(TransformKind::Im2col { shape: *s, src: x, dst: cols });
        // cols is (Ni·Kr·Kc) × (B·Ro·Co) = N × K; the GEMM needs K × N.
        let transpose = Stmt::transform(TransformKind::PackTensor {
            src: cols,
            dst: cols_t,
            src_dims: vec![n, k],
            perm: vec![1, 0],
        });
        // dY is [B][No][Ro][Co]; the GEMM A operand is No × (B·Ro·Co).
        let pack_dy = Stmt::transform(TransformKind::PackTensor {
            src: dy,
            dst: dy_mat,
            src_dims: vec![s.b, s.no, s.ro, s.co],
            perm: vec![1, 0, 2, 3],
        });
        // The product No × (Ni·Kr·Kc) is dW flattened — no output reorder.
        let gemm =
            lower_matmul_body(&mut p, &knobs, dy_mat, cols_t, dw, m, n, k, PadMode::Lightweight)?;
        let mut stmts = vec![im2col, transpose, pack_dy];
        stmts.extend(gemm);
        p.set_body(Stmt::seq(stmts));
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            swtensor::init::random_vec(self.shape.input_shape().numel(), 0xAD),
            swtensor::init::random_vec(self.shape.output_shape().numel(), 0xBD),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let x = swtensor::Tensor::from_vec(
            self.shape.input_shape().dims().to_vec(),
            inputs[0].clone(),
        );
        let dy = swtensor::Tensor::from_vec(
            self.shape.output_shape().dims().to_vec(),
            inputs[1].clone(),
        );
        swtensor::conv_grad::conv2d_backward_filter_ref(&self.shape, &x, &dy).into_vec()
    }

    fn flops(&self) -> u64 {
        self.shape.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::verify_candidate;
    use crate::scheduler::Scheduler;
    use sw26010::MachineConfig;

    fn verify_some(op: &dyn Operator, max_points: usize, tol: f32) {
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let space = op.space();
        let mut checked = 0;
        for point in space.points() {
            let Some(cand) = sched.lower_point(op, &space, &point) else {
                continue;
            };
            let err = verify_candidate(&cfg, op, &cand)
                .unwrap_or_else(|e| panic!("{}: {e}", point.describe(&space)));
            assert!(err < tol, "{}: err {err}", point.describe(&space));
            checked += 1;
            if checked >= max_points {
                break;
            }
        }
        assert!(checked > 0, "no valid candidate for {}", op.name());
    }

    #[test]
    fn backward_data_correct() {
        let shape = ConvShape::square(2, 8, 16, 6);
        verify_some(&ConvBackwardDataOp::new(shape), 3, 2e-3);
    }

    #[test]
    fn backward_data_padded_correct() {
        let shape = ConvShape { b: 2, ni: 8, no: 8, ro: 6, co: 6, kr: 3, kc: 3, stride: 1, pad: 1 };
        verify_some(&ConvBackwardDataOp::new(shape), 3, 2e-3);
    }

    #[test]
    fn backward_filter_correct() {
        let shape = ConvShape::square(2, 8, 16, 6);
        verify_some(&ConvBackwardFilterOp::new(shape), 3, 5e-3);
    }

    #[test]
    fn backward_filter_strided_correct() {
        // Backward-filter supports strides (it's a plain contraction).
        let shape = ConvShape { b: 2, ni: 8, no: 8, ro: 4, co: 4, kr: 3, kc: 3, stride: 2, pad: 1 };
        verify_some(&ConvBackwardFilterOp::new(shape), 3, 5e-3);
    }

    #[test]
    fn strided_backward_data_inapplicable() {
        let mut shape = ConvShape::square(2, 8, 8, 6);
        shape.stride = 2;
        assert!(!ConvBackwardDataOp::applicable(&shape));
        let op = ConvBackwardDataOp::new(shape);
        let space = op.space();
        assert!(op.lower(&space, &space.point(0)).is_none());
    }
}
