//! Explicit-GEMM (im2col) convolution (paper Fig. 2, left).
//!
//! "First expands the image into a column matrix (the *im2col* process),
//! and performs a matrix-multiplication operation on the column matrix and
//! the filter matrix." The resulting GEMM
//!
//! ```text
//! prod (No × B·Ro·Co) = weight (No × Ni·Kr·Kc) · cols (Ni·Kr·Kc × B·Ro·Co)
//! ```
//!
//! is tuned with the full matmul schedule space — including the boundary
//! machinery, since `B·Ro·Co` and `Ni·Kr·Kc` are rarely aligned. This is
//! the fallback method for strided/odd layers the other two methods cannot
//! handle, at the cost of materialising the column matrix.

use swatop_dsl::{SchedulePoint, ScheduleSpace, Seed};
use swatop_ir::{MemRole, Program, Stmt, TransformKind, TransformOp};
use swtensor::ConvShape;

use crate::ops::matmul::{lower_matmul_body, MatmulKnobs};
use crate::ops::tiling::PadMode;
use crate::scheduler::Operator;

/// Explicit-GEMM convolution operator instance.
#[derive(Debug, Clone)]
pub struct ExplicitConvOp {
    pub shape: ConvShape,
    pub pad_mode: PadMode,
}

impl ExplicitConvOp {
    pub fn new(shape: ConvShape) -> Self {
        ExplicitConvOp { shape, pad_mode: PadMode::Lightweight }
    }

    /// GEMM dimensions `(M, N, K)` of the expanded problem.
    pub fn gemm_dims(&self) -> (usize, usize, usize) {
        let s = &self.shape;
        (s.no, s.b * s.ro * s.co, s.ni * s.kr * s.kc)
    }
}

impl Operator for ExplicitConvOp {
    fn name(&self) -> String {
        let s = &self.shape;
        format!("explicit_conv_b{}_ni{}_no{}_r{}x{}", s.b, s.ni, s.no, s.ro, s.co)
    }

    fn seed(&self) -> Seed {
        Seed::explicit_conv(self.name(), self.shape)
    }

    fn space(&self) -> ScheduleSpace {
        let (m, n, k) = self.gemm_dims();
        MatmulKnobs::space(m, n, k)
    }

    fn lowering_ignores_dma_knobs(&self) -> bool {
        true
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        let knobs = MatmulKnobs::from_point(space, point);
        let s = &self.shape;
        let mut p = Program::new(self.name());
        let in_buf = p.mem_buf("in", s.input_shape().numel(), MemRole::Input);
        let w_buf = p.mem_buf("weight", s.weight_shape().numel(), MemRole::Input);
        let out_buf = p.mem_buf("out", s.output_shape().numel(), MemRole::Output);
        let body =
            lower_explicit_body(&mut p, s, in_buf, w_buf, out_buf, &knobs, self.pad_mode)?;
        p.set_body(Stmt::seq(body));
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            swtensor::init::random_vec(self.shape.input_shape().numel(), 0x3E),
            swtensor::init::random_vec(self.shape.weight_shape().numel(), 0x4E),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let input = swtensor::Tensor::from_vec(
            self.shape.input_shape().dims().to_vec(),
            inputs[0].clone(),
        );
        let weight = swtensor::Tensor::from_vec(
            self.shape.weight_shape().dims().to_vec(),
            inputs[1].clone(),
        );
        swtensor::conv::conv2d_ref(&self.shape, &input, &weight).into_vec()
    }

    fn flops(&self) -> u64 {
        self.shape.flops()
    }
}


/// Lower the explicit-GEMM convolution body against caller-declared
/// buffers: im2col, the tuned GEMM, and the NCHW reorder. Shared with the
/// backward-data operator, which runs the same structure on the gradient
/// geometry after rotating the filter.
pub fn lower_explicit_body(
    p: &mut Program,
    s: &ConvShape,
    in_buf: swatop_ir::MemBufId,
    w_buf: swatop_ir::MemBufId,
    out_buf: swatop_ir::MemBufId,
    knobs: &MatmulKnobs,
    pad_mode: PadMode,
) -> Option<Vec<Stmt>> {
    let (m, n, k) = (s.no, s.b * s.ro * s.co, s.ni * s.kr * s.kc);
    let cols = p.mem_buf("cols", k * n, MemRole::Temp);
    let prod = p.mem_buf("prod", m * n, MemRole::Temp);
    let im2col = Stmt::Transform(TransformOp { fused: false,
        kind: TransformKind::Im2col { shape: *s, src: in_buf, dst: cols },
    });
    // The weight tensor [No][Ni][Kr][Kc] *is* the No × K filter matrix.
    let gemm_body = lower_matmul_body(p, knobs, w_buf, cols, prod, m, n, k, pad_mode)?;
    // prod is No × (B·Ro·Co) = [No][B][Ro][Co]; output is NCHW.
    let reorder = Stmt::Transform(TransformOp { fused: false,
        kind: TransformKind::PackTensor {
            src: prod,
            dst: out_buf,
            src_dims: vec![s.no, s.b, s.ro, s.co],
            perm: vec![1, 0, 2, 3],
        },
    });
    let mut body = vec![im2col];
    body.extend(gemm_body);
    body.push(reorder);
    Some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::verify_candidate;
    use crate::scheduler::Scheduler;
    use sw26010::MachineConfig;

    fn verify_some(shape: ConvShape, max_points: usize) {
        let cfg = MachineConfig::default();
        let op = ExplicitConvOp::new(shape);
        let sched = Scheduler::new(cfg.clone());
        let space = op.space();
        let mut checked = 0;
        for point in space.points() {
            let Some(cand) = sched.lower_point(&op, &space, &point) else {
                continue;
            };
            let err = verify_candidate(&cfg, &op, &cand)
                .unwrap_or_else(|e| panic!("{}: {e}", point.describe(&space)));
            assert!(err < 2e-3, "{}: max err {err}", point.describe(&space));
            checked += 1;
            if checked >= max_points {
                break;
            }
        }
        assert!(checked > 0, "no valid candidates for {shape:?}");
    }

    #[test]
    fn small_conv_correct() {
        // K' = 16·9 = 144 (not 32-aligned), N' = 2·16 = 32.
        verify_some(ConvShape::square(2, 16, 16, 4), 5);
    }

    #[test]
    fn strided_conv_correct() {
        // Implicit cannot do stride 2; explicit must.
        let shape = ConvShape { b: 2, ni: 8, no: 16, ro: 4, co: 4, kr: 3, kc: 3, stride: 2, pad: 0 };
        verify_some(shape, 3);
    }

    #[test]
    fn tiny_channel_first_layer_correct() {
        // Ni = 3 (an RGB first layer): only the explicit method applies.
        let shape = ConvShape { b: 4, ni: 3, no: 16, ro: 6, co: 6, kr: 3, kc: 3, stride: 1, pad: 1 };
        verify_some(shape, 3);
    }

    #[test]
    fn gemm_dims_formula() {
        let op = ExplicitConvOp::new(ConvShape::square(32, 64, 128, 28));
        assert_eq!(op.gemm_dims(), (128, 32 * 28 * 28, 64 * 9));
    }
}
