//! Fixtures shared by the root integration tests.

use swatop_repro::swatop::ops::{
    BatchedMatmulOp, ConvBackwardDataOp, ConvBackwardFilterOp, ExplicitConvOp, ImplicitConvOp,
    MatmulOp, WinogradConvOp,
};
use swatop_repro::swatop::scheduler::Operator;
use swatop_repro::swtensor::ConvShape;

/// One small shape of every operator in `ops/`.
pub fn every_op() -> Vec<Box<dyn Operator>> {
    let conv = ConvShape::square(4, 16, 16, 8);
    vec![
        Box::new(MatmulOp::new(36, 20, 50)), // unaligned in every dimension
        Box::new(BatchedMatmulOp::new(2, 32, 32, 32)),
        Box::new(BatchedMatmulOp::new(2, 32, 32, 32).with_shared_a()),
        Box::new(ImplicitConvOp::new(conv)),
        Box::new(WinogradConvOp::new(conv)),
        Box::new(ExplicitConvOp::new(conv)),
        Box::new(ConvBackwardDataOp::new(conv)),
        Box::new(ConvBackwardFilterOp::new(conv)),
    ]
}
