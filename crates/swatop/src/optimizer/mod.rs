//! The IR optimizer: the three optimisations of paper Sec. 4.5.
//!
//! * [`dma_inference`] — lower `DMA_CG` nodes to per-CPE strided `DMA_CPE`
//!   nodes and hoist loop-invariant transfers away from `gemm_op`;
//! * [`coalesce`] — the DMA-wall passes: strided-transaction coalescing
//!   into packed staging buffers and register-broadcast tiling;
//! * [`prefetch`] — hide memory latency by double buffering, with
//!   next-iteration index inference over the enclosing loop nest;
//! * [`boundary`] — boundary-processing helpers: tile-size arithmetic and
//!   the lightweight zero-padding plan used by the operator lowerings;
//! * [`verify`] — the static legality checker: walks a planned executable
//!   and rejects DMA/compute hazards (use-before-reply, broken fused
//!   chains, slot aliasing/overflow…) before any execution.

pub mod boundary;
pub mod coalesce;
pub mod dma_inference;
pub mod prefetch;
pub mod verify;

use swatop_ir::Program;

/// Run the standard optimization pipeline on a lowered program. The
/// program's [`swatop_ir::ScheduleHints`] select the DMA-wall passes —
/// each is an independent schedule dimension the tuner searches. The
/// pipeline is three steps, each reading one hint:
///
/// 1. [`dma_wall`] (`hints.coalesce`): transaction coalescing, DMA
///    inference, get/transform batch fusion;
/// 2. [`coalesce::tag_broadcast`] if `hints.bcast`;
/// 3. [`prefetch::apply_double_buffering`] if `enable_prefetch` *and*
///    `hints.dbuf`.
///
/// Each step's output is the next one's only input, so the scheduler
/// derives the hint siblings of one lowered program along the chain instead
/// of running the pipeline once per sibling (DESIGN.md §16): the `bcast`
/// form is `tag_broadcast` on a copy of the untagged one, and
/// `optimize(p, true)` is `apply_double_buffering(optimize(p, false))` when
/// `p.hints.dbuf` and `optimize(p, false)` otherwise.
pub fn optimize(program: Program, enable_prefetch: bool) -> Program {
    let mut program = dma_wall(program);
    if program.hints.bcast {
        coalesce::tag_broadcast(program.body_mut());
    }
    if enable_prefetch && program.hints.dbuf {
        program = prefetch::apply_double_buffering(program);
    }
    program
}

/// The DMA-wall pipeline up to broadcast tagging: transaction coalescing
/// (if `hints.coalesce`; before DMA inference, on the CG-level form), DMA
/// inference (lower + hoist), then get/transform batch fusion (also on the
/// coalescing dimension). Reads no other hint. The passes edit the tree in
/// place.
///
/// Broadcast tagging may follow fusion, as it does in [`optimize`], or
/// precede it — the two commute: `tag_broadcast` reads a get's direction,
/// block, stride and offset and writes `bcast`; the fusion passes read
/// adjacency, direction and reply word and write `fused` — neither reads a
/// field the other writes
/// (`coalesce::tests::broadcast_tagging_commutes_with_fusion`).
pub fn dma_wall(mut program: Program) -> Program {
    let coalesce = program.hints.coalesce;
    if coalesce {
        program = coalesce::coalesce_gets(program);
    }
    let body = program.body_mut();
    dma_inference::lower_dma(body);
    dma_inference::hoist_invariant_dma(body);
    if coalesce {
        // Batch fusion rides the coalescing dimension: runs of back-to-back
        // gets chain into one engine batch and runs of back-to-back bulk
        // transforms chain into one engine pipeline (start-up paid once per
        // run). Must run before prefetching so the double-buffered prologue
        // and next-iteration chains inherit the fusion marks.
        coalesce::fuse_adjacent_gets(body);
        coalesce::fuse_adjacent_transforms(body);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{
        BatchedMatmulOp, ConvBackwardDataOp, ConvBackwardFilterOp, DmaKnobs, ExplicitConvOp,
        ImplicitConvOp, MatmulOp, WinogradConvOp,
    };
    use crate::scheduler::Operator;
    use swatop_ir::{ScheduleHints, Stmt};
    use swtensor::ConvShape;

    /// The pipeline as it ran before the scheduler chained the hint
    /// siblings: one run per hint combination, broadcast tags *before*
    /// fusion. The oracle for [`optimize`].
    fn optimize_per_sibling(mut program: Program, enable_prefetch: bool) -> Program {
        if program.hints.coalesce {
            program = coalesce::coalesce_gets(program);
        }
        let hints = program.hints;
        let body = program.body_mut();
        dma_inference::lower_dma(body);
        dma_inference::hoist_invariant_dma(body);
        if hints.bcast {
            coalesce::tag_broadcast(body);
        }
        if hints.coalesce {
            coalesce::fuse_adjacent_gets(body);
            coalesce::fuse_adjacent_transforms(body);
        }
        if enable_prefetch && hints.dbuf {
            program = prefetch::apply_double_buffering(program);
        }
        program
    }

    /// One small shape of every operator in `ops/` (the root tests'
    /// `common::every_op`).
    fn every_op() -> Vec<Box<dyn Operator>> {
        let conv = ConvShape::square(4, 16, 16, 8);
        vec![
            Box::new(MatmulOp::new(36, 20, 50)),
            Box::new(BatchedMatmulOp::new(2, 32, 32, 32)),
            Box::new(BatchedMatmulOp::new(2, 32, 32, 32).with_shared_a()),
            Box::new(ImplicitConvOp::new(conv)),
            Box::new(WinogradConvOp::new(conv)),
            Box::new(ExplicitConvOp::new(conv)),
            Box::new(ConvBackwardDataOp::new(conv)),
            Box::new(ConvBackwardFilterOp::new(conv)),
        ]
    }

    #[test]
    fn optimize_equals_one_pipeline_run_per_hint_combination() {
        let both_marks = |s: &Stmt| matches!(s, Stmt::DmaCpe(d) if d.bcast.is_some() && d.fused);
        let (mut compared, mut tagged_and_fused) = (0, 0);
        for op in every_op() {
            let space = op.space();
            let dma = DmaKnobs::positions(&space);
            // Structural points: the DMA knobs zeroed, every other
            // selection. All eight hint combinations are tried on each,
            // whether or not the operator's knob form can express them.
            for point in space.points().filter(|p| dma.iter().all(|&i| p.sel()[i] == 0)) {
                let Some(lowered) = op.lower(&space, &point) else { continue };
                for n in 0..8 {
                    let hints =
                        ScheduleHints { dbuf: n & 1 != 0, coalesce: n & 2 != 0, bcast: n & 4 != 0 };
                    let p = Program { hints, ..lowered.clone() };
                    for enable_prefetch in [false, true] {
                        let got = optimize(p.clone(), enable_prefetch);
                        assert!(
                            got == optimize_per_sibling(p.clone(), enable_prefetch),
                            "{} at {} with {hints:?}, prefetch {enable_prefetch}",
                            op.name(),
                            point.describe(&space),
                        );
                        compared += 1;
                        tagged_and_fused += got.body.count(both_marks);
                    }
                }
            }
        }
        // Anti-vacuity: some gets carry both marks, so the order of the two
        // passes was really exercised.
        assert!(compared > 0 && tagged_and_fused > 0, "{compared} compared, {tagged_and_fused}");
    }
}
