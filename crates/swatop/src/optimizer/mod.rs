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
/// each is an independent schedule dimension the tuner searches:
/// transaction coalescing (before DMA inference, on the CG-level form),
/// then DMA inference (lower + hoist), then broadcast tagging, then
/// get-batch fusion (also on the coalescing dimension), then — if
/// `enable_prefetch` *and* the point asks for it — double buffering of the
/// innermost steady-state loop nest.
///
/// Only that last step reads `enable_prefetch` and `hints.dbuf`, so
/// `optimize(p, true)` is `prefetch::apply_double_buffering(optimize(p,
/// false))` when `p.hints.dbuf` and `optimize(p, false)` otherwise — the
/// scheduler derives the prefetched form that way instead of running the
/// pipeline twice. The passes before it edit the tree in place.
pub fn optimize(mut program: Program, enable_prefetch: bool) -> Program {
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
        // Batch fusion rides the coalescing dimension: runs of back-to-back
        // gets chain into one engine batch and runs of back-to-back bulk
        // transforms chain into one engine pipeline (start-up paid once per
        // run). Must run before prefetching so the double-buffered prologue
        // and next-iteration chains inherit the fusion marks.
        coalesce::fuse_adjacent_gets(body);
        coalesce::fuse_adjacent_transforms(body);
    }
    if enable_prefetch && program.hints.dbuf {
        program = prefetch::apply_double_buffering(program);
    }
    program
}
