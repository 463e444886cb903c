//! The IR optimizer: the three optimisations of paper Sec. 4.5.
//!
//! * [`dma_inference`] — lower `DMA_CG` nodes to per-CPE strided `DMA_CPE`
//!   nodes and hoist loop-invariant transfers away from `gemm_op`;
//! * [`coalesce`] — the DMA-wall passes: strided-transaction coalescing
//!   into packed staging buffers and register-broadcast tiling;
//! * [`chains`] — producer fusion: a chain of bulk transforms runs as one
//!   pass, its intermediates never materialised;
//! * [`prefetch`] — hide memory latency by double buffering, with
//!   next-iteration index inference over the enclosing loop nest;
//! * [`boundary`] — boundary-processing helpers: tile-size arithmetic and
//!   the lightweight zero-padding plan used by the operator lowerings;
//! * [`verify`] — the static legality checker: walks a planned executable
//!   and rejects DMA/compute hazards (use-before-reply, broken fused
//!   chains, slot aliasing/overflow…) before any execution.

pub mod boundary;
pub mod chains;
pub mod coalesce;
pub mod dma_inference;
pub mod prefetch;
pub mod verify;

use swatop_ir::Program;

/// Run the standard optimization pipeline on a lowered program. The
/// program's [`swatop_ir::ScheduleHints`] select the optional DMA-wall
/// passes — each is an independent schedule dimension the tuner searches.
/// The pipeline is three steps:
///
/// 1. [`dma_wall`] (`hints.coalesce`): transaction coalescing, DMA
///    inference, get/transform batch fusion;
/// 2. [`coalesce::tag_broadcast`] if `hints.bcast`;
/// 3. [`prefetch::apply_double_buffering`] if `enable_prefetch`.
///
/// Steps 2 and 3 are [`finish`]. The scheduler runs step 1 once per
/// (structural point, coalesce) and hands its output, as `raw`, to the
/// `bcast` siblings alike (DESIGN.md §16); a candidate's
/// executable runs `finish` on it when it is built. So `optimize(p, true)`
/// is `apply_double_buffering(optimize(p, false))`.
pub fn optimize(program: Program, enable_prefetch: bool) -> Program {
    finish(dma_wall(program), enable_prefetch)
}

/// The tail of [`optimize`] after [`dma_wall`]: broadcast tagging if
/// `hints.bcast`, then double buffering if `double_buffer`. A deferred
/// [`crate::codegen::Executable`] is built by this and the SPM layout.
pub fn finish(mut program: Program, double_buffer: bool) -> Program {
    if program.hints.bcast {
        coalesce::tag_broadcast(program.body_mut());
    }
    if double_buffer {
        program = prefetch::apply_double_buffering(program);
    }
    program
}

/// The DMA-wall pipeline up to broadcast tagging: transaction coalescing
/// (if `hints.coalesce`; before DMA inference, on the CG-level form), DMA
/// inference (lower + hoist) with producer fusion of transform chains
/// riding its lowering walk ([`chains::fuse_chains`], on every program,
/// after coalescing so its gathers can join a chain), then get/transform
/// batch fusion (also on the coalescing dimension). Reads no other hint. The passes edit the tree in
/// place.
///
/// Broadcast tagging may follow fusion, as it does in [`optimize`], or
/// precede it — the two commute: `tag_broadcast` reads a node's direction,
/// block, stride and offset and writes `bcast`; the fusion passes read
/// adjacency, direction and reply word and write `fused` — neither reads a
/// field the other writes
/// (`coalesce::tests::broadcast_tagging_commutes_with_fusion`).
pub fn dma_wall(mut program: Program) -> Program {
    let coalesce = program.hints.coalesce;
    if coalesce {
        program = coalesce::coalesce(program);
    }
    // DMA inference's lowering, with producer fusion riding its walk.
    chains::fuse_chains(&mut program);
    let body = program.body_mut();
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
    use crate::model;
    use crate::ops::{
        dma_knob, BatchedMatmulOp, ConvBackwardDataOp, ConvBackwardFilterOp, ExplicitConvOp,
        ImplicitConvOp, MatmulOp, WinogradConvOp,
    };
    use crate::scheduler::{Operator, Scheduler};
    use sw26010::MachineConfig;
    use sw26010::{CoreGroup, DmaDirection, ExecMode};
    use swatop_ir::{Link, ScheduleHints, Stmt, TransformKind, TransformOp};
    use swtensor::ConvShape;

    /// The pipeline as it ran before the scheduler chained the hint
    /// siblings: one run per hint combination, broadcast tags *before*
    /// fusion. The oracle for [`optimize`]; `chains` marks the transform
    /// chains, and leaving it out gives every transform its own pass;
    /// leaving out `puts` stages gets alone.
    fn optimize_per_sibling(
        mut program: Program,
        enable_prefetch: bool,
        chains: Option<fn(&mut Program)>,
        puts: bool,
    ) -> Program {
        if program.hints.coalesce {
            program = if puts {
                coalesce::coalesce(program)
            } else {
                coalesce::coalesce_gets(program)
            };
        }
        if let Some(chains) = chains {
            chains(&mut program);
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
        if enable_prefetch {
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

    fn top_level(body: &Stmt) -> &[Stmt] {
        match body {
            Stmt::Seq(ss) => ss,
            other => std::slice::from_ref(other),
        }
    }

    /// The links of the chain ending at top-level statement `end`: its
    /// producers, found by their outputs, then the end itself.
    fn chain_links(tops: &[Stmt], end: usize) -> Vec<TransformOp> {
        let Stmt::Transform(last) = &tops[end] else { panic!("not a transform") };
        let mut links = vec![last.clone()];
        let mut src = last.kind.src();
        while let Some(t) = tops[..end].iter().rev().find_map(|s| match s {
            Stmt::Transform(t) if t.link.feeds() && t.kind.dst() == src => Some(t),
            _ => None,
        }) {
            src = t.kind.src();
            links.insert(0, t.clone());
        }
        links
    }

    #[test]
    fn every_fused_chain_costs_at_most_its_links_and_computes_the_same() {
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let (mut fused, mut ran) = (0, 0);
        for op in every_op() {
            let cands = sched.enumerate(&*op);
            let mut seen = Vec::new();
            for cand in &cands {
                let tops = top_level(&cand.exe.program.body);
                let mut chains = 0;
                for (end, s) in tops.iter().enumerate() {
                    let Stmt::Transform(t) = s else { continue };
                    if !matches!(t.link, Link::Ends { .. }) {
                        continue;
                    }
                    let links = chain_links(tops, end);
                    assert!(links.len() >= 2, "{}: a last link with no producer", cand.describe);
                    let apart: u64 = links
                        .iter()
                        .map(|l| TransformOp::new(l.kind.clone()))
                        .map(|l| model::transform_cost(&cfg, &l).get())
                        .sum();
                    let together = model::transform_cost(&cfg, t).get();
                    assert!(together <= apart, "{}: fused {together} > {apart}", cand.describe);
                    chains += 1;
                }
                if chains == 0 {
                    continue;
                }
                fused += chains;
                crate::optimizer::verify::verify_message(&cand.exe, &cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", cand.describe));
                // One functional run per operator and shape of its chains:
                // the kinds of its top-level transforms and which fuse.
                let shape: Vec<_> = tops
                    .iter()
                    .filter_map(|s| match s {
                        Stmt::Transform(t) => {
                            Some((std::mem::discriminant(&t.kind), std::mem::discriminant(&t.link)))
                        }
                        _ => None,
                    })
                    .collect();
                if seen.contains(&shape) {
                    continue;
                }
                seen.push(shape);
                let err = crate::ops::verify_over_stale_memory(&cfg, &*op, cand)
                    .unwrap_or_else(|e| panic!("{}: {e}", cand.describe));
                assert!(err < 5e-3, "{} {}: wrong by {err}", op.name(), cand.describe);
                ran += 1;
            }
        }
        assert!(fused > 0 && ran > 0, "{fused} chains, {ran} programs run");
    }

    /// What top-level transform `t` costs where it stands: its price, less
    /// the start-up it skips on an open pipeline.
    fn standing(cfg: &MachineConfig, s: &Stmt) -> u64 {
        let Stmt::Transform(t) = s else { return 0 };
        let cost = model::transform_cost(cfg, t);
        if t.fused { cost - cfg.dma_startup } else { cost }.get()
    }

    #[test]
    fn every_sibling_run_costs_at_most_its_readers_apart() {
        let cfg = MachineConfig::default();
        let gemm = model::GemmModel::cached(&cfg);
        let sched = Scheduler::new(cfg.clone());
        let mut runs = Vec::new();
        for op in every_op() {
            let space = op.space();
            let (mut n, mut ran) = (0, false);
            // Every point, so every `dma` level.
            for point in space.points() {
                let Some(lowered) = op.lower(&space, &point) else { continue };
                let with = optimize(lowered.clone(), true);
                let tops = top_level(&with.body);
                let closes = |s: &Stmt| matches!(s, Stmt::Transform(t) if matches!(t.link, Link::Closes { .. }));
                if !tops.iter().any(closes) {
                    continue;
                }
                let at = || format!("{} at {}", op.name(), point.describe(&space));
                let without = optimize_per_sibling(lowered, true, Some(chains::fuse_chains_apart), true);
                let apart = top_level(&without.body);
                assert_eq!(tops.len(), apart.len(), "{}", at());
                for end in (0..tops.len()).filter(|&e| closes(&tops[e])) {
                    let joins = |s: &&Stmt| matches!(s, Stmt::Transform(t) if t.link == Link::Joins);
                    let start = end - tops[..end].iter().rev().take_while(joins).count();
                    assert!(start < end, "{}: a run's last reader alone", at());
                    let one = standing(&cfg, &tops[end]);
                    let readers: u64 = apart[start..=end].iter().map(|s| standing(&cfg, s)).sum();
                    assert!(one <= readers, "{}: run {one} against {readers} apart", at());
                    n += 1;
                }
                let (e_with, e_without) =
                    (model::estimate(&cfg, &gemm, &with), model::estimate(&cfg, &gemm, &without));
                for prefetched in [false, true] {
                    let (a, b) = (e_with.overall(prefetched), e_without.overall(prefetched));
                    assert!(a <= b, "{}: estimate {a} against {b}", at());
                }
                let Some(cand) = sched.lower_point(&*op, &space, &point) else { continue };
                crate::optimizer::verify::verify_message(&cand.exe, &cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", at()));
                if !ran {
                    let err = crate::ops::verify_over_stale_memory(&cfg, &*op, &cand)
                        .unwrap_or_else(|e| panic!("{}: {e}", at()));
                    assert!(err < 5e-3, "{}: wrong by {err}", at());
                    ran = true;
                }
            }
            runs.push((op.name(), n));
        }
        // Anti-vacuity: every operator but shared-A batched matmul (which
        // packs nothing) has runs, implicit conv's per-tap gathers among them.
        let shares = |name: &str| runs.iter().any(|(op, n)| op.starts_with(name) && *n > 0);
        let named = ["matmul", "batched", "implicit", "winograd", "explicit", "conv_bwd_"];
        assert!(named.iter().all(|n| shares(n)), "{runs:?}");
    }

    #[test]
    fn optimize_equals_one_pipeline_run_per_hint_combination() {
        let both_marks = |s: &Stmt| matches!(s, Stmt::DmaCpe(d) if d.bcast.is_some() && d.fused);
        let cfg = MachineConfig::default();
        let gemm = model::GemmModel::cached(&cfg);
        let (mut compared, mut tagged_and_fused) = (0, 0);
        for op in every_op() {
            let space = op.space();
            let dma = dma_knob(&space);
            // Structural points: the `dma` knob zeroed, every other
            // selection. All four hint combinations are tried on each,
            // whether or not the operator's `dma` menu offers them.
            for point in space.points().filter(|p| dma.is_none_or(|i| p.sel()[i] == 0)) {
                let Some(lowered) = op.lower(&space, &point) else { continue };
                for n in 0..4 {
                    let hints = ScheduleHints { coalesce: n & 1 != 0, bcast: n & 2 != 0 };
                    let p = Program { hints, ..lowered.clone() };
                    for enable_prefetch in [false, true] {
                        let got = optimize(p.clone(), enable_prefetch);
                        assert!(
                            got == optimize_per_sibling(p.clone(), enable_prefetch, Some(chains::fuse_chains), true),
                            "{} at {} with {hints:?}, prefetch {enable_prefetch}",
                            op.name(),
                            point.describe(&space),
                        );
                        compared += 1;
                        tagged_and_fused += got.body.count(both_marks);
                        // Fusing chains never raises the analytic price.
                        let unchained = optimize_per_sibling(p.clone(), enable_prefetch, None, true);
                        let with = model::estimate(&cfg, &gemm, &got);
                        let without = model::estimate(&cfg, &gemm, &unchained);
                        assert!(
                            with.t_transform <= without.t_transform
                                && with.t_dma == without.t_dma
                                && with.t_compute == without.t_compute,
                            "{} at {}: {with:?} against {without:?}",
                            op.name(),
                            point.describe(&space),
                        );
                    }
                }
            }
        }
        // Anti-vacuity: some gets carry both marks, so the order of the two
        // passes was really exercised.
        assert!(compared > 0 && tagged_and_fused > 0, "{compared} compared, {tagged_and_fused}");
    }

    /// Whether `s` is a put's scatter.
    fn scatter(s: &Stmt) -> bool {
        matches!(s, Stmt::Transform(t) if matches!(t.kind,
            TransformKind::PackTiles { direction: DmaDirection::SpmToMem, .. }))
    }

    #[test]
    fn staging_puts_never_raises_a_price() {
        let cfg = MachineConfig::default();
        let gemm = model::GemmModel::cached(&cfg);
        let cost_only = |p: Program| {
            let exe = crate::codegen::plan(p, &cfg).ok()?;
            let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
            let binding = crate::interp::instantiate(&mut cg, &exe);
            Some(crate::interp::execute(&mut cg, &exe, &binding).expect("a cost-only run"))
        };
        let mut staged = Vec::new();
        for op in every_op() {
            let space = op.space();
            let mut n = 0;
            // Every point, so every `dma` level.
            for point in space.points() {
                let Some(lowered) = op.lower(&space, &point) else { continue };
                let with = optimize(lowered.clone(), true);
                if with.body.count(scatter) == 0 {
                    continue;
                }
                n += 1;
                let without = optimize_per_sibling(lowered, true, Some(chains::fuse_chains), false);
                let at = || format!("{} at {}", op.name(), point.describe(&space));
                let (e_with, e_without) =
                    (model::estimate(&cfg, &gemm, &with), model::estimate(&cfg, &gemm, &without));
                for prefetched in [false, true] {
                    let (a, b) = (e_with.overall(prefetched), e_without.overall(prefetched));
                    assert!(a <= b, "{}: estimate {a} against {b}", at());
                }
                let (a, b) = (cost_only(with), cost_only(without));
                assert!(a <= b, "{}: cost-only {a:?} against {b:?}", at());
            }
            staged.push((op.name(), n));
        }
        // Anti-vacuity: Winograd, implicit, the unaligned matmul and
        // backward data stage puts.
        let stages = |name: &str| staged.iter().any(|(op, n)| op.starts_with(name) && *n > 0);
        let named = ["matmul", "implicit_conv", "winograd_conv", "conv_bwd_data"];
        assert!(named.iter().all(|n| stages(n)), "{staged:?}");
    }
}
