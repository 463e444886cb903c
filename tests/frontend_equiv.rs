//! The scheduler's front end pays each stage once per distinct input
//! (`op.lower` per structural point, the DMA-wall pipeline per
//! (coalesce, bcast), the rest per point). These tests pin the contract
//! that makes that invisible: for one small shape of every operator in
//! `ops/`, `Scheduler::enumerate` equals — candidate for candidate, field
//! for field — lowering and optimizing every point on its own, written out
//! here from public functions only.

use swatop_repro::dsl::{SchedulePoint, ScheduleSpace};
use swatop_repro::ir::{Program, ScheduleHints};
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::codegen::plan;
use swatop_repro::swatop::ops::DmaKnobs;
use swatop_repro::swatop::optimizer::optimize;
use swatop_repro::swatop::optimizer::prefetch::apply_double_buffering;
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};

mod common;
use common::every_op;

/// The per-point sequence `Scheduler::lower_point` ran before any stage was
/// shared: lower, both pipelines, the raw capacity check, the overflow
/// fallback.
fn reference_point(
    op: &dyn Operator,
    cfg: &MachineConfig,
    space: &ScheduleSpace,
    point: &SchedulePoint,
) -> Option<Candidate> {
    let program = op.lower(space, point)?;
    let raw = optimize(program.clone(), false);
    plan(raw.clone(), cfg).ok()?;
    let exe = match plan(optimize(program, true), cfg) {
        Ok(exe) => exe,
        Err(_) => plan(raw.clone(), cfg).ok()?,
    };
    let prefetched = exe.program.body.uses_double_slot();
    Some(Candidate {
        point_index: point.index(space),
        describe: point.describe(space),
        raw,
        exe,
        prefetched,
    })
}

fn assert_same(op: &str, got: &Candidate, want: &Candidate) {
    let at = format!("{op} point {} ({})", want.point_index, want.describe);
    assert_eq!(got.point_index, want.point_index, "{at}");
    assert_eq!(got.describe, want.describe, "{at}");
    assert!(got.raw == want.raw, "{at}: raw differs");
    assert!(got.exe == want.exe, "{at}: exe differs");
    assert_eq!(got.prefetched, want.prefetched, "{at}");
}

#[test]
fn enumerate_equals_the_per_point_sequence() {
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let (mut total, mut prefetched, mut fell_back) = (0, 0, 0);
    for op in every_op() {
        let op = op.as_ref();
        let space = op.space();
        let want: Vec<Candidate> =
            space.points().filter_map(|p| reference_point(op, &cfg, &space, &p)).collect();
        let got = sched.enumerate(op);
        assert_eq!(got.len(), want.len(), "{}: candidate count", op.name());
        assert!(!got.is_empty(), "{}: empty space proves nothing", op.name());
        for (g, w) in got.iter().zip(&want) {
            assert_same(&op.name(), g, w);
        }
        // The one-point API is the same stages with an empty cache.
        for w in want.iter().step_by(37) {
            let point = space.point(w.point_index);
            let g = sched.lower_point(op, &space, &point).expect("valid point");
            assert_same(&op.name(), &g, w);
        }
        total += got.len();
        prefetched += got.iter().filter(|c| c.prefetched).count();
        fell_back += got.iter().filter(|c| c.raw.hints.dbuf && !c.prefetched).count();
    }
    // Anti-vacuity: both sides of the double-buffering branch were compared.
    assert!(prefetched > 0 && prefetched < total, "{prefetched} of {total} prefetched");
    println!("{total} candidates, {prefetched} prefetched, {fell_back} asked and fell back");
}

#[test]
fn prefetched_form_is_double_buffering_of_the_raw_form() {
    for op in every_op() {
        let space = op.space();
        let mut checked = 0;
        for point in space.points().step_by(7) {
            let Some(program) = op.lower(&space, &point) else { continue };
            let raw = optimize(program.clone(), false);
            let want = if program.hints.dbuf { apply_double_buffering(raw.clone()) } else { raw };
            assert!(
                optimize(program, true) == want,
                "{} at {}",
                op.name(),
                point.describe(&space)
            );
            checked += 1;
        }
        assert!(checked > 0, "{}", op.name());
    }
}

#[test]
fn prefetch_off_executes_the_raw_form() {
    let mut sched = Scheduler::new(MachineConfig::default());
    sched.enable_prefetch = false;
    for op in every_op() {
        let cands = sched.enumerate(op.as_ref());
        assert!(cands.iter().any(|c| c.raw.hints.dbuf), "{}: no dbuf point", op.name());
        for c in &cands {
            assert!(c.exe.program == c.raw, "{} at {}", op.name(), c.describe);
        }
    }
}

/// The invariant `lowering_ignores_dma_knobs` declares, checked from the
/// outside: moving only the DMA knobs moves only `hints`.
#[test]
fn library_lowerings_read_dma_knobs_into_hints_only() {
    for op in every_op() {
        assert!(op.lowering_ignores_dma_knobs(), "{}", op.name());
        let space = op.space();
        let dma = DmaKnobs::positions(&space);
        assert!(!dma.is_empty(), "{}: no DMA knob", op.name());
        let arities: Vec<usize> = dma.iter().map(|&i| space.knobs()[i].arity()).collect();
        let mut seen = std::collections::HashSet::new();
        let mut checked = 0;
        for point in space.points().step_by(5) {
            let mut base = point.sel().to_vec();
            dma.iter().for_each(|&i| base[i] = 0);
            if !seen.insert(base.clone()) {
                continue;
            }
            let at_zero = op.lower(&space, &SchedulePoint::from_sel(&space, base.clone()));
            // Every assignment of the DMA knobs, as a mixed-radix counter.
            for mut n in 1..arities.iter().product::<usize>() {
                let mut sel = base.clone();
                for (&i, &a) in dma.iter().zip(&arities) {
                    sel[i] = n % a;
                    n /= a;
                }
                let moved = SchedulePoint::from_sel(&space, sel);
                let hints = DmaKnobs::from_point(&space, &moved).hints();
                let want = at_zero.clone().map(|p| Program { hints, ..p });
                assert!(
                    op.lower(&space, &moved) == want,
                    "{} at {}",
                    op.name(),
                    moved.describe(&space)
                );
                checked += 1;
            }
            if let Some(p) = &at_zero {
                assert_eq!(p.hints, ScheduleHints::default(), "{}", op.name());
            }
        }
        assert!(checked > 0, "{}", op.name());
    }
}
