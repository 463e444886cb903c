//! The scheduler's front end pays each stage once per distinct input
//! (`op.lower` per structural point, the DMA-wall pipeline per
//! (structural point, coalesce), the rest per point). These tests pin the contract
//! that makes that invisible: for one small shape of every operator in
//! `ops/`, `Scheduler::enumerate` equals — candidate for candidate, field
//! for field — lowering and optimizing every point on its own, written out
//! here from public functions only.

use swatop_repro::dsl::{SchedulePoint, ScheduleSpace};
use swatop_repro::ir::Program;
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::codegen::plan;
use swatop_repro::swatop::ops::{dma_knob, dma_level};
use swatop_repro::swatop::optimizer::{dma_wall, finish, optimize};
use swatop_repro::swatop::optimizer::prefetch::apply_double_buffering;
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};

mod common;
use common::every_op;

/// The per-point sequence `Scheduler::lower_point` ran before any stage was
/// shared: lower, the DMA-wall pipeline (the form a candidate keeps as
/// `raw`, untagged), the raw capacity check, the whole pipeline with its
/// overflow fallback.
fn reference_point(
    op: &dyn Operator,
    cfg: &MachineConfig,
    space: &ScheduleSpace,
    point: &SchedulePoint,
) -> Option<Candidate> {
    let program = op.lower(space, point)?;
    let raw = dma_wall(program.clone());
    plan(raw.clone(), cfg).ok()?;
    let exe = match plan(optimize(program.clone(), true), cfg) {
        Ok(exe) => exe,
        Err(_) => plan(optimize(program, false), cfg).ok()?,
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

/// Without prefetching a candidate executes its raw form, tagged when
/// `hints.bcast`.
#[test]
fn prefetch_off_executes_the_raw_form() {
    let mut sched = Scheduler::new(MachineConfig::default());
    sched.enable_prefetch = false;
    let mut tagged = 0;
    for op in every_op() {
        let cands = sched.enumerate(op.as_ref());
        assert!(cands.iter().any(|c| c.raw.hints.dbuf), "{}: no dbuf point", op.name());
        for c in &cands {
            let want = finish(c.raw.clone(), false);
            assert!(c.exe.program == want, "{} at {}", op.name(), c.describe);
            tagged += usize::from(c.exe.program != c.raw);
        }
    }
    // Anti-vacuity: tagging changed some executables.
    assert!(tagged > 0, "no bcast candidate had an eligible get");
}

/// The contract of `Operator::lower`, checked from the outside: moving only
/// the DMA knobs moves only `hints`.
#[test]
fn library_lowerings_read_dma_knobs_into_hints_only() {
    for op in every_op() {
        let space = op.space();
        let dma = dma_knob(&space).unwrap_or_else(|| panic!("{}: no DMA knob", op.name()));
        let mut seen = std::collections::HashSet::new();
        let mut checked = 0;
        for point in space.points().step_by(5) {
            let mut base = point.sel().to_vec();
            base[dma] = 0;
            if !seen.insert(base.clone()) {
                continue;
            }
            let at_zero = SchedulePoint::from_sel(&space, base.clone());
            let lowered = op.lower(&space, &at_zero);
            // Every other level of the `dma` menu.
            for level in 1..space.knobs()[dma].arity() {
                let mut sel = base.clone();
                sel[dma] = level;
                let moved = SchedulePoint::from_sel(&space, sel);
                let hints = dma_level(moved.choice(&space, "dma"));
                let want = lowered.clone().map(|p| Program { hints, ..p });
                assert!(
                    op.lower(&space, &moved) == want,
                    "{} at {}",
                    op.name(),
                    moved.describe(&space)
                );
                checked += 1;
            }
            if let Some(p) = &lowered {
                assert_eq!(p.hints, dma_level(at_zero.choice(&space, "dma")), "{}", op.name());
            }
        }
        assert!(checked > 0, "{}", op.name());
    }
}
