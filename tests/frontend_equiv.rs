//! The scheduler's front end pays each stage once per distinct input
//! (`op.lower` per structural point, the DMA-wall pipeline per
//! (structural point, coalesce), the rest per point). These tests pin the contract
//! that makes that invisible: for one small shape of every operator in
//! `ops/`, `Scheduler::enumerate` equals — candidate for candidate, field
//! for field — lowering and optimizing every point on its own, written out
//! here from public functions only.

use std::collections::HashMap;

use swatop_repro::dsl::{SchedulePoint, ScheduleSpace};
use swatop_repro::ir::Program;
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::codegen::plan;
use swatop_repro::swatop::ops::{dma_knob, dma_level, ImplicitConvOp};
use swatop_repro::swatop::optimizer::{dma_wall, finish, optimize};
use swatop_repro::swatop::optimizer::prefetch::apply_double_buffering;
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swtensor::ConvShape;

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

/// What runs: the executable's `Debug` with its `hints` block struck out.
/// Two candidates of one space with one digest are one program.
fn exe_digest(c: &Candidate) -> u64 {
    let text = format!("{:?}", &*c.exe);
    let start = text.find("hints: ScheduleHints {").expect("a program carries hints");
    let end = start + text[start..].find('}').expect("the hints block closes") + 1;
    let mut digest = Digest(FNV_OFFSET);
    digest.add(&text[..start]);
    digest.add(&text[end..]);
    digest.0
}

/// Over every operator, and the implicit spaces with and without `t_ro`,
/// no two candidates of one space run one program: every `dma` menu starts
/// at `dbuf` (`MatmulOp`'s at `dbuf+bcast`), so no level repeats a point
/// whose double buffering had no effect, and where it had none, the point
/// runs the program its level would without `dbuf` (ROADMAP 23(a)).
#[test]
fn no_operator_repeats_a_program() {
    let sched = Scheduler::new(MachineConfig::default());
    let implicit = implicit_shapes().into_iter().map(|s| Box::new(ImplicitConvOp::new(s)) as _);
    let (mut ops, mut fell_back) = (0, 0);
    for op in every_op().into_iter().chain(implicit) {
        let cands = sched.enumerate(op.as_ref());
        assert!(!cands.is_empty(), "{}", op.name());
        let mut first: HashMap<u64, &Candidate> = HashMap::new();
        for c in &cands {
            let kept = *first.entry(exe_digest(c)).or_insert(c);
            assert!(std::ptr::eq(kept, c), "{}: {} repeats {}", op.name(), c.describe, kept.describe);
        }
        fell_back += cands.iter().filter(|c| c.raw.hints.dbuf && !c.prefetched).count();
        ops += 1;
    }
    assert_eq!(ops, every_op().len() + implicit_shapes().len());
    // Anti-vacuity: some `dbuf` points fell back, the ones that repeated a
    // program while a level without `dbuf` stood beside them.
    assert!(fell_back > 0, "no dbuf point fell back");
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
                checked += 1;
            }
        }
        // A one-level menu (Winograd's) has no other level to move to; its
        // lowerings are still checked at that level.
        assert!(checked > 0, "{}", op.name());
    }
}

/// Implicit-conv spaces with merged output rows (`t_ro`, offered where B·Co
/// is not a multiple of 32) and without.
fn implicit_shapes() -> Vec<ConvShape> {
    let sq = ConvShape::square;
    let conv =
        |b, ni, no, ro, kr, pad| ConvShape { b, ni, no, ro, co: ro, kr, kc: kr, stride: 1, pad };
    vec![
        sq(1, 32, 32, 8),
        sq(4, 32, 32, 12),
        sq(2, 24, 40, 12),
        sq(1, 8, 8, 14),
        conv(2, 32, 32, 12, 3, 1),
        conv(1, 32, 32, 16, 1, 0),
        sq(4, 16, 16, 8),
        sq(8, 16, 16, 4),
        conv(8, 16, 16, 8, 3, 1),
    ]
}

/// FNV-1a, 64-bit.
struct Digest(u64);

/// FNV-1a's offset basis: where every digest starts.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Digest {
    fn add(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Merging output rows adds candidates and changes nothing else: where
/// `t_ro` is offered its `t_ro = 1` slice, and elsewhere the whole space,
/// hashes (describe, raw, executable, prefetched per candidate, `t_ro=1`
/// struck from the describe) to `tests/golden/implicit_one_row.txt`, first
/// recorded before `t_ro` existed and re-recorded only where the one-row
/// lowering itself changed, and when the DMA ladder lost `dma=none` (each
/// line then equalled the parent's with the `dma=none` candidates struck),
/// and when puts came to gather over the register bus (the executables'
/// put tags moved; with the gather refused every line equals the parent's).
/// On a mismatch the new text is written to `target/tmp/frontend_equiv/`.
#[test]
fn merged_rows_leave_the_one_row_candidates_as_they_were() {
    let sched = Scheduler::new(MachineConfig::default());
    let mut text = String::new();
    for shape in implicit_shapes() {
        let op = ImplicitConvOp::new(shape);
        let offered = op.space().has_knob("t_ro");
        assert_eq!(offered, !(shape.b * shape.co).is_multiple_of(32), "{shape:?}");
        let (mut digest, mut n, mut merged) = (Digest(FNV_OFFSET), 0, 0);
        for c in sched.enumerate(&op) {
            let describe = c.describe.replace(", t_ro=1,", ",");
            if describe.contains("t_ro=") {
                merged += 1;
                continue;
            }
            digest.add(&describe);
            digest.add(&format!("{:?}", c.raw));
            digest.add(&format!("{:?}", &*c.exe));
            digest.add(&c.prefetched.to_string());
            n += 1;
        }
        assert_eq!(merged > 0, offered, "{shape:?}: {merged} merged-row candidates");
        text += &format!("{}: {n} candidates, digest {:016x}\n", op.name(), digest.0);
    }
    let want = include_str!("golden/implicit_one_row.txt");
    if text != want {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/tmp/frontend_equiv");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("implicit_one_row.txt"), &text).unwrap();
        panic!("the one-row candidates moved: the new text is in {}", dir.display());
    }
}
