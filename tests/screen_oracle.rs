//! The tier-0 screen prices each run of loop iterations that take one path
//! through the body once (DESIGN.md §19), and prices a `bcast` program's
//! untagged tree as broadcast tagging would leave it. Its oracle is the walk
//! it replaced, over a tagged copy: every iteration of a loop whose variable
//! a guard reads, walked one at a time and summed left to right. Scores must
//! be `to_bits`-equal on every candidate of every operator, on the 73
//! paper-size Fig. 9 spaces (release), and on hand-built loops whose guards
//! flip mid-loop, mix variables, test equality, take an else arm, nest, read
//! only an enclosing variable, or run 0–2 times, and on hand-built gets that
//! broadcast over a row, over a column, not at all, or not under a guard.

use swatop_repro::ir::guards::guards_read;
use swatop_repro::ir::{
    AVar, AffineExpr, Cond, DmaCpe, Env, GemmOp, MatDesc, MemBufId, Program, ReplyId,
    ScheduleHints, SpmBufId, SpmSlot, Stmt,
};
use swatop_repro::sw26010::regcomm::BcastBus;
use swatop_repro::sw26010::{DmaDirection, MachineConfig};
use swatop_repro::swatop::model::{estimate, estimate_leaf, Estimate, GemmModel};
use swatop_repro::swatop::ops::ImplicitConvOp;
use swatop_repro::swatop::optimizer::coalesce::tag_broadcast;
use swatop_repro::swatop::scheduler::{Candidate, Scheduler};
use swatop_repro::swkernels::VecDim;
use swatop_repro::swtensor::MatLayout;
use swatop_repro::workloads::conv_sweep;

mod common;
use common::every_op;

/// The screen as it was before runs, on the tree the executable is built
/// from — a `bcast` program tagged by `tag_broadcast`: a loop whose variable
/// a guard reads is walked one iteration at a time, any other one iteration
/// × extent.
fn walked(cfg: &MachineConfig, model: &GemmModel, p: &Program) -> Estimate {
    fn walk(cfg: &MachineConfig, model: &GemmModel, s: &Stmt, env: &mut Env, est: &mut Estimate) {
        match s {
            Stmt::For { var, extent, body } => {
                let saved = env.get(*var);
                let mut sub = Estimate::default();
                if guards_read(body, *var) {
                    for i in 0..*extent {
                        env.set(*var, i as i64);
                        let mut iter = Estimate::default();
                        walk(cfg, model, body, env, &mut iter);
                        sub.t_dma += iter.t_dma;
                        sub.t_compute += iter.t_compute;
                        sub.t_transform += iter.t_transform;
                    }
                } else {
                    env.set(*var, 0);
                    let mut one = Estimate::default();
                    walk(cfg, model, body, env, &mut one);
                    sub.t_dma = one.t_dma * *extent as f64;
                    sub.t_compute = one.t_compute * *extent as f64;
                    sub.t_transform = one.t_transform * *extent as f64;
                }
                env.set(*var, saved);
                est.t_dma += sub.t_dma;
                est.t_compute += sub.t_compute;
                est.t_transform += sub.t_transform;
            }
            Stmt::If { cond, then_, else_ } => {
                if cond.eval(env, 0, 0) {
                    walk(cfg, model, then_, env, est);
                } else if let Some(e) = else_ {
                    walk(cfg, model, e, env, est);
                }
            }
            Stmt::Seq(ss) => ss.iter().for_each(|x| walk(cfg, model, x, env, est)),
            leaf => estimate_leaf(cfg, model, leaf, false, est),
        }
    }
    let mut tagged = p.clone();
    if p.hints.bcast {
        tag_broadcast(tagged.body_mut());
    }
    let mut env = Env::new(p.n_vars().max(1));
    let mut est = Estimate::default();
    walk(cfg, model, &tagged.body, &mut env, &mut est);
    est
}

/// Whether `hints.bcast` moves the screen's price of `p`.
fn bcast_moves(cfg: &MachineConfig, model: &GemmModel, p: &Program) -> bool {
    let with = |bcast| {
        let hints = ScheduleHints { bcast, ..p.hints };
        estimate(cfg, model, &Program { hints, ..p.clone() })
    };
    with(true) != with(false)
}

fn assert_scores_as_the_walk(cfg: &MachineConfig, model: &GemmModel, p: &Program, what: &str) {
    let (got, want) = (estimate(cfg, model, p), walked(cfg, model, p));
    let bits = |e: &Estimate| (e.t_dma.to_bits(), e.t_compute.to_bits(), e.t_transform.to_bits());
    assert_eq!(
        bits(&got),
        bits(&want),
        "{what}: {got:?} against the walk's {want:?}"
    );
}

/// Whether some loop of `s` has a guard reading its variable: a program the
/// run split applies to.
fn has_guarded_loop(s: &Stmt) -> bool {
    let mut found = false;
    s.visit(&mut |x| {
        if let Stmt::For { var, body, .. } = x {
            found |= guards_read(body, *var);
        }
    });
    found
}

/// Check the `raw` of every candidate of a space; `(candidates, raws with a
/// guarded loop, bcast raws that `bcast` prices differently)`.
fn check_space(cfg: &MachineConfig, cands: &[Candidate], what: &str) -> (usize, usize, usize) {
    let model = GemmModel::cached(cfg);
    let (mut guarded, mut moved) = (0, 0);
    for c in cands {
        let raw = &c.raw;
        assert_scores_as_the_walk(cfg, &model, raw, &format!("{what} at {}", c.describe));
        guarded += usize::from(has_guarded_loop(&raw.body));
        moved += usize::from(raw.hints.bcast && bcast_moves(cfg, &model, raw));
    }
    (cands.len(), guarded, moved)
}

#[test]
fn every_raw_of_every_operator_scores_as_the_walk() {
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let (mut guarded, mut moved) = (0, 0);
    for op in every_op() {
        let (_, g, m) = check_space(&cfg, &sched.enumerate(op.as_ref()), &op.name());
        (guarded, moved) = (guarded + g, moved + m);
    }
    assert!(guarded > 0, "no program had a guarded loop: the run split never ran");
    assert!(moved > 0, "no bcast raw priced apart from its untagged sibling");
}

/// Every Listing-1 configuration at paper size (batch 32, no spatial cap),
/// as `swatop_cli experiments --only fig9` enumerates them. Release-only:
/// `cargo test --release --test screen_oracle -- --include-ignored`.
#[test]
#[ignore = "73 paper-size spaces: run in release"]
fn every_raw_of_the_fig9_full_spaces_scores_as_the_walk() {
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let (mut spaces, mut candidates, mut guarded, mut moved) = (0, 0, 0, 0);
    for shape in conv_sweep(32, None) {
        if !ImplicitConvOp::applicable(&shape) {
            continue;
        }
        let cands = sched.enumerate(&ImplicitConvOp::new(shape));
        if cands.is_empty() {
            continue;
        }
        let what = format!("({},{},{})", shape.ni, shape.no, shape.ro);
        let (n, g, m) = check_space(&cfg, &cands, &what);
        (spaces, candidates, guarded, moved) = (spaces + 1, candidates + n, guarded + g, moved + m);
    }
    assert_eq!(spaces, 73);
    assert!(guarded > 0, "no program had a guarded loop: the run split never ran");
    assert!(moved > 0, "no bcast raw priced apart from its untagged sibling");
    println!(
        "{spaces} spaces, {candidates} candidates, {guarded} with a guarded loop, {moved} bcast"
    );
}

/// Leaves whose prices are not round numbers, so a sum taken in another
/// order — or a product in place of a sum — shows in the bits.
fn gemm(m: usize, n: usize, k: usize) -> Stmt {
    let operand = |layout| MatDesc::new(SpmSlot::Single(SpmBufId(0)), layout, 8);
    Stmt::gemm(GemmOp {
        m,
        n,
        k,
        alpha: 1.0,
        beta: 1.0,
        a: operand(MatLayout::ColMajor),
        b: operand(MatLayout::RowMajor),
        c: operand(MatLayout::ColMajor),
        vd: VecDim::M,
        k_step: None,
    })
}

fn get(offset: AffineExpr, block: usize, n_blocks: usize) -> Stmt {
    Stmt::DmaCpe(DmaCpe {
        buf: MemBufId(0),
        offset,
        block,
        stride: 3 * block + 1,
        n_blocks,
        direction: DmaDirection::MemToSpm,
        spm: SpmSlot::Single(SpmBufId(0)),
        reply: ReplyId(0),
        bcast: None,
        fused: false,
    })
}

fn wait() -> Stmt {
    Stmt::DmaWait { reply: ReplyId(0), times: 1 }
}

/// A program over loop variables `i` (0) and `j` (1).
fn program(body: Stmt) -> Program {
    let mut p = Program::new("hand_built");
    p.fresh_var("i");
    p.fresh_var("j");
    p.set_body(body);
    p
}

#[test]
fn hand_built_loops_score_as_the_walk() {
    let cfg = MachineConfig::default();
    let model = GemmModel::cached(&cfg);
    let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
    let lt = |e: &AffineExpr, c| Cond::lt_const(e.clone(), c);
    let mut cases: Vec<(String, Stmt)> = vec![
        (
            "a guard flips mid-loop, into an else arm".into(),
            Stmt::for_(
                0,
                40,
                Stmt::seq(vec![
                    Stmt::if_else(
                        lt(&i, 13),
                        gemm(64, 64, 64),
                        Stmt::seq(vec![get(i.scale(7), 24, 3), wait(), gemm(32, 96, 24)]),
                    ),
                    gemm(96, 32, 8),
                ]),
            ),
        ),
        (
            "a mixed guard 4i + j < 38: iteration 9 is constant in neither".into(),
            Stmt::for_(
                0,
                12,
                Stmt::for_(
                    1,
                    4,
                    Stmt::if_else(
                        lt(&i.scale(4).add(&j), 38),
                        gemm(64, 32, 24),
                        get(i.add(&j), 40, 5),
                    ),
                ),
            ),
        ),
        (
            "an Eq guard at one interior iteration".into(),
            Stmt::for_(
                0,
                40,
                Stmt::seq(vec![
                    gemm(128, 64, 16),
                    Stmt::if_(Cond::Eq(i.clone(), AffineExpr::konst(17)), get(i.clone(), 12, 7)),
                ]),
            ),
        ),
        (
            "a two-sided And guard and a Ge guard with an else arm".into(),
            Stmt::for_(
                0,
                33,
                Stmt::seq(vec![
                    Stmt::if_(
                        Cond::Ge(i.clone(), AffineExpr::konst(3)).and(lt(&i, 29)),
                        gemm(32, 32, 40),
                    ),
                    Stmt::if_else(
                        Cond::Ge(i.scale(3), AffineExpr::konst(50)),
                        get(i.clone(), 20, 2),
                        wait(),
                    ),
                ]),
            ),
        ),
        (
            "nested loops whose guards both read their variables".into(),
            Stmt::for_(
                0,
                9,
                Stmt::for_(
                    1,
                    7,
                    Stmt::seq(vec![
                        Stmt::if_else(lt(&i.add(&j), 10), gemm(64, 96, 32), get(j.clone(), 36, 3)),
                        Stmt::if_(lt(&j, 5), wait()),
                        Stmt::if_(lt(&i, 8), gemm(32, 64, 8)),
                    ]),
                ),
            ),
        ),
        (
            "a guard on the enclosing variable only".into(),
            Stmt::for_(0, 6, Stmt::for_(1, 5, Stmt::if_(lt(&i, 4), gemm(96, 64, 40)))),
        ),
    ];
    for extent in 0..=2 {
        let body = Stmt::seq(vec![
            Stmt::if_else(lt(&i, 1), gemm(64, 64, 24), get(i.clone(), 28, 3)),
            Stmt::for_(1, 0, Stmt::if_(lt(&i, 1), gemm(32, 32, 8))),
        ]);
        cases.push((format!("extent {extent}"), Stmt::for_(0, extent, body)));
        let inner = Stmt::for_(1, extent, Stmt::if_else(lt(&j, 1), gemm(32, 96, 16), wait()));
        cases.push((format!("inner extent {extent}"), Stmt::for_(0, 5, inner)));
    }
    for (what, body) in cases {
        assert_scores_as_the_walk(&cfg, &model, &program(body), &what);
    }
}

/// A get of `block`-element blocks whose offset moves `rid`, `cid` elements
/// per mesh row and column.
fn mesh_get(rid: i64, cid: i64, block: usize, n_blocks: usize, stride: usize) -> Stmt {
    Stmt::DmaCpe(DmaCpe {
        buf: MemBufId(0),
        offset: AffineExpr::loop_var(0).scale(64).add_term(AVar::Rid, rid).add_term(AVar::Cid, cid),
        block,
        stride,
        n_blocks,
        direction: DmaDirection::MemToSpm,
        spm: SpmSlot::Single(SpmBufId(0)),
        reply: ReplyId(0),
        bcast: None,
        fused: false,
    })
}

#[test]
fn untagged_bcast_gets_score_as_the_tagged_walk() {
    let cfg = MachineConfig::default();
    let model = GemmModel::cached(&cfg);
    let looped = |get| Stmt::for_(0, 12, Stmt::seq(vec![get, wait(), gemm(64, 32, 24)]));
    let guarded = Stmt::if_(Cond::lt_const(AffineExpr::loop_var(0), 5), mesh_get(96, 12, 12, 1, 12));
    // (case, body, the bus `tag_broadcast` gives its get, whether `bcast`
    // moves the price)
    let cases = [
        ("a row-eligible get", looped(mesh_get(96, 12, 12, 1, 12)), Some(BcastBus::Row), true),
        ("a column-eligible get", looped(mesh_get(12, 96, 12, 1, 12)), Some(BcastBus::Column), true),
        ("a stride the leader's read overruns", looped(mesh_get(256, 4, 4, 2, 16)), None, false),
        ("an eligible get under an If arm", looped(guarded), None, false),
    ];
    for (what, body, bus, moves) in cases {
        let mut p = program(body);
        p.hints.bcast = true;
        assert_scores_as_the_walk(&cfg, &model, &p, what);
        let mut tagged = Stmt::clone(&p.body);
        tag_broadcast(&mut tagged);
        let mut buses = Vec::new();
        tagged.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                buses.push(d.bcast);
            }
        });
        assert_eq!(buses, vec![bus], "{what}");
        assert_eq!(bcast_moves(&cfg, &model, &p), moves, "{what}");
    }
}
