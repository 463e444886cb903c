//! IR ownership (DESIGN.md §18): a `Program` is a handle over shared,
//! immutable parts, and the scheduler hands candidates handles rather than
//! copies. These tests pin, for one small shape of every operator in
//! `ops/`: which candidates share which trees (identity, not equality), that
//! writing through one handle never shows through another, and that the
//! tier-0 screen ranks exactly as a per-candidate estimate does, on every
//! space and on a hand-made slice of clones.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use swatop_repro::ir::{Program, ScheduleHints, Stmt};
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::model::{estimate, GemmModel};
use swatop_repro::swatop::ops::{dma_knob, dma_menu, ExplicitConvOp, MatmulOp};
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::tuner::model_rank;
use swatop_repro::swtensor::ConvShape;

mod common;
use common::every_op;

fn enumerate(op: &dyn Operator) -> Vec<Candidate> {
    Scheduler::new(MachineConfig::default()).enumerate(op)
}

/// Whether two handles are one program as far as storage goes.
fn same_storage(a: &Program, b: &Program) -> bool {
    a.part_addrs() == b.part_addrs() && Arc::ptr_eq(&a.name, &b.name)
}

fn body_addr(p: &Program) -> usize {
    p.part_addrs()[0]
}

/// Whether two levels of the menu agree on what `key` reads of them.
fn two_levels_agree<K: PartialEq>(
    menu: &[ScheduleHints],
    key: impl Fn(&ScheduleHints) -> K,
) -> bool {
    menu.iter().enumerate().any(|(i, a)| menu[..i].iter().any(|b| key(a) == key(b)))
}

#[test]
fn candidates_hold_one_tree_per_distinct_program() {
    let (mut shared_exe, mut sibling_pairs, mut bcast_pairs) = (0, 0, 0);
    for op in every_op() {
        let (op, space) = (op.as_ref(), op.space());
        let cands = enumerate(op);
        let (dma, menu) = (dma_knob(&space), dma_menu(&space));
        let pairs_before = sibling_pairs;

        // An executable that is neither double-buffered nor broadcast is
        // its `raw`.
        for c in cands.iter().filter(|c| !c.prefetched && !c.raw.hints.bcast) {
            assert!(same_storage(&c.raw, &c.exe.program), "{} at {}", op.name(), c.describe);
            shared_exe += 1;
        }

        // Candidates of one structural point that agree on `coalesce` — the
        // `bcast` siblings — hold the same `raw`, body included, and differ
        // in their hints.
        // The first candidate of a group, and the `bcast` hints seen.
        type Group<'a> = (&'a Candidate, HashSet<bool>);
        let mut groups: HashMap<(Vec<usize>, bool), Group> = HashMap::new();
        for c in &cands {
            let mut structural = space.point(c.point_index).sel().to_vec();
            dma.iter().for_each(|&i| structural[i] = 0);
            let (first, seen) = groups
                .entry((structural, c.raw.hints.coalesce))
                .or_insert_with(|| (c, HashSet::new()));
            assert!(seen.insert(c.raw.hints.bcast), "{}", c.describe);
            if !std::ptr::eq(*first, c) {
                assert!(same_storage(&first.raw, &c.raw), "{} at {}", op.name(), c.describe);
                sibling_pairs += 1;
                bcast_pairs += usize::from(first.raw.hints.bcast != c.raw.hints.bcast);
            }
        }

        // Storage: one tree per (structural point, coalesce), plus one per
        // executable that broadcast tagging or the double-buffer rewrite
        // changed (its own copy) — nothing else.
        let raws: HashSet<usize> = cands.iter().map(|c| body_addr(&c.raw)).collect();
        let all: HashSet<usize> =
            cands.iter().flat_map(|c| [body_addr(&c.raw), body_addr(&c.exe.program)]).collect();
        let rewritten: Vec<&Candidate> =
            cands.iter().filter(|c| !same_storage(&c.raw, &c.exe.program)).collect();
        let rewrites = |c: &&Candidate| c.prefetched || c.raw.hints.bcast;
        assert!(rewritten.iter().all(rewrites), "{}", op.name());
        assert_eq!(raws.len(), groups.len(), "{}: one raw per group", op.name());
        assert_eq!(all.len(), raws.len() + rewritten.len(), "{}: distinct trees", op.name());
        // Siblings exist exactly where two levels of the menu agree on
        // `coalesce` (Winograd's one level, `all`, has none, and neither
        // has `MatmulOp`'s `dbuf+bcast`, `all`).
        let shares = two_levels_agree(&menu, |h| h.coalesce);
        assert_eq!(sibling_pairs > pairs_before, shares, "{}: {menu:?}", op.name());
    }
    assert!(shared_exe > 0 && sibling_pairs > 0, "{shared_exe} shared, {sibling_pairs} pairs");
    assert!(bcast_pairs > 0, "no bcast on/off pair compared");
}

#[test]
fn writing_through_a_clone_leaves_every_other_handle_alone() {
    for op in every_op() {
        let cands = enumerate(op.as_ref());
        let handles: Vec<&Program> = cands.iter().flat_map(|c| [&c.raw, &c.exe.program]).collect();
        let sharers_of = |c: &Candidate| -> Vec<&Program> {
            handles.iter().copied().filter(|p| body_addr(p) == body_addr(&c.raw)).collect()
        };
        // A prefetched candidate whose `raw` another handle holds too. No
        // two Winograd or `MatmulOp` handles share a tree (no two levels of
        // their menus agree on `coalesce`, so each `raw` has one candidate,
        // and broadcast tagging rewrites every executable): there a second
        // handle on the first prefetched `raw` stands in.
        let prefetched = || cands.iter().filter(|c| c.prefetched);
        let shared = prefetched().find(|c| sharers_of(c).len() >= 2);
        let alone = ["winograd", "matmul_"].iter().any(|n| op.name().starts_with(n));
        assert_eq!(shared.is_some(), !alone, "{}", op.name());
        let victim = shared.or_else(|| prefetched().next()).expect("a prefetched candidate");
        let held = victim.raw.clone();
        let mut sharers = sharers_of(victim);
        sharers.push(&held);
        let before: Vec<String> = sharers.iter().map(|p| format!("{p:?}")).collect();

        let mut copy = victim.raw.clone();
        assert!(same_storage(&copy, &victim.raw));
        *copy.body_mut() = Stmt::seq(vec![Stmt::Nop]);
        copy.spm_buf("scratch", 8);
        copy.fresh_var("extra");
        assert_eq!(*copy.body, Stmt::Nop);
        assert!(copy != victim.raw);
        assert_eq!(copy.spm_bufs.len(), victim.raw.spm_bufs.len() + 1);
        assert_eq!(copy.n_vars(), victim.raw.n_vars() + 1);
        // `mem_bufs` was not written to: still the one allocation.
        assert!(Arc::ptr_eq(&copy.mem_bufs, &victim.raw.mem_bufs));
        let unchanged = || sharers.iter().zip(&before).all(|(p, was)| &format!("{p:?}") == was);
        assert!(unchanged(), "{}: a write showed through", op.name());

        let mut taken = victim.raw.clone();
        assert!(taken.take_body() == *victim.raw.body, "a shared tree is copied out");
        assert_eq!(*taken.body, Stmt::Nop);
        assert!(unchanged(), "{}: a take showed through", op.name());
    }
}

#[test]
fn a_uniquely_owned_program_is_edited_in_place() {
    let op = MatmulOp::new(36, 20, 50);
    let space = op.space();
    let mut p = space.points().find_map(|pt| op.lower(&space, &pt)).expect("a valid point");
    let before = p.part_addrs();
    *p.body_mut() = Stmt::seq(vec![Stmt::clone(&p.body), Stmt::Nop]);
    p.spm_buf("scratch", 8);
    p.fresh_var("extra");
    assert_eq!(p.part_addrs(), before, "no part was copied");
    let body = p.take_body();
    p.set_body(body);
    assert_eq!(p.part_addrs()[1..], before[1..], "the tables never move");
}

#[test]
fn programs_and_candidates_cross_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<Candidate>();
}

/// A ranking as comparable bits.
fn bits(ranked: Vec<(usize, f64)>) -> Vec<(usize, u64)> {
    ranked.into_iter().map(|(i, s)| (i, s.to_bits())).collect()
}

/// The ranking `model_rank` must produce, with one estimate per
/// candidate.
fn rank_per_candidate(cfg: &MachineConfig, cands: &[Candidate]) -> Vec<(usize, u64)> {
    let model = GemmModel::cached(cfg);
    let mut ranked: Vec<(usize, f64)> = cands
        .iter()
        .map(|c| estimate(cfg, &model, &c.raw).overall(c.prefetched))
        .enumerate()
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    bits(ranked)
}

/// `model_rank` over `cands` equals a per-candidate estimate, `to_bits`, at
/// every `jobs`.
fn assert_screen_is_per_candidate(cfg: &MachineConfig, cands: &[Candidate], what: &str) {
    let want = rank_per_candidate(cfg, cands);
    for jobs in [1, 2, 4] {
        assert_eq!(bits(model_rank(cfg, cands, jobs)), want, "{what} jobs={jobs}");
    }
}

#[test]
fn screen_equals_a_per_candidate_estimate() {
    let cfg = MachineConfig::default();
    for op in every_op() {
        assert_screen_is_per_candidate(&cfg, &enumerate(op.as_ref()), &op.name());
    }

    // A hand-made slice of clones: an un-prefetched copy of a prefetched
    // matmul candidate (the two differ in `prefetched` alone), its equal
    // twin in its own allocation, a `bcast` sibling holding its `coal`
    // sibling's very tree, and repeats placed apart.
    let gemm = enumerate(&MatmulOp::new(36, 20, 50));
    let conv = enumerate(&ExplicitConvOp::new(ConvShape::square(4, 16, 16, 8)));
    let b = gemm.iter().find(|c| c.prefetched && !c.raw.hints.coalesce);
    let b = b.expect("a prefetched candidate").clone();
    let mut a = b.clone();
    a.prefetched = false;
    assert!(same_storage(&a.raw, &b.raw));
    let coal = conv.iter().find(|c| c.raw.hints.coalesce && !c.raw.hints.bcast);
    let coal = coal.expect("a coalesced candidate").clone();
    let bcast = conv.iter().find(|c| c.raw.hints.bcast && same_storage(&c.raw, &coal.raw));
    let bcast = bcast.expect("its bcast sibling").clone();
    let other = gemm.iter().find(|c| !c.raw.hints.coalesce && !same_storage(&c.raw, &a.raw));
    let other = other.expect("a different program").clone();
    // Equal to `a` in every field, but its own allocation.
    let mut twin = a.clone();
    twin.raw.body_mut();
    assert!(twin.raw == a.raw && !same_storage(&twin.raw, &a.raw));

    let slice = [a.clone(), other.clone(), b, twin, other, a, coal, bcast];
    assert_screen_is_per_candidate(&cfg, &slice, "hand-made slice");
}
