//! IR ownership (DESIGN.md §18): a `Program` is a handle over shared,
//! immutable parts, and the scheduler hands candidates handles rather than
//! copies. These tests pin, for one small shape of every operator in
//! `ops/`: which candidates share which trees (identity, not equality), that
//! writing through one handle never shows through another, and that the
//! tier-0 screen — which estimates each distinct `raw` once — ranks exactly
//! as a per-candidate estimate does.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use swatop_repro::ir::{Program, Stmt};
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::model::memo::MemoCache;
use swatop_repro::swatop::model::{estimate_program_memo, GemmModel};
use swatop_repro::swatop::ops::{DmaKnobs, MatmulOp};
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::tuner::{model_rank, screen_leaders};

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

#[test]
fn candidates_hold_one_tree_per_distinct_program() {
    let (mut shared_exe, mut sibling_pairs, mut bcast_pairs) = (0, 0, 0);
    for op in every_op() {
        let (op, space) = (op.as_ref(), op.space());
        let cands = enumerate(op);
        let dma = DmaKnobs::positions(&space);

        // An executable that is not double-buffered is its `raw`.
        for c in cands.iter().filter(|c| !c.prefetched) {
            assert!(same_storage(&c.raw, &c.exe.program), "{} at {}", op.name(), c.describe);
            shared_exe += 1;
        }

        // Candidates of one structural point that agree on (coalesce,
        // bcast) — the `dbuf` on/off siblings — hold the same `raw`.
        let mut groups: HashMap<(Vec<usize>, bool, bool), &Candidate> = HashMap::new();
        for c in &cands {
            let mut structural = space.point(c.point_index).sel().to_vec();
            dma.iter().for_each(|&i| structural[i] = 0);
            let key = (structural, c.raw.hints.coalesce, c.raw.hints.bcast);
            match groups.get(&key) {
                Some(first) => {
                    assert!(same_storage(&first.raw, &c.raw), "{} at {}", op.name(), c.describe);
                    assert_ne!(first.raw.hints.dbuf, c.raw.hints.dbuf, "{}", c.describe);
                    sibling_pairs += 1;
                }
                None => {
                    groups.insert(key, c);
                }
            }
        }

        // The bcast on/off siblings of one (structural point, coalesce)
        // are one derivation chain: the tagged form is a copy of the
        // untagged tree, and the tables are the same allocations.
        for ((structural, coalesce, bcast), tagged) in &groups {
            let Some(untagged) = groups.get(&(structural.clone(), *coalesce, false)) else {
                continue;
            };
            if *bcast {
                let (t, u) = (tagged.raw.part_addrs(), untagged.raw.part_addrs());
                assert_eq!(t[1..], u[1..], "{} at {}: tables", op.name(), tagged.describe);
                assert_ne!(t[0], u[0], "{} at {}: body", op.name(), tagged.describe);
                assert!(Arc::ptr_eq(&tagged.raw.name, &untagged.raw.name));
                bcast_pairs += 1;
            }
        }

        // Storage: one tree per distinct `raw`, plus one per executable the
        // double-buffer rewrite changed (its own copy) — nothing else.
        let raws: HashSet<usize> = cands.iter().map(|c| body_addr(&c.raw)).collect();
        let all: HashSet<usize> =
            cands.iter().flat_map(|c| [body_addr(&c.raw), body_addr(&c.exe.program)]).collect();
        let rewritten: Vec<&Candidate> =
            cands.iter().filter(|c| !same_storage(&c.raw, &c.exe.program)).collect();
        assert!(rewritten.iter().all(|c| c.prefetched && c.raw.hints.dbuf), "{}", op.name());
        assert_eq!(raws.len(), groups.len(), "{}: one raw per group", op.name());
        assert_eq!(all.len(), raws.len() + rewritten.len(), "{}: distinct trees", op.name());
        if dma.len() == 3 {
            // Independent toggles: every group is a dbuf on/off pair, so
            // there are no more trees than candidates.
            assert!(all.len() <= cands.len(), "{}: {} trees", op.name(), all.len());
        }
    }
    assert!(shared_exe > 0 && sibling_pairs > 0, "{shared_exe} shared, {sibling_pairs} pairs");
    assert!(bcast_pairs > 0, "no bcast on/off pair compared");
}

#[test]
fn writing_through_a_clone_leaves_every_other_handle_alone() {
    for op in every_op() {
        let cands = enumerate(op.as_ref());
        let i = cands.iter().position(|c| c.prefetched).expect("a prefetched candidate");
        let victim = &cands[i];
        let sharers: Vec<&Program> = cands
            .iter()
            .flat_map(|c| [&c.raw, &c.exe.program])
            .filter(|p| body_addr(p) == body_addr(&victim.raw))
            .collect();
        assert!(sharers.len() >= 2, "{}: raw is shared", op.name());
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
    let (model, memo) = (GemmModel::cached(cfg), Some(MemoCache::global()));
    let mut ranked: Vec<(usize, f64)> = cands
        .iter()
        .map(|c| estimate_program_memo(cfg, &model, &c.raw, memo).overall(c.prefetched))
        .enumerate()
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    bits(ranked)
}

#[test]
fn screen_equals_a_per_candidate_estimate() {
    let cfg = MachineConfig::default();
    for op in every_op() {
        let cands = enumerate(op.as_ref());
        let (leaders, slot) = screen_leaders(&cands);
        assert!(leaders.len() < cands.len(), "{}: nothing shared", op.name());
        assert_eq!(slot.len(), cands.len());
        let want = rank_per_candidate(&cfg, &cands);
        for jobs in [1, 2, 4] {
            assert_eq!(
                bits(model_rank(&cfg, &cands, jobs)),
                want,
                "{} jobs={jobs}",
                op.name()
            );
        }
    }
}

#[test]
fn screen_leaders_are_found_by_identity_only() {
    let cfg = MachineConfig::default();
    let cands = enumerate(&MatmulOp::new(36, 20, 50));
    let a = cands.iter().find(|c| !c.raw.hints.dbuf).expect("a dbuf-off candidate").clone();
    let b = cands
        .iter()
        .find(|c| c.raw.hints.dbuf && same_storage(&c.raw, &a.raw))
        .expect("its dbuf-on sibling")
        .clone();
    let other = cands.iter().find(|c| c.raw != a.raw).expect("a different program").clone();
    // Equal to `a` in every field, but its own allocation.
    let mut twin = a.clone();
    twin.raw.body_mut();
    assert!(twin.raw == a.raw && !same_storage(&twin.raw, &a.raw));

    let slice = [a.clone(), other.clone(), b, twin, other, a];
    let (leaders, slot) = screen_leaders(&slice);
    // `a`, its sibling and its clone share a slot though none are adjacent;
    // the equal twin leads its own.
    assert_eq!(leaders, vec![0, 1, 3]);
    assert_eq!(slot, vec![0, 1, 0, 2, 1, 0]);
    for jobs in [1, 2, 4] {
        assert_eq!(bits(model_rank(&cfg, &slice, jobs)), rank_per_candidate(&cfg, &slice));
    }
}
