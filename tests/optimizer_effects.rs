//! Integration tests for the IR optimizer's measurable effects: latency
//! hiding, boundary strategies and determinism of the machine model.

use swatop_repro::ir::{Link, Stmt};
use swatop_repro::sw26010::{CoreGroup, ExecMode, MachineConfig};
use swatop_repro::swatop::interp::{execute, instantiate};
use swatop_repro::swatop::ops::tiling::PadMode;
use swatop_repro::swatop::ops::{verify_candidate, ImplicitConvOp, MatmulOp};
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::tuner::{run_candidate, tune, TierPolicy, TuneOptions, TuneOutcome};
use swatop_repro::swtensor::ConvShape;

fn cfg() -> MachineConfig {
    MachineConfig::default()
}

/// Brute force: every candidate through the scoreboard.
fn sweep(cfg: &MachineConfig, cands: &[Candidate]) -> TuneOutcome {
    let opts = TuneOptions { tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
    tune(cfg, cands, &opts, None).unwrap()
}

#[test]
fn prefetch_improves_dma_bound_conv() {
    let cfg = cfg();
    let op = ImplicitConvOp::new(ConvShape::square(32, 32, 32, 8));
    let with = Scheduler::new(cfg.clone());
    let mut without = Scheduler::new(cfg.clone());
    without.enable_prefetch = false;
    let best_with = sweep(&cfg, &with.enumerate(&op)).cycles;
    let best_without = sweep(&cfg, &without.enumerate(&op)).cycles;
    let gain = best_without.get() as f64 / best_with.get() as f64;
    assert!(
        gain > 1.05,
        "auto-prefetching must help even the best baseline schedule (gain {gain:.3})"
    );
}

#[test]
fn lightweight_padding_beats_traditional_at_same_point() {
    let cfg = cfg();
    // Misaligned everywhere: heavy boundary processing.
    let (m, n, k) = (130, 70, 50);
    let light = MatmulOp::new(m, n, k);
    let trad = MatmulOp::new(m, n, k).with_pad_mode(PadMode::Traditional);
    let sched = Scheduler::new(cfg.clone());
    let space = light.space();
    let mut checked = 0;
    for idx in 0..space.size() {
        let point = space.point(idx);
        let (Some(lc), Some(tc)) = (
            sched.lower_point(&light, &space, &point),
            sched.lower_point(&trad, &space, &point),
        ) else {
            continue;
        };
        let (Ok(l), Ok(t)) = (run_candidate(&cfg, &lc), run_candidate(&cfg, &tc)) else {
            continue;
        };
        assert!(
            l <= t,
            "lightweight ({l}) slower than traditional ({t}) at {}",
            point.describe(&space)
        );
        // Both must still be correct.
        assert!(verify_candidate(&cfg, &light, &lc).unwrap() < 1e-2);
        assert!(verify_candidate(&cfg, &trad, &tc).unwrap() < 1e-2);
        checked += 1;
        if checked >= 4 {
            break;
        }
    }
    assert!(checked > 0);
}

#[test]
fn simulation_is_deterministic() {
    let cfg = cfg();
    let op = MatmulOp::new(96, 64, 40);
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    let a = sweep(&cfg, &cands);
    let b = sweep(&cfg, &cands);
    assert_eq!(a.best, b.best);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.all_cycles, b.all_cycles);
}

#[test]
fn cost_only_and_functional_clocks_agree() {
    // The autotuner measures in cost-only mode; its clock must be exactly
    // the clock a functional run observes.
    let cfg = cfg();
    let op = ImplicitConvOp::new(ConvShape::square(8, 16, 16, 4));
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    for cand in cands.iter().take(5) {
        // run_candidate adds the warm-start kernel signal on top of the
        // program's clock; subtract it to compare raw execution clocks.
        let cost_only = run_candidate(&cfg, cand).unwrap() - cfg.kernel_signal;
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
        let binding = instantiate(&mut cg, &cand.exe);
        // Inputs stay zero — data values never affect timing.
        let functional = execute(&mut cg, &cand.exe, &binding).unwrap();
        assert_eq!(cost_only, functional, "{}", cand.describe);
    }
}

#[test]
fn spm_capacity_is_respected_by_every_candidate() {
    let cfg = cfg();
    let op = ImplicitConvOp::new(ConvShape::square(32, 64, 64, 16));
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    assert!(!cands.is_empty());
    for cand in &cands {
        assert!(
            cand.exe.spm_used <= cfg.spm_elems(),
            "{} uses {} elems",
            cand.describe,
            cand.exe.spm_used
        );
    }
}

#[test]
fn double_buffering_doubles_only_streamed_buffers() {
    let cfg = cfg();
    let op = MatmulOp::new(64, 64, 64);
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    let pf = cands.iter().find(|c| c.prefetched).expect("some schedule prefetches");
    // The prefetched executable has more SPM buffers than the raw one, but
    // not more than twice as many.
    let raw_bufs = pf.raw.spm_bufs.len();
    let exe_bufs = pf.exe.program.spm_bufs.len();
    assert!(exe_bufs > raw_bufs);
    assert!(exe_bufs <= 2 * raw_bufs);
}

#[test]
fn sibling_gathers_read_their_pack_once() {
    // The implicit winner of the repo benchmark's brute-force workload: its
    // nine per-tap gathers of the input pack, and nine of the weight pack,
    // each run as one pass that reads the pack's source once.
    let cfg = cfg();
    let op = ImplicitConvOp::new(ConvShape::square(8, 32, 32, 16));
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let cand = cands
        .iter()
        .find(|c| c.describe.contains("dma=all") && c.describe.contains("red=resident"))
        .expect("a resident candidate");
    let tops = match &*cand.exe.program.body {
        Stmt::Seq(ss) => ss.to_vec(),
        other => vec![other.clone()],
    };
    let transform = |s: &Stmt| match s {
        Stmt::Transform(t) => Some(t.clone()),
        _ => None,
    };
    let mut runs = 0;
    for (end, t) in tops.iter().enumerate().filter_map(|(i, s)| Some((i, transform(s)?))) {
        let Link::Closes { reads, writes, .. } = t.link else { continue };
        let start = end - tops[..end].iter().rev().take_while(|s| matches!(s,
            Stmt::Transform(m) if m.link == Link::Joins)).count();
        let members: Vec<_> = tops[start..=end].iter().filter_map(transform).collect();
        assert_eq!(members.len(), 9, "{}: a run of {}", cand.describe, members.len());
        let producer = tops[..start]
            .iter()
            .filter_map(transform)
            .rfind(|p| p.link.feeds() && p.kind.dst() == t.kind.src())
            .expect("the run's producer");
        assert_eq!(reads, producer.kind.traffic().0, "{}: one read of the source", cand.describe);
        assert_eq!(writes, members.iter().map(|m| m.kind.traffic().1).sum::<u64>());
        runs += 1;
    }
    assert_eq!(runs, 2, "{}", cand.describe);
    let err = verify_candidate(&cfg, &op, cand).expect("the candidate runs");
    assert!(err < 1e-3, "{}: wrong by {err}", cand.describe);
    let cost_only = run_candidate(&cfg, cand).unwrap() - cfg.kernel_signal;
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    let binding = instantiate(&mut cg, &cand.exe);
    assert_eq!(cost_only, execute(&mut cg, &cand.exe, &binding).unwrap(), "{}", cand.describe);
}
