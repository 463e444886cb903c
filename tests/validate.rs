//! Schedule verification & quarantine: the static legality checker and the
//! differential validator against real operator schedules, the seeded
//! miscompile-injection matrix (every class × several seeds must be
//! caught, with zero false positives on clean schedules), tuner
//! quarantine-and-fallback determinism, and checkpoint/resume through a
//! sweep whose winner gets quarantined.

mod common;

use common::every_op;
use proptest::prelude::*;
use swatop_repro::sw26010::fault::{MiscompileKind, MiscompilePlan};
use swatop_repro::sw26010::{
    CoreGroup, DmaDirection, ExecMode, FaultPlan, MachineConfig, MachineError,
};
use swatop_repro::swatop::interp::{execute, instantiate};
use swatop_repro::swatop::ops::matmul::{lower_matmul_body, MatmulKnobs, Resident};
use swatop_repro::swatop::ops::tiling::PadMode;
use swatop_repro::swatop::ops::{validate_candidate, validate_candidate_injected, MatmulOp};
use swatop_repro::swatop::optimizer::verify::verify_executable;
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::tuner::checkpoint::{self, CandCell};
use swatop_repro::swatop::tuner::{
    should_retry, tune, CheckpointPolicy, TierPolicy,
    TuneOptions, TuneOutcome, WinnerValidator,
};
use swatop_repro::ir::{MemRole, Program, ScheduleHints, Stmt, TransformKind};
use swatop_repro::{swatop, swtensor};

fn candidates(op: &dyn Operator) -> Vec<Candidate> {
    Scheduler::new(MachineConfig::default()).enumerate(op)
}

/// Number of per-CPE DMA statements in a candidate's planned program,
/// optionally counting only members of fused chains.
fn dma_stmts(c: &Candidate, fused_only: bool) -> usize {
    let mut n = 0;
    c.exe.program.body.visit(&mut |s| {
        if let Stmt::DmaCpe(d) = s {
            if !fused_only || d.fused {
                n += 1;
            }
        }
    });
    n
}

/// Every enumerated matmul candidate — all knob combinations of the
/// DMA-wall passes — must pass the static legality checker: the optimizer
/// may only generate legal schedules.
#[test]
fn all_enumerated_matmul_candidates_are_statically_legal() {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(96, 96, 48);
    let cands = candidates(&op);
    assert!(!cands.is_empty());
    for c in &cands {
        if let Err(vs) = verify_executable(&c.exe, &cfg) {
            panic!("candidate {} ({}) flagged: {:?}", c.point_index, c.describe, vs);
        }
    }
}

/// Zero false positives on the clean path: full validation (static +
/// differential) passes for a stride-sample of the candidate space. The
/// static pass already covers every candidate above; the differential stage
/// costs a functional execution per candidate, so this samples with a
/// prime stride that crosses every knob dimension of the space.
#[test]
fn clean_candidates_validate_with_zero_false_positives() {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(96, 96, 48);
    let cands = candidates(&op);
    let mut checked = 0;
    for c in cands.iter().step_by(7).chain(cands.last()) {
        if let Err(msg) = validate_candidate(&cfg, &op, c) {
            panic!("false positive on candidate {} ({}): {msg}", c.point_index, c.describe);
        }
        checked += 1;
    }
    assert!(checked > 100, "sample too thin: {checked}");
}

/// Every candidate of every operator that stages a put (a strided output
/// tile landed contiguously, then scattered into its scratch buffer by the
/// transform that reads it) passes full validation. A debug build checks
/// every 8th per operator: the functional runs take about 30 s there.
#[test]
fn every_candidate_that_stages_a_put_validates() {
    let cfg = MachineConfig::default();
    let scatter = |s: &Stmt| {
        matches!(s, Stmt::Transform(t) if matches!(t.kind,
            TransformKind::PackTiles { direction: DmaDirection::SpmToMem, .. }))
    };
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let mut checked = 0;
    for op in every_op() {
        let cands = candidates(&*op);
        let staged = cands.iter().filter(|c| c.exe.program.body.count(scatter) > 0);
        for c in staged.step_by(stride) {
            if let Err(msg) = validate_candidate(&cfg, &*op, c) {
                panic!("{} candidate {} ({}): {msg}", op.name(), c.point_index, c.describe);
            }
            checked += 1;
        }
    }
    // 752 candidates stage a put.
    assert!(checked * stride >= 700, "{checked} checked");
}

/// The injection matrix: every miscompile class, across several seeds, must
/// be flagged by the differential validator — and the assertion only counts
/// when the injector actually fired (`events > 0`), so a schedule that
/// never exercises the corrupted path can't pass vacuously.
#[test]
fn injection_matrix_every_class_and_seed_is_caught() {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(96, 96, 48);
    let cands = candidates(&op);
    // One candidate exercising all corruptible machinery: double-buffered
    // (ping/pong parity to swap), with fused DMA chains (waits to drop),
    // and plenty of payload copies (periods: 61 copies / 7 parities / 2
    // chained batches).
    let cand = cands
        .iter()
        .find(|c| c.prefetched && dma_stmts(c, true) >= 2 && dma_stmts(c, false) >= 4)
        .expect("space contains a prefetched candidate with fused chains");
    for kind in MiscompileKind::ALL {
        for seed in [1u64, 5, 11, 23] {
            let plan = MiscompilePlan { kind, seed };
            let (verdict, events) = validate_candidate_injected(&cfg, &op, cand, plan);
            assert!(
                events > 0,
                "{} seed {seed}: injector never fired on {}",
                kind.name(),
                cand.describe
            );
            assert!(
                verdict.is_err(),
                "{} seed {seed}: miscompile escaped the validator ({events} events)",
                kind.name()
            );
        }
    }
}

/// Error classification feeding the retry policy: transient DMA faults are
/// always worth retrying, SPM overflow only under injected capacity
/// pressure, and deterministic contract violations never.
#[test]
fn retry_policy_never_retries_deterministic_errors() {
    let dma = MachineError::DmaFault { batch: 3 };
    let spm = MachineError::SpmOverflow { cpe: 0, offset: 0, len: 9000, capacity: 8192 };
    let args = MachineError::BadKernelArgs("m % 8 != 0".into());
    assert!(dma.is_transient() && !dma.is_deterministic());
    assert!(spm.is_deterministic() && args.is_deterministic());
    assert!(should_retry(&dma, false) && should_retry(&dma, true));
    assert!(should_retry(&spm, true), "pressure may have caused it");
    assert!(!should_retry(&spm, false), "deterministic on a clean machine");
    assert!(!should_retry(&args, true) && !should_retry(&args, false));
}

/// Options for a brute-force sweep on `jobs` workers.
fn sweep(jobs: usize) -> TuneOptions {
    TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() }
}

fn assert_same_choice(a: &TuneOutcome, b: &TuneOutcome, what: &str) {
    assert_eq!(a.best, b.best, "{what}: best");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.quarantined, b.quarantined, "{what}: quarantined");
    assert_eq!(a.reports, b.reports, "{what}: reports");
}

/// A quarantined winner falls back to the next-best candidate, the
/// rejection reason lands in its report, and the whole dance is
/// bit-deterministic across worker counts.
#[test]
fn quarantined_winner_falls_back_deterministically() {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(96, 96, 48);
    let cands = candidates(&op);
    let clean = tune(&cfg, &cands, &sweep(1), None).expect("clean tune");
    assert_eq!(clean.quarantined, 0);
    let banned = clean.best;
    let validator = move |i: usize, _: &Candidate| {
        if i == banned { Err("synthetic: rejected by test".to_string()) } else { Ok(()) }
    };
    let run = |jobs: usize| {
        tune(&cfg, &cands, &sweep(jobs), Some(&validator as &WinnerValidator))
            .expect("fallback tune")
    };
    let serial = run(1);
    assert_ne!(serial.best, banned, "quarantined winner must lose");
    assert_eq!(serial.quarantined, 1);
    assert!(serial.cycles >= clean.cycles, "fallback can't beat the true best");
    assert_eq!(
        serial.reports[banned].quarantined.as_deref(),
        Some("synthetic: rejected by test")
    );
    assert!(serial.reports[serial.best].quarantined.is_none());
    for jobs in [2, 4] {
        assert_same_choice(&serial, &run(jobs), &format!("jobs={jobs}"));
    }
}

/// The model-guided tuner's fallback pulls candidates *beyond* its
/// measured wave when validation quarantines everything it proposed: only
/// one candidate outside the executed wave is acceptable, and the tuner
/// must keep walking its ranking until it finds it.
#[test]
fn top_k_fallback_walks_past_the_wave() {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(96, 96, 48);
    let cands = candidates(&op);
    let top3 = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    let clean = tune(&cfg, &cands, &top3, None).expect("clean model tune");
    assert!(clean.executed < cands.len(), "top-k must not execute everything");
    // Accept only a candidate the clean run never executed, forcing the
    // fallback loop to exhaust the wave and pull from the remaining ranking.
    let target = (0..cands.len())
        .find(|&i| clean.all_cycles[i].is_none())
        .expect("an unexecuted candidate exists");
    let validator = move |i: usize, _: &Candidate| {
        if i == target { Ok(()) } else { Err("synthetic: only one acceptable".to_string()) }
    };
    let out = tune(&cfg, &cands, &top3, Some(&validator as &WinnerValidator))
        .expect("fallback must reach the acceptable candidate");
    assert_eq!(out.best, target);
    assert!(out.quarantined >= 3, "the whole wave was rejected");
    assert!(out.executed > clean.executed, "fallback executed beyond the wave");
    assert!(out.reports[target].quarantined.is_none());
}

/// Satellite: an interrupted *validated* sweep — quarantined winner and
/// all — resumes from its checkpoint to a bit-identical outcome at any
/// worker count. Quarantine verdicts are recomputed on resume (they are a
/// pure function of the candidate), so the checkpoint format is unchanged.
#[test]
fn resumed_validated_sweep_is_bit_identical_across_jobs() {
    let cfg = MachineConfig {
        fault: Some(FaultPlan::with_seed(0xF001)),
        ..MachineConfig::default()
    };
    let op = MatmulOp::new(96, 96, 48);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let clean = tune(&cfg, &cands, &sweep(2), None).expect("clean tune");
    let banned = clean.best;
    let validator = move |i: usize, _: &Candidate| {
        if i == banned { Err("synthetic: rejected by test".to_string()) } else { Ok(()) }
    };
    let v = Some(&validator as &WinnerValidator);
    let uninterrupted = tune(&cfg, &cands, &sweep(2), v).expect("uninterrupted tune");
    assert_eq!(uninterrupted.quarantined, 1);
    assert_ne!(uninterrupted.best, banned);

    let path =
        std::env::temp_dir().join(format!("swatop_validate_{}.ckpt", std::process::id()));
    let mut opts = sweep(2);
    opts.checkpoint = Some(CheckpointPolicy::new(&path));
    tune(&cfg, &cands, &opts, v).expect("checkpointed tune");
    let ck = checkpoint::load(&path).expect("checkpoint readable");
    assert_eq!(ck.cells.len(), cands.len());
    let cut = cands.len() / 3;

    for jobs in [1, 4] {
        // Rewind the finished checkpoint to "killed after candidate n/3".
        let mut cells = ck.cells.clone();
        for cell in &mut cells[cut..] {
            *cell = CandCell::Pending;
        }
        checkpoint::save(&path, ck.fingerprint, &cells).unwrap();
        let mut ropts = sweep(jobs);
        ropts.checkpoint = Some(CheckpointPolicy::resuming(&path));
        let resumed = tune(&cfg, &cands, &ropts, v).expect("resumed tune");
        assert_same_choice(&uninterrupted, &resumed, &format!("resume jobs={jobs}"));
    }
    std::fs::remove_file(&path).ok();
}

/// Base knob set the fused-chain equivalence proptest perturbs.
fn base_knobs(t_m: usize, t_n: usize, t_k: usize) -> MatmulKnobs {
    MatmulKnobs {
        t_m,
        t_n,
        t_k,
        a_col: false,
        b_col: false,
        vec_m: false,
        dma: ScheduleHints::default(),
        resident: Resident::None,
    }
}

/// Lower, optimize, plan and functionally execute one matmul schedule on a
/// machine that may carry an armed fault plan, returning the output bits.
/// `None` when the knobs are inapplicable or a fault killed the run.
fn run_matmul_bits(
    cfg: &MachineConfig,
    m: usize,
    n: usize,
    k: usize,
    knobs: &MatmulKnobs,
) -> Option<Vec<u32>> {
    let mut p = Program::new(format!("mm_{m}x{n}x{k}"));
    let a = p.mem_buf("A", m * k, MemRole::Input);
    let b = p.mem_buf("B", k * n, MemRole::Input);
    let c = p.mem_buf("C", m * n, MemRole::Output);
    let body = lower_matmul_body(&mut p, knobs, a, b, c, m, n, k, PadMode::Lightweight)?;
    p.set_body(Stmt::seq(body));
    let opt = swatop::optimizer::optimize(p, true);
    let exe = swatop::codegen::plan(opt, cfg).ok()?;
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    let binding = instantiate(&mut cg, &exe);
    let inputs =
        [swtensor::init::random_vec(m * k, 0xA), swtensor::init::random_vec(k * n, 0xB)];
    let input_ids = exe.program.bufs_with_role(MemRole::Input);
    for (id, data) in input_ids.iter().zip(&inputs) {
        cg.mem.write(binding.bufs[id.0], 0, data).ok()?;
    }
    execute(&mut cg, &exe, &binding).ok()?;
    let out_ids = exe.program.bufs_with_role(MemRole::Output);
    Some(cg.mem.buffer(binding.bufs[out_ids[0].0]).iter().map(|v| v.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite: fused DMA chains produced by `optimizer::coalesce` move
    /// byte-identical data compared to their unfused counterparts, across
    /// random shapes and random *fault seeds* — injected transient faults
    /// may kill a run, but a surviving run's bytes never differ.
    #[test]
    fn fused_chains_move_identical_bytes_under_fault_seeds(
        m in 8usize..80,
        n in 8usize..80,
        k in 8usize..48,
        seed in any::<u64>(),
        dbuf: bool,
        faulted: bool,
    ) {
        let mut cfg = MachineConfig::default();
        if faulted {
            cfg.fault = Some(FaultPlan::with_seed(seed));
        }
        let mut plain = base_knobs(32, 32, 16);
        plain.dma.dbuf = dbuf;
        let mut fused = plain;
        fused.dma.coalesce = true;
        let (Some(bits_plain), Some(bits_fused)) = (
            run_matmul_bits(&cfg, m, n, k, &plain),
            run_matmul_bits(&cfg, m, n, k, &fused),
        ) else {
            return Ok(());
        };
        prop_assert_eq!(bits_plain, bits_fused, "m={} n={} k={} seed={:#x}", m, n, k, seed);
    }
}
