//! Fault-tolerance integration tests: the tuning engine must survive a
//! poisoned candidate space — injected DMA faults, SPM capacity pressure,
//! measurement jitter, and even panicking candidates — without aborting,
//! while staying bit-deterministic across worker counts, and an interrupted
//! sweep must resume from its checkpoint to the same final answer.

use swatop_repro::sw26010::{FaultPlan, MachineConfig};
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::scheduler::{Candidate, Scheduler};
use swatop_repro::swatop::tuner::checkpoint::{self, CandCell};
use swatop_repro::swatop::tuner::{
    prevalidate, tune, CheckpointPolicy, TierPolicy, TuneOptions, TuneOutcome,
};
use swatop_repro::ir::Stmt;

/// The default poisoned machine: seed overridable via `SWATOP_FAULT_SEED`
/// (the CI fault leg sets it), so the suite is exercised under more than
/// one fault stream over time while every individual run stays exact. The
/// DMA rate is pushed far beyond the default envelope — the GEMM programs
/// here issue only ~60 batches each, and the stress test wants plenty of
/// retries and a visible population of terminal failures: at 3 % the
/// 1,008-candidate space fails 33–95 terminally under each of seeds 1–5
/// and the default, at 2 % none under the default seed.
fn faulty_cfg() -> MachineConfig {
    let plan = FaultPlan::from_env().unwrap_or_else(|| FaultPlan::with_seed(0xF001));
    let plan = FaultPlan { dma_fail_ppm: plan.dma_fail_ppm.max(30_000), ..plan };
    MachineConfig { fault: Some(plan), ..MachineConfig::default() }
}

fn space(cfg: &MachineConfig) -> Vec<Candidate> {
    Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(96, 96, 48))
}

/// Options for a brute-force sweep on `jobs` workers.
fn sweep(jobs: usize) -> TuneOptions {
    TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() }
}

/// Field-by-field equality of everything that must be deterministic
/// (wall/cpu are host timings and legitimately differ).
fn assert_same_outcome(a: &TuneOutcome, b: &TuneOutcome, what: &str) {
    assert_eq!(a.best, b.best, "{what}: best");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.executed, b.executed, "{what}: executed");
    assert_eq!(a.all_cycles, b.all_cycles, "{what}: all_cycles");
    assert_eq!(a.failed, b.failed, "{what}: failed");
    assert_eq!(a.retried, b.retried, "{what}: retried");
    assert_eq!(a.reports, b.reports, "{what}: reports");
}

#[test]
fn poisoned_space_stress_is_deterministic_across_jobs() {
    let cfg = faulty_cfg();
    let cands = space(&cfg);
    assert!(cands.len() > 300, "space too small to stress: {}", cands.len());
    let run = |jobs: usize| {
        tune(&cfg, &cands, &sweep(jobs), None)
            .expect("a poisoned space must still tune")
    };
    let serial = run(1);
    // Faults were actually injected and recorded, not glossed over.
    assert!(serial.retried > 0, "stress plan should force retries");
    assert!(serial.failed > 0, "stress plan should fail some candidates terminally");
    let with_errors =
        serial.reports.iter().filter(|r| r.error.is_some()).count();
    assert_eq!(serial.failed, with_errors, "failed count must match reports");
    assert_eq!(serial.reports.len(), cands.len());
    // Jitter is on, so every successful measurement is a median of 3.
    assert!(serial.reports.iter().any(|r| r.samples == 3));
    // A failed candidate has no cycles; a measured one has some.
    for (c, r) in serial.all_cycles.iter().zip(&serial.reports) {
        assert_eq!(c.is_none(), r.error.is_some());
    }
    for jobs in [2, 8] {
        assert_same_outcome(&serial, &run(jobs), &format!("jobs={jobs}"));
    }
}

#[test]
fn top_k_survives_a_poisoned_space() {
    let cfg = faulty_cfg();
    let cands = space(&cfg);
    let run = |jobs: usize| {
        let opts = TuneOptions { jobs, tiers: TierPolicy::top_k(8), ..TuneOptions::default() };
        tune(&cfg, &cands, &opts, None)
            .expect("model tuner must survive faults")
    };
    let serial = run(1);
    assert!(serial.executed >= 8);
    assert_same_outcome(&serial, &run(4), "jobs=4");
}

#[test]
fn prevalidation_rejects_impossible_candidates_before_execution() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let mut bad = cands[0].clone();
    bad.exe.spm_used = cfg.spm_elems() + 1;
    let err = prevalidate(&cfg, &bad.exe).expect_err("oversized footprint must fail");
    assert!(err.to_string().contains("SPM footprint"), "got: {err}");
    // In a mixed space the bad candidate is reported, not fatal.
    let mixed = vec![bad, cands[1].clone()];
    let out = tune(&cfg, &mixed, &sweep(1), None).unwrap();
    assert_eq!(out.best, 1);
    assert_eq!(out.failed, 1);
    let msg = out.reports[0].error.as_deref().unwrap();
    assert!(msg.contains("SPM footprint"), "got: {msg}");
    assert_eq!(out.reports[0].retries, 0, "structural errors must not burn retries");
}

#[test]
fn a_panicking_candidate_fails_alone() {
    let cfg = MachineConfig::default();
    let mut cands = space(&cfg);
    let clean =
        tune(&cfg, &cands, &sweep(1), None).unwrap();
    // Poison the clean winner: wrap its body in a loop over a variable id
    // far beyond the program's environment, so the interpreter's `Env::set`
    // panics on an out-of-bounds index at execution time.
    let bad = clean.best;
    let program = &mut cands[bad].exe.program;
    let body = program.take_body();
    program.set_body(Stmt::For { var: 9999, extent: 1, body: Box::new(body) });
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = |jobs: usize| {
        tune(&cfg, &cands, &sweep(jobs), None).unwrap()
    };
    let (serial, parallel) = (run(1), run(8));
    std::panic::set_hook(hook);
    assert_same_outcome(&serial, &parallel, "panic isolation across jobs");
    assert_ne!(serial.best, bad, "the poisoned winner must lose");
    assert!(serial.cycles >= clean.cycles);
    assert_eq!(serial.failed, 1);
    let msg = serial.reports[bad].error.as_deref().unwrap();
    assert!(msg.contains("panicked"), "got: {msg}");
}

/// Simulate a mid-run kill: take the checkpoint an interrupted sweep would
/// leave behind (a prefix of cells measured, the rest pending), resume from
/// it, and demand the same final outcome as an uninterrupted sweep.
#[test]
fn resumed_sweep_matches_uninterrupted() {
    let cfg = faulty_cfg();
    let cands = space(&cfg);
    let uninterrupted =
        tune(&cfg, &cands, &sweep(2), None).unwrap();

    let path = std::env::temp_dir().join(format!("swatop_resume_{}.ckpt", std::process::id()));
    let mut opts = sweep(2);
    opts.checkpoint = Some(CheckpointPolicy::new(&path));
    tune(&cfg, &cands, &opts, None).unwrap();

    // Rewind the finished checkpoint to "killed after candidate n/3".
    let ck = checkpoint::load(&path).expect("checkpoint readable");
    assert_eq!(ck.cells.len(), cands.len());
    let mut cells = ck.cells;
    let cut = cands.len() / 3;
    assert!(cells[..cut].iter().all(|c| !c.is_pending()));
    for cell in &mut cells[cut..] {
        *cell = CandCell::Pending;
    }
    checkpoint::save(&path, ck.fingerprint, &cells).unwrap();

    let mut ropts = sweep(2);
    ropts.checkpoint = Some(CheckpointPolicy::resuming(&path));
    let resumed = tune(&cfg, &cands, &ropts, None).unwrap();
    std::fs::remove_file(&path).ok();
    assert_same_outcome(&uninterrupted, &resumed, "resume vs uninterrupted");
}

#[test]
fn foreign_checkpoint_is_ignored_not_trusted() {
    let cfg = faulty_cfg();
    let cands = space(&cfg);
    let fresh = tune(&cfg, &cands, &sweep(2), None).unwrap();

    // A checkpoint from a *different* sweep: right length, wrong fingerprint,
    // and cells that would poison the result if trusted.
    let path = std::env::temp_dir().join(format!("swatop_foreign_{}.ckpt", std::process::id()));
    let lie = vec![CandCell::Done { cycles: 1, retries: 0, samples: 1 }; cands.len()];
    checkpoint::save(&path, 0xDEAD_BEEF, &lie).unwrap();

    let mut ropts = sweep(2);
    ropts.checkpoint = Some(CheckpointPolicy::resuming(&path));
    let resumed = tune(&cfg, &cands, &ropts, None).unwrap();
    std::fs::remove_file(&path).ok();
    assert_same_outcome(&fresh, &resumed, "foreign checkpoint rejected");
}

/// A checkpoint belongs to its candidates, not to their count: the same
/// candidates in reverse order start fresh, and the same slice resumes.
#[test]
fn a_checkpoint_resumes_only_its_own_candidates() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let reversed: Vec<Candidate> = cands.iter().rev().cloned().collect();
    let path = std::env::temp_dir().join(format!("swatop_own_{}.ckpt", std::process::id()));
    // Cells that poison the result where they are trusted: 1 cycle each.
    let lie = vec![CandCell::Done { cycles: 1, retries: 0, samples: 1 }; cands.len()];
    let mut ropts = sweep(2);
    ropts.checkpoint = Some(CheckpointPolicy::resuming(&path));

    checkpoint::save(&path, checkpoint::fingerprint(&cfg, &cands), &lie).unwrap();
    let fresh = tune(&cfg, &reversed, &sweep(2), None).unwrap();
    let other_order = tune(&cfg, &reversed, &ropts, None).unwrap();
    assert_same_outcome(&fresh, &other_order, "the reversed candidates start fresh");

    // The run above overwrote the file with its own cells.
    checkpoint::save(&path, checkpoint::fingerprint(&cfg, &cands), &lie).unwrap();
    let resumed = tune(&cfg, &cands, &ropts, None).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((resumed.best, resumed.cycles.get()), (0, 1), "the same slice resumes");
    assert!(fresh.cycles.get() > 1);
}

#[test]
fn fault_free_machine_reports_clean_outcomes() {
    // The resilience bookkeeping must be invisible on a perfect machine:
    // no failures, no retries, single-sample measurements.
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let out = tune(&cfg, &cands, &sweep(2), None).unwrap();
    assert_eq!(out.failed, 0);
    assert_eq!(out.retried, 0);
    assert!(out.reports.iter().all(|r| r.samples == 1 && r.error.is_none()));
}
