//! Tier-ladder guarantees: the default ladder (analytic screen → adaptive
//! scoreboard top-k → functional winner) must pick the *same* winner as
//! the exhaustive sweep while measuring a fraction of the space;
//! memoized sub-cost estimation must be bit-identical to the unmemoized
//! walk; and the ladder must stay bit-deterministic across worker counts
//! and checkpoint interruption.

use proptest::prelude::*;
use sw26010::MachineConfig;
use swatop::model::memo::MemoCache;
use swatop::model::{estimate_program_memo, GemmModel};
use swatop::ops::{ImplicitConvOp, MatmulOp};
use swatop::scheduler::{Candidate, Scheduler};
use swatop::tuner::checkpoint::{self, CandCell};
use swatop::tuner::{tune, CheckpointPolicy, TierPolicy, TuneOptions, TuneOutcome};
use swtensor::ConvShape;

fn conv_space(cfg: &MachineConfig) -> Vec<Candidate> {
    let shape = ConvShape::square(32, 64, 64, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&ImplicitConvOp::new(shape));
    assert!(cands.len() > 20, "need a nontrivial space, got {}", cands.len());
    cands
}

fn ladder(cfg: &MachineConfig, cands: &[Candidate], opts: &TuneOptions) -> TuneOutcome {
    tune(cfg, cands, opts, None).unwrap()
}

fn exhaustive(cfg: &MachineConfig, cands: &[Candidate], jobs: usize) -> TuneOutcome {
    let opts = TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
    tune(cfg, cands, &opts, None).unwrap()
}

fn assert_same_pick(a: &TuneOutcome, b: &TuneOutcome, what: &str) {
    assert_eq!(a.best, b.best, "{what}: winner index");
    assert_eq!(a.cycles, b.cycles, "{what}: winner cycles");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The adaptive tier-0 top-k always contains the full-scoreboard
    /// winner: the tiered pick is byte-identical to brute force on random
    /// GEMM spaces, at a fraction of the measurements.
    #[test]
    fn tiered_matches_blackbox_on_random_gemms(
        m in 1usize..13, n in 1usize..13, k in 1usize..8,
    ) {
        let (m, n, k) = (8 * m, 8 * n, 8 * k);
        let cfg = MachineConfig::default();
        let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(m, n, k));
        prop_assume!(!cands.is_empty());
        let bb = exhaustive(&cfg, &cands, 1);
        let td = ladder(&cfg, &cands, &TuneOptions::with_jobs(1));
        prop_assert_eq!(td.best, bb.best, "gemm {}x{}x{}", m, n, k);
        prop_assert_eq!(td.cycles, bb.cycles);
        prop_assert_eq!(td.screened, cands.len());
        prop_assert!(td.executed <= bb.executed);
    }
}

/// Same agreement on a convolution space (layout + DMA-ladder + reduction
/// knobs — a much rougher cost surface than GEMM tiling alone).
#[test]
fn tiered_matches_blackbox_on_conv() {
    let cfg = MachineConfig::default();
    let cands = conv_space(&cfg);
    let bb = exhaustive(&cfg, &cands, 2);
    let td = ladder(&cfg, &cands, &TuneOptions::with_jobs(2));
    assert_same_pick(&bb, &td, "conv tiered vs blackbox");
    assert!(
        td.executed * 2 <= cands.len(),
        "tiered measured {} of {} — no saving",
        td.executed,
        cands.len()
    );
}

/// Sub-cost memoization never changes a single bit of any estimate —
/// cold (filling) and warm (hitting) passes alike.
#[test]
fn memo_on_off_is_bit_identical() {
    let cfg = MachineConfig::default();
    let cands = conv_space(&cfg);
    let model = GemmModel::cached(&cfg);
    let cache = MemoCache::new();
    for pass in 0..2 {
        for c in &cands {
            let plain = estimate_program_memo(&cfg, &model, &c.raw, None);
            let memod = estimate_program_memo(&cfg, &model, &c.raw, Some(&cache));
            assert_eq!(
                plain.t_dma.to_bits(),
                memod.t_dma.to_bits(),
                "pass {pass} t_dma: {}",
                c.describe
            );
            assert_eq!(
                plain.t_compute.to_bits(),
                memod.t_compute.to_bits(),
                "pass {pass} t_compute: {}",
                c.describe
            );
        }
    }
    assert!(cache.hits() > 0, "warm pass never hit the cache");
}

/// Bit-identical tiered outcomes for every worker count.
#[test]
fn tiered_is_identical_for_any_job_count() {
    let cfg = MachineConfig::default();
    let cands = conv_space(&cfg);
    let serial = ladder(&cfg, &cands, &TuneOptions::with_jobs(1));
    for jobs in [2, 4] {
        let par = ladder(&cfg, &cands, &TuneOptions::with_jobs(jobs));
        assert_eq!(par.best, serial.best, "jobs={jobs}");
        assert_eq!(par.cycles, serial.cycles, "jobs={jobs}");
        assert_eq!(par.executed, serial.executed, "jobs={jobs}");
        assert_eq!(par.screened, serial.screened, "jobs={jobs}");
        assert_eq!(par.all_cycles, serial.all_cycles, "jobs={jobs}");
    }
}

/// A tiered sweep killed mid-run resumes from its checkpoint to the same
/// final answer as an uninterrupted sweep.
#[test]
fn tiered_resume_matches_uninterrupted() {
    let cfg = MachineConfig::default();
    let cands = conv_space(&cfg);
    let uninterrupted = ladder(&cfg, &cands, &TuneOptions::with_jobs(2));

    let path =
        std::env::temp_dir().join(format!("swatop_tiers_resume_{}.ckpt", std::process::id()));
    let mut opts = TuneOptions::with_jobs(2);
    opts.checkpoint = Some(CheckpointPolicy::new(&path));
    ladder(&cfg, &cands, &opts);

    // Rewind the finished checkpoint to "killed after the first measured
    // candidate": everything but one Done cell back to Pending.
    let ck = checkpoint::load(&path).expect("checkpoint readable");
    let mut cells = ck.cells.clone();
    let mut kept = false;
    for c in &mut cells {
        if matches!(c, CandCell::Done { .. }) && !kept {
            kept = true;
        } else {
            *c = CandCell::Pending;
        }
    }
    checkpoint::save(&path, ck.fingerprint, &cells).unwrap();

    let mut ropts = TuneOptions::with_jobs(2);
    ropts.checkpoint = Some(CheckpointPolicy::resuming(&path));
    let resumed = ladder(&cfg, &cands, &ropts);
    std::fs::remove_file(&path).ok();
    assert_same_pick(&uninterrupted, &resumed, "resume vs uninterrupted");
    assert_eq!(resumed.all_cycles, uninterrupted.all_cycles, "resume vs uninterrupted");
}
