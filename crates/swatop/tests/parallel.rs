//! Tier-1 guarantee of the parallel tuning engine: for any worker count,
//! every tuner returns results *bit-identical* to the serial run — same
//! `best`, same `cycles`, same `executed`, same `all_cycles` vector in
//! input order. Determinism is what lets `--jobs N` be the default
//! everywhere without perturbing a single paper table.

use sw26010::MachineConfig;
use swatop::ops::ImplicitConvOp;
use swatop::scheduler::{Candidate, Scheduler};
use swatop::tuner::{model_rank, tune, TierPolicy, TuneOptions};
use swtensor::ConvShape;

/// A nontrivial implicit-conv schedule space (the ISSUE floor is 200
/// candidates; this shape enumerates 300+).
fn space(cfg: &MachineConfig) -> Vec<Candidate> {
    let shape = ConvShape::square(32, 64, 64, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&ImplicitConvOp::new(shape));
    assert!(
        cands.len() >= 200,
        "need a nontrivial space, got {} candidates",
        cands.len()
    );
    cands
}

fn with(tiers: TierPolicy, jobs: usize) -> TuneOptions {
    TuneOptions { jobs, tiers, ..TuneOptions::default() }
}

#[test]
fn blackbox_is_identical_for_any_job_count() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let serial = tune(&cfg, &cands, &with(TierPolicy::exhaustive(), 1), None).expect("serial tune");
    assert_eq!(serial.jobs, 1);
    assert_eq!(serial.executed, cands.len());
    for jobs in [2, 4, 8] {
        let par = tune(&cfg, &cands, &with(TierPolicy::exhaustive(), jobs), None)
            .expect("parallel tune");
        assert_eq!(par.best, serial.best, "jobs={jobs}");
        assert_eq!(par.cycles, serial.cycles, "jobs={jobs}");
        assert_eq!(par.executed, serial.executed, "jobs={jobs}");
        assert_eq!(par.all_cycles, serial.all_cycles, "jobs={jobs}");
        assert_eq!(par.jobs, jobs);
    }
}

#[test]
fn model_topk_is_identical_for_any_job_count() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    for k in [1, 3, 8] {
        let serial = tune(&cfg, &cands, &with(TierPolicy::top_k(k), 1), None).expect("serial tune");
        for jobs in [2, 4, 8] {
            let par = tune(&cfg, &cands, &with(TierPolicy::top_k(k), jobs), None)
                .expect("parallel tune");
            assert_eq!(par.best, serial.best, "k={k} jobs={jobs}");
            assert_eq!(par.cycles, serial.cycles, "k={k} jobs={jobs}");
            assert_eq!(par.executed, serial.executed, "k={k} jobs={jobs}");
            assert_eq!(par.all_cycles, serial.all_cycles, "k={k} jobs={jobs}");
        }
    }
}

#[test]
fn model_ranking_is_identical_for_any_job_count() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let serial = model_rank(&cfg, &cands, 1);
    assert_eq!(serial.len(), cands.len());
    for jobs in [2, 4, 8] {
        let par = model_rank(&cfg, &cands, jobs);
        // Scores are f64: require exact equality, not approximate — the
        // parallel path must compute the very same floats.
        assert_eq!(par, serial, "jobs={jobs}");
    }
}

#[test]
fn cpu_time_aggregates_per_candidate_cost() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let out = tune(&cfg, &cands, &with(TierPolicy::exhaustive(), 2), None).expect("tune");
    // The serial-equivalent aggregate must be positive; with one host core
    // wall may equal cpu, with more cores wall should not exceed it by much
    // (scheduling noise aside), so only the lower bound is asserted.
    assert!(out.cpu.as_nanos() > 0);
}
