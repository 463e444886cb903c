//! Determinism guarantees of the performance observatory: derived metrics
//! and bottleneck classes are pure functions of (peaks, cycles, counters),
//! so they must be bit-identical across worker counts, and attaching a
//! telemetry recorder must never change what the tuner picks.

use sw26010::MachineConfig;
use swatop::observatory::{self, Bottleneck, MetricSet, Peaks};
use swatop::ops::ImplicitConvOp;
use swatop::scheduler::{Candidate, Scheduler};
use swatop::telemetry::Telemetry;
use swatop::tuner::{tune, CheckpointPolicy, TierPolicy, TuneOptions};

fn space(cfg: &MachineConfig) -> Vec<Candidate> {
    let shape = swtensor::ConvShape::square(32, 64, 64, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&ImplicitConvOp::new(shape));
    assert!(cands.len() >= 200, "need a nontrivial space, got {}", cands.len());
    cands
}

fn opts(tiers: TierPolicy, jobs: usize, tel: Option<&Telemetry>) -> TuneOptions {
    TuneOptions { jobs, telemetry: tel.cloned(), tiers, ..TuneOptions::default() }
}

fn sweep(jobs: usize, tel: Option<&Telemetry>) -> TuneOptions {
    opts(TierPolicy::exhaustive(), jobs, tel)
}

fn top3(jobs: usize, tel: Option<&Telemetry>) -> TuneOptions {
    opts(TierPolicy::top_k(3), jobs, tel)
}

/// Per-candidate (index, metrics, bottleneck) for every executed candidate
/// of an instrumented run, in candidate-index order.
fn attributions(tel: &Telemetry, peaks: &Peaks) -> Vec<(usize, MetricSet, Bottleneck)> {
    let summary = tel.summary(peaks);
    let mut out = Vec::new();
    for op in &summary.operators {
        for (c, attribution) in summary.candidates(op) {
            if let Some(a) = attribution {
                out.push((c.index.expect("indexed"), a.metrics.clone(), a.bottleneck));
            }
        }
    }
    out.sort_by_key(|(i, _, _)| *i);
    out
}

#[test]
fn metrics_and_bottlenecks_identical_across_job_counts() {
    let cfg = MachineConfig::default();
    let peaks = Peaks::of(&cfg);
    let cands = space(&cfg);

    let tel1 = Telemetry::new();
    let serial = tune(&cfg, &cands, &sweep(1, Some(&tel1)), None).expect("serial");
    let base = attributions(&tel1, &peaks);
    assert_eq!(base.len(), cands.len(), "blackbox executes everything");
    assert!(base.iter().any(|(_, m, _)| m.get("achieved_gflops").unwrap() > 0.0));

    for jobs in [2, 8] {
        let tel = Telemetry::new();
        let par = tune(&cfg, &cands, &sweep(jobs, Some(&tel)), None).expect("parallel");
        assert_eq!(par.best, serial.best, "jobs={jobs}");
        assert_eq!(par.cycles, serial.cycles, "jobs={jobs}");
        let got = attributions(&tel, &peaks);
        assert_eq!(got.len(), base.len(), "jobs={jobs}");
        for ((bi, bm, bb), (gi, gm, gb)) in base.iter().zip(&got) {
            assert_eq!(bi, gi, "jobs={jobs}");
            assert_eq!(bb, gb, "jobs={jobs} candidate {bi}");
            // Bit-identical, not approximately equal: metrics derive from
            // integer counters through the same float expressions.
            for (name, v) in bm.iter() {
                let w = gm.get(name).unwrap();
                assert_eq!(
                    v.to_bits(),
                    w.to_bits(),
                    "jobs={jobs} candidate {bi} metric {name}: {v} vs {w}"
                );
            }
        }
    }
}

#[test]
fn overlap_efficiency_is_derived_bounded_and_exported() {
    let cfg = MachineConfig::default();
    let peaks = Peaks::of(&cfg);
    let counters = sw26010::Counters {
        flops: 1_000_000,
        kernel_cycles: 40_000,
        dma_bus_bytes: 500_000,
        dma_stall_cycles: 2_000,
        ..Default::default()
    };
    let m = observatory::derive(&peaks, 50_000, &counters);
    let v = m.get("overlap_efficiency").expect("metric in schema");
    assert!((0.0..=1.0).contains(&v), "overlap_efficiency out of range: {v}");
    assert!(v > 0.0, "partial overlap must register: {v}");
    assert!(m.to_json().contains("\"overlap_efficiency\":"));
    // No hideable traffic at all counts as perfectly overlapped.
    let idle = observatory::derive(&peaks, 1_000, &sw26010::Counters::default());
    assert_eq!(idle.get("overlap_efficiency"), Some(1.0));
}

#[test]
fn bottleneck_mix_on_outcome_matches_recount_across_jobs() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let path = std::env::temp_dir().join(format!("swatop_mix_{}.ckpt", std::process::id()));
    let mut mixes = Vec::new();
    for jobs in [1, 2, 8] {
        let tel = Telemetry::new();
        let opts = TuneOptions { checkpoint: Some(CheckpointPolicy::new(&path)), ..top3(jobs, Some(&tel)) };
        let outcome = tune(&cfg, &cands, &opts, None).expect("tune");
        let summary = outcome.telemetry.expect("instrumented run carries telemetry");
        assert!(summary.mix.total() > 0, "jobs={jobs}: executed candidates were classified");
        assert_eq!(summary.mix.total(), outcome.executed - outcome.failed, "jobs={jobs}");
        mixes.push(summary.mix);
    }
    assert_eq!(mixes[0], mixes[1]);
    assert_eq!(mixes[0], mixes[2]);
    // Resumed two ranks deeper: the three restored cells count as executed
    // but were measured by the run above, so they have no span here and are
    // not classified (from counters this run never saw).
    let tel = Telemetry::new();
    let opts = TuneOptions {
        checkpoint: Some(CheckpointPolicy::resuming(&path)),
        ..opts(TierPolicy::top_k(5), 2, Some(&tel))
    };
    let resumed = tune(&cfg, &cands, &opts, None).expect("resumed tune");
    std::fs::remove_file(&path).ok();
    let summary = resumed.telemetry.expect("instrumented");
    assert_eq!((resumed.executed, resumed.failed), (5, 0));
    assert_eq!((summary.mix.total(), summary.pairs), (2, 2));
    assert_eq!(summary.mix, tel.summary(&Peaks::of(&cfg)).mix);
}

#[test]
fn telemetry_attachment_does_not_change_tuning() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    for jobs in [1, 4] {
        let bare = tune(&cfg, &cands, &top3(jobs, None), None).expect("bare");
        assert!(bare.telemetry.is_none());
        let tel = Telemetry::new();
        let instrumented =
            tune(&cfg, &cands, &top3(jobs, Some(&tel)), None).expect("instrumented");
        assert_eq!(instrumented.best, bare.best, "jobs={jobs}");
        assert_eq!(instrumented.cycles, bare.cycles, "jobs={jobs}");
        assert_eq!(instrumented.executed, bare.executed, "jobs={jobs}");
        assert_eq!(instrumented.all_cycles, bare.all_cycles, "jobs={jobs}");
    }
}
