//! Criterion benches comparing the model's top-3 with brute force end to
//! end on one operator — the microcosm of Table 3.

use criterion::{criterion_group, criterion_main, Criterion};
use sw26010::MachineConfig;
use swatop::model::GemmModel;
use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::{run_candidate, tune, TierPolicy, TuneOptions};
use swtensor::ConvShape;

fn bench_tuners(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    // Warm the one-time calibration and kernel-cost caches.
    let _ = GemmModel::cached(&cfg);
    let op = ImplicitConvOp::new(ConvShape::square(32, 32, 32, 8));
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    for cand in &cands {
        let _ = run_candidate(&cfg, cand);
    }

    let mut g = c.benchmark_group("autotuners");
    g.sample_size(10);
    let top3 = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    g.bench_function("tune_top3", |b| {
        b.iter(|| std::hint::black_box(tune(&cfg, &cands, &top3, None).unwrap().cycles))
    });
    let exhaustive = TuneOptions { tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
    g.bench_function("tune_exhaustive", |b| {
        b.iter(|| std::hint::black_box(tune(&cfg, &cands, &exhaustive, None).unwrap().cycles))
    });
    g.finish();
}

/// Parallel scaling of the exhaustive sweep at 1/2/4 workers on a larger
/// space (the tentpole's speedup claim; the results are identical across
/// job counts, only wall-clock should change). On a single-core host the
/// three times should be within noise of each other — the engine must not
/// *cost* anything when parallelism is unavailable.
fn bench_tuner_scaling(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let _ = GemmModel::cached(&cfg);
    let op = ImplicitConvOp::new(ConvShape::square(32, 64, 64, 16));
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    for cand in &cands {
        let _ = run_candidate(&cfg, cand);
    }

    let mut g = c.benchmark_group("tuner-scaling");
    g.sample_size(10);
    for jobs in [1usize, 2, 4] {
        let opts = TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
        g.bench_function(format!("exhaustive_jobs_{jobs}"), |b| {
            b.iter(|| std::hint::black_box(tune(&cfg, &cands, &opts, None).unwrap().cycles))
        });
    }
    g.finish();
}

fn bench_candidate_execution(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let op = ImplicitConvOp::new(ConvShape::square(32, 32, 32, 8));
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    let cand = &cands[0];
    c.bench_function("run_candidate_cost_only", |b| {
        b.iter(|| std::hint::black_box(run_candidate(&cfg, cand).unwrap()))
    });
}

criterion_group!(benches, bench_tuners, bench_tuner_scaling, bench_candidate_execution);
criterion_main!(benches);
