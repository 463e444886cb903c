//! Criterion benches for the hardware-agnostic machinery: schedule-space
//! enumeration/lowering and static model estimation — the per-candidate
//! costs that give the model-based autotuner its Table-3 advantage.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sw26010::MachineConfig;
use swatop::model::{estimate, GemmModel};
use swatop::ops::{ImplicitConvOp, MatmulOp, WinogradConvOp};
use swatop::optimizer::optimize;
use swatop::scheduler::{Operator, Scheduler};
use swatop::tuner::model_rank;
use swtensor::ConvShape;
use workloads::vgg16_layers;

fn bench_enumerate(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let op = ImplicitConvOp::new(ConvShape::square(32, 64, 64, 16));
    let sched = Scheduler::new(cfg);
    c.bench_function("enumerate_implicit_conv_space", |b| {
        b.iter(|| std::hint::black_box(sched.enumerate(&op).len()))
    });
}

/// The unaligned `gemm_space` shape of the repo benchmark: 17k points whose
/// front end (lower, DMA-wall pipeline, capacity and twin questions) is the
/// whole cost — no executable is built until it is read.
fn bench_enumerate_matmul(c: &mut Criterion) {
    let op = MatmulOp::new(100, 100, 100);
    let sched = Scheduler::new(MachineConfig::default());
    c.bench_function("enumerate_matmul_100x100x100", |b| {
        b.iter(|| std::hint::black_box(sched.enumerate(&op).len()))
    });
}

/// The largest `gemm_space` op (1,408 candidates) with the things a pass
/// pays for its candidate list timed apart: building it (the list is
/// dropped off the clock), dropping it, screening it, building the
/// executables of one scoreboard wave (the 64 best ranks, the widest the
/// ladder measures at once) — and a program handle's clone against the deep
/// copy a clone used to be (what the first write through a shared handle
/// still costs).
fn bench_gemm_256_candidates(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(256, 256, 256);
    let sched = Scheduler::new(cfg.clone());
    c.bench_function("enumerate_keep_gemm_256", |b| b.iter_with_large_drop(|| sched.enumerate(&op)));
    c.bench_function("drop_candidates_gemm_256", |b| {
        b.iter_batched(|| sched.enumerate(&op), drop, BatchSize::LargeInput)
    });
    let cands = sched.enumerate(&op);
    c.bench_function("screen_gemm_256", |b| {
        b.iter(|| std::hint::black_box(model_rank(&cfg, &cands, 1).len()))
    });
    let wave: Vec<_> =
        model_rank(&cfg, &cands, 1)[..64].iter().map(|&(i, _)| cands[i].clone()).collect();
    assert!(wave.iter().all(|c| !c.exe.is_built()));
    c.bench_function("build_executables_gemm_256", |b| {
        // A clone of an unread handle is itself unread.
        b.iter_batched(
            || wave.clone(),
            |wave| {
                for c in &wave {
                    std::hint::black_box(&c.exe.program);
                }
                wave
            },
            BatchSize::LargeInput,
        )
    });
    let raw = &cands[cands.len() / 2].raw;
    let mut g = c.benchmark_group("program_clone_vs_deep");
    g.bench_function("clone", |b| b.iter(|| std::hint::black_box(raw.clone())));
    g.bench_function("deep", |b| {
        b.iter(|| {
            let mut p = raw.clone();
            p.body_mut();
            std::hint::black_box(p)
        })
    });
    g.finish();
}

/// One run of the DMA-wall pipeline (`optimize(_, false)`) on a point of
/// that space with every pass switched on.
fn bench_optimize_raw(c: &mut Criterion) {
    let op = MatmulOp::new(100, 100, 100);
    let space = op.space();
    let lowered = space
        .points()
        .filter_map(|p| op.lower(&space, &p))
        .find(|p| p.hints.coalesce && p.hints.bcast)
        .expect("a valid point with coalescing and broadcast on");
    c.bench_function("optimize_raw_matmul_point", |b| {
        b.iter(|| std::hint::black_box(optimize(lowered.clone(), false)))
    });
}

fn bench_lower_one(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(500, 500, 500);
    let sched = Scheduler::new(cfg);
    let space = op.space();
    let point = space.point(0);
    c.bench_function("lower_matmul_point", |b| {
        b.iter(|| std::hint::black_box(sched.lower_point(&op, &space, &point).is_some()))
    });
}

fn bench_model_estimate(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let model = GemmModel::cached(&cfg);
    let op = ImplicitConvOp::new(ConvShape::square(32, 64, 64, 16));
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(&op);
    let raw = &cands[cands.len() / 2].raw;
    c.bench_function("model_estimate_program", |b| {
        b.iter(|| std::hint::black_box(estimate(&cfg, &model, raw)))
    });
}

/// The tier-0 screen of the `conv_net` workload's VGG-16 layer 7 (batch 32,
/// spatial cap 28) under the two conv methods whose loops carry boundary
/// guards: every run of identical iterations is priced once.
fn bench_screen_conv(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let shape = vgg16_layers()[7].shape(32, Some(28));
    let sched = Scheduler::new(cfg.clone());
    let ops: [(&str, Box<dyn Operator>); 2] = [
        ("screen_implicit_conv", Box::new(ImplicitConvOp::new(shape))),
        ("screen_winograd_conv", Box::new(WinogradConvOp::new(shape))),
    ];
    for (name, op) in ops {
        let cands = sched.enumerate(op.as_ref());
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(model_rank(&cfg, &cands, 1).len()))
        });
    }
}

criterion_group!(
    benches,
    bench_enumerate,
    bench_enumerate_matmul,
    bench_gemm_256_candidates,
    bench_optimize_raw,
    bench_lower_one,
    bench_model_estimate,
    bench_screen_conv
);
criterion_main!(benches);
