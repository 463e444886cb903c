//! Criterion benches for the three evaluators a tuning run waits on besides
//! the front end: the kernel scoreboard behind the Eq. (2) calibration, the
//! cost-only interpreter behind every measured candidate, and the golden
//! reference behind every validated one.

use criterion::{criterion_group, criterion_main, Criterion};
use sw26010::MachineConfig;
use swatop::model::calibration_shapes;
use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::run_candidate;
use swkernels::microkernel::per_cpe_cycles;
use swkernels::{VecDim, ALL_VARIANTS};
use swtensor::conv::conv2d_ref;
use swtensor::init::random_tensor;
use swtensor::ConvShape;

/// The 3,744 shapes `GemmModel::cached` samples, through the pure
/// (unmemoised) kernel cost: what a calibration costs when nothing is
/// shared between queries.
fn bench_cold_grid(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let mut g = c.benchmark_group("calibration");
    g.sample_size(10);
    g.bench_function("per_cpe_cycles_cold_grid", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for v in ALL_VARIANTS {
                for (m, n, k) in calibration_shapes(v) {
                    let (v_len, s_len) = match v.vec {
                        VecDim::M => (m / 8, n / 8),
                        VecDim::N => (n / 8, m / 8),
                    };
                    total += per_cpe_cycles(&cfg, v_len, s_len, k / 8, v.vector_load_ok());
                }
            }
            std::hint::black_box(total)
        })
    });
    g.finish();
}

/// One cost-only execution of a prefetched implicit-conv candidate: DMA
/// costing, `spm_gemm` lookups and the statement walk, kernel costs warm.
fn bench_run_candidate(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let op = ImplicitConvOp::new(ConvShape::square(32, 64, 64, 16));
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let cand = cands.iter().find(|c| c.prefetched).expect("a prefetched candidate");
    run_candidate(&cfg, cand).expect("candidate runs");
    c.bench_function("run_candidate_implicit_conv", |b| {
        b.iter(|| std::hint::black_box(run_candidate(&cfg, cand).unwrap()))
    });
}

/// The golden reference on a validated_mix-sized layer (Ni = No = 32,
/// 12 × 12 output, 3 × 3 kernel, batch 4).
fn bench_conv2d_ref(c: &mut Criterion) {
    let shape = ConvShape::square(4, 32, 32, 12);
    let input = random_tensor(shape.input_shape(), 1);
    let weight = random_tensor(shape.weight_shape(), 2);
    c.bench_function("conv2d_ref_32x32_12x12", |b| {
        b.iter(|| std::hint::black_box(conv2d_ref(&shape, &input, &weight)))
    });
}

criterion_group!(benches, bench_cold_grid, bench_run_candidate, bench_conv2d_ref);
criterion_main!(benches);
