//! Criterion benches for the three evaluators a tuning run waits on besides
//! the front end: the kernel scoreboard behind the Eq. (2) calibration, the
//! cost-only interpreter behind every measured candidate, and the golden
//! reference behind every validated one.

use criterion::{criterion_group, criterion_main, Criterion};
use sw26010::dma::StartClasses;
use sw26010::{cid, rid, MachineConfig, N_CPE};
use swatop::model::calibration_shapes;
use swatop::ops::{ExplicitConvOp, ImplicitConvOp, WinogradConvOp};
use swatop::scheduler::{Operator, Scheduler};
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

/// One cost-only execution of a prefetched candidate of each conv method:
/// the statement walk, per-node DMA and kernel prices, kernel costs warm.
fn bench_run_candidate(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let shape = ConvShape::square(32, 64, 64, 16);
    let ops: [(&str, Box<dyn Operator>); 3] = [
        ("run_candidate_implicit_conv", Box::new(ImplicitConvOp::new(shape))),
        ("run_candidate_winograd_conv", Box::new(WinogradConvOp::new(shape))),
        ("run_candidate_explicit_conv", Box::new(ExplicitConvOp::new(shape))),
    ];
    for (name, op) in ops {
        let cands = Scheduler::new(cfg.clone()).enumerate(op.as_ref());
        let cand = cands.iter().find(|c| c.prefetched).expect("a prefetched candidate");
        run_candidate(&cfg, cand).expect("candidate runs");
        c.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(run_candidate(&cfg, cand).unwrap()))
        });
    }
}

/// DRAM bus bytes of one strided, transaction-unaligned `DMA_CPE` node: the
/// first execution builds the start classes and prices one residue; a repeat
/// finds the residue among those the node has met (8 here).
fn bench_dma_node_bus_bytes(c: &mut Criterion) {
    let txn = MachineConfig::default().dram_transaction_bytes;
    let (block, stride, n_blocks) = (18, 66, 16);
    let relative = || (0..N_CPE).map(|cpe| (1056 * rid(cpe) + 18 * cid(cpe)) as i64);
    c.bench_function("dma_node_bus_bytes_first", |b| {
        b.iter(|| {
            let classes = StartClasses::new(relative(), txn);
            std::hint::black_box(classes.bus_bytes(std::hint::black_box(4103), block, stride, n_blocks))
        })
    });
    let classes = StartClasses::new(relative(), txn);
    let met: Vec<(usize, usize)> = (0..8)
        .map(|i| 4103 + 5 * i)
        .map(|start| (classes.residue(start), classes.bus_bytes(start, block, stride, n_blocks)))
        .collect();
    c.bench_function("dma_node_bus_bytes_repeat", |b| {
        b.iter(|| {
            let residue = classes.residue(std::hint::black_box(4103 + 5 * 7));
            std::hint::black_box(met.iter().find(|&&(r, _)| r == residue).map(|&(_, bus)| bus))
        })
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

criterion_group!(
    benches,
    bench_cold_grid,
    bench_run_candidate,
    bench_dma_node_bus_bytes,
    bench_conv2d_ref
);
criterion_main!(benches);
