//! Criterion benches for the hardware-dependent layer: micro-kernel cost
//! simulation and the functional `spm_gemm` primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sw26010::{CoreGroup, ExecMode};
use swkernels::spm_gemm::SpmMatrix;
use swkernels::{gemm_cycles, spm_gemm, VecDim, ALL_VARIANTS};
use swtensor::init::random_vec;
use swtensor::MatLayout::RowMajor;

fn bench_gemm_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_cycles");
    for &(m, n, k) in &[(64usize, 64usize, 64usize), (256, 256, 256)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}x{k}")),
            &(m, n, k),
            |b, &(m, n, k)| {
                // Rotate variants so the memo cache doesn't trivialise the
                // measurement entirely (hits still dominate, as in tuning).
                let mut i = 0;
                b.iter(|| {
                    let v = ALL_VARIANTS[i % 8];
                    i += 1;
                    std::hint::black_box(gemm_cycles(v, m, n, k))
                });
            },
        );
    }
    g.finish();
}

fn bench_spm_gemm_functional(c: &mut Criterion) {
    let (m, n, k) = (64usize, 64usize, 64usize);
    let mut cg = CoreGroup::with_mode(ExecMode::Functional);
    let a_desc = SpmMatrix::new(0, RowMajor, k / 8);
    let b_desc = SpmMatrix::new(64, RowMajor, n / 8);
    let c_desc = SpmMatrix::new(128, RowMajor, n / 8);
    // Each CPE's 8×8 blocks of A and B: any data will do for a timing.
    for cpe in 0..sw26010::N_CPE {
        let spm = cg.spm_mut(cpe);
        let a = random_vec(m * k / 64, cpe as u64);
        let b = random_vec(k * n / 64, 100 + cpe as u64);
        spm.slice_mut(a_desc.offset, a.len()).unwrap().copy_from_slice(&a);
        spm.slice_mut(b_desc.offset, b.len()).unwrap().copy_from_slice(&b);
    }
    c.bench_function("spm_gemm_functional_64", |b| {
        b.iter(|| {
            spm_gemm(&mut cg, m, n, k, 1.0, a_desc, b_desc, 0.0, c_desc, VecDim::M).unwrap();
        })
    });
}

fn bench_spm_gemm_cost_only(c: &mut Criterion) {
    let (m, n, k) = (256usize, 256usize, 64usize);
    let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
    let a_desc = SpmMatrix::new(0, RowMajor, k / 8);
    let b_desc = SpmMatrix::new(4096, RowMajor, n / 8);
    let c_desc = SpmMatrix::new(8192, RowMajor, n / 8);
    c.bench_function("spm_gemm_cost_only_256", |b| {
        b.iter(|| {
            spm_gemm(&mut cg, m, n, k, 1.0, a_desc, b_desc, 1.0, c_desc, VecDim::N).unwrap();
        })
    });
}

criterion_group!(benches, bench_gemm_cost, bench_spm_gemm_functional, bench_spm_gemm_cost_only);
criterion_main!(benches);
