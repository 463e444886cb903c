//! One cold Eq. (2) calibration, in a process of its own: nothing else here
//! queries a kernel cost, so the memos' counts are this calibration's. Two
//! threads ask for the model at once and one fit serves both; its 3,744
//! queries miss once each and store 96 register blocks, and every query and
//! the fit equal the naive block walk — one pure scoreboard query per
//! register block of the tile, 23,400 of them.

use std::sync::{Arc, Barrier};

use swatop_repro::sw26010::regcomm::panel_rotation_overhead;
use swatop_repro::sw26010::{MachineConfig, KERNEL_CALL_OVERHEAD, MESH};
use swatop_repro::swatop::model::{calibration_shapes, fit, GemmModel};
use swatop_repro::swkernels::cost::{block_cache_len, cache_stats, gemm_cycles};
use swatop_repro::swkernels::microkernel::{block_cycles, RegBlock};
use swatop_repro::swkernels::{VecDim, ALL_VARIANTS};

/// `per_cpe_cycles` as it was before the block walk was summarised: one
/// pure scoreboard query per register block of the tile. Returns the
/// cycles and the number of blocks walked.
fn naive_per_cpe_cycles(v_len: usize, s_len: usize, kb: usize, fast_vec_load: bool) -> (u64, u64) {
    let n_vec = v_len / 4;
    let mut total = KERNEL_CALL_OVERHEAD.get() + panel_rotation_overhead().get();
    let mut blocks = 0;
    let mut done_v = 0;
    while done_v < n_vec {
        let vb = (n_vec - done_v).min(4);
        let mut done_s = 0;
        while done_s < s_len {
            let sb = (s_len - done_s).min(4);
            total += 8 + block_cycles(RegBlock::new(vb, sb), MESH * kb, fast_vec_load);
            blocks += 1;
            done_s += sb;
        }
        done_v += vb;
    }
    (total, blocks)
}

#[test]
fn a_cold_calibration_runs_once_and_equals_the_naive_block_walk() {
    assert_eq!(cache_stats(), (0, 0, 0), "the memos start cold");
    let cfg = MachineConfig::default();
    let gate = Barrier::new(2);
    let ask = || {
        gate.wait();
        GemmModel::cached(&cfg)
    };
    let [a, b] = std::thread::scope(|s| [s.spawn(ask), s.spawn(ask)].map(|h| h.join().unwrap()));
    assert!(Arc::ptr_eq(&a, &b), "both threads hold the one fit");
    // 16 block inputs × the 6 exact-range step counts (both extrapolation
    // probes among them); 144 if every K had its own entry.
    assert_eq!(cache_stats(), (0, 3744, 3744), "one calibration: a miss per query");
    assert_eq!(block_cache_len(), 96);

    let (mut queries, mut naive_blocks) = (0u64, 0u64);
    let mut coef = [[0.0; fit::N_FEATURES]; 8];
    for v in ALL_VARIANTS {
        let mut samples = Vec::new();
        for (m, n, k) in calibration_shapes(v) {
            let (v_len, s_len) = match v.vec {
                VecDim::M => (m / MESH, n / MESH),
                VecDim::N => (n / MESH, m / MESH),
            };
            let (want, blocks) = naive_per_cpe_cycles(v_len, s_len, k / MESH, v.vector_load_ok());
            assert_eq!(gemm_cycles(v, m, n, k).get(), want, "{v:?} {m}x{n}x{k}");
            queries += 1;
            naive_blocks += blocks;
            let y = want as f64;
            samples.push((fit::features(m, n, k), y, 1.0 / (y * y)));
        }
        coef[v.index()] = fit::wls(&samples);
    }
    assert_eq!(a.coef, coef, "the fit over the naive values");
    assert_eq!(queries, 3744);
    assert_eq!(naive_blocks, 23_400);
    assert_eq!(cache_stats(), (3744, 3744, 3744), "the walk's queries all hit");
    assert_eq!(block_cache_len(), 96);
}
