//! The evaluators pay the machine model once per distinct input — the
//! kernel scoreboard per register block, the DMA transaction count per
//! start-address residue class, the `spm_gemm` cost per query. These tests
//! pin what makes that invisible: every cached or aggregated cost equals
//! the value its oracle computes one call at a time (the pure
//! `microkernel` functions, per-address `bus_bytes`, the Functional
//! interpreter), and failing programs fail with the same error value.

use std::sync::Mutex;

use swatop_repro::ir::{AVar, AffineExpr, DmaCpe, MemRole, Program, SpmSlot, Stmt};
use swatop_repro::sw26010::dma::{bus_bytes, bus_bytes_sum};
use swatop_repro::sw26010::regcomm::{panel_rotation_overhead, BcastBus};
use swatop_repro::sw26010::{
    cid, rid, CoreGroup, Counters, Cycles, DmaDirection, ExecMode, MachineConfig, MachineError,
    MESH, N_CPE,
};
use swatop_repro::swatop::codegen::plan;
use swatop_repro::swatop::interp::{execute, instantiate};
use swatop_repro::swatop::model::{calibration_shapes, fit, GemmModel};
use swatop_repro::swatop::scheduler::Scheduler;
use swatop_repro::swkernels::cost::{block_cache_len, cache_stats, gemm_cycles};
use swatop_repro::swkernels::microkernel::{block_cycles, RegBlock};
use swatop_repro::swkernels::{VecDim, ALL_VARIANTS};
use swatop_repro::swtensor::init::XorShift;

mod common;
use common::every_op;

/// The kernel-cost memos are process-wide; the tests that count their
/// entries or misses take turns.
static KERNEL_COST: Mutex<()> = Mutex::new(());

/// `per_cpe_cycles` as it was before the block walk was summarised: one
/// pure scoreboard query per register block of the tile.
fn naive_per_cpe_cycles(
    cfg: &MachineConfig,
    v_len: usize,
    s_len: usize,
    kb: usize,
    fast_vec_load: bool,
) -> (u64, u64) {
    let n_vec = v_len / 4;
    let mut total = cfg.kernel_call_overhead.get() + panel_rotation_overhead(cfg).get();
    let mut blocks = 0;
    let mut done_v = 0;
    while done_v < n_vec {
        let vb = (n_vec - done_v).min(4);
        let mut done_s = 0;
        while done_s < s_len {
            let sb = (s_len - done_s).min(4);
            total += 8 + block_cycles(cfg, RegBlock::new(vb, sb), MESH * kb, fast_vec_load);
            blocks += 1;
            done_s += sb;
        }
        done_v += vb;
    }
    (total, blocks)
}

#[test]
fn calibration_equals_the_naive_block_walk() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    // A timing no other test uses, so this calibration is cold.
    let mut cfg = MachineConfig::default();
    cfg.vldd_latency += 1;
    let (_, misses0, _) = cache_stats();
    let blocks0 = block_cache_len();
    let model = GemmModel::cached(&cfg);
    let (_, misses1, _) = cache_stats();
    let memoised_blocks = block_cache_len() - blocks0;

    let (mut queries, mut naive_blocks) = (0u64, 0u64);
    let mut coef = [[0.0; fit::N_FEATURES]; 8];
    for v in ALL_VARIANTS {
        let mut samples = Vec::new();
        for (m, n, k) in calibration_shapes(v) {
            let (v_len, s_len) = match v.vec {
                VecDim::M => (m / MESH, n / MESH),
                VecDim::N => (n / MESH, m / MESH),
            };
            let (want, blocks) =
                naive_per_cpe_cycles(&cfg, v_len, s_len, k / MESH, v.vector_load_ok());
            assert_eq!(gemm_cycles(&cfg, v, m, n, k).get(), want, "{v:?} {m}x{n}x{k}");
            queries += 1;
            naive_blocks += blocks;
            let y = want as f64;
            samples.push((fit::features(m, n, k), y, 1.0 / (y * y)));
        }
        coef[v.index()] = fit::wls(&samples);
    }
    assert_eq!(model.coef, coef, "the fit over the naive values");
    assert_eq!(queries, 3744);
    assert_eq!(misses1 - misses0, queries, "one miss per cold query");
    // 23,400 block evaluations before; 16 shapes × 2 load kinds × 9 K now.
    assert_eq!(naive_blocks, 23_400);
    assert!(memoised_blocks > 0 && memoised_blocks <= 288, "{memoised_blocks} blocks");
    println!("{queries} queries, {naive_blocks} naive blocks, {memoised_blocks} memoised");
}

#[test]
fn mesh_bus_bytes_equal_per_address_sums() {
    let mut rng = XorShift::new(13);
    let mut pick = |lo: usize, hi: usize| lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize;
    let mut multi_block = 0;
    for case in 0..4000 {
        let txn = [128, 128, 64, 256, 96, 512][case % 6];
        let base = if case % 5 == 0 { 32 * pick(0, 64) } else { pick(0, 5000) };
        let o = pick(0, 300);
        let (c_r, c_c) = match case % 4 {
            0 => (32 * pick(0, 40), 32 * pick(0, 8)), // every start on one residue
            1 => (pick(0, 2000), pick(0, 64)),
            2 => (0, pick(0, 9)),
            _ => (pick(0, 9), 0),
        };
        let block = pick(1, 70);
        let n_blocks = if case % 3 == 0 { 1 } else { pick(2, 40) };
        let stride = block + if case % 7 == 0 { 0 } else { pick(0, 200) };
        multi_block += usize::from(n_blocks > 1 && stride * 4 % txn != 0);
        let start = |r: usize, c: usize| base + o + c_r * r + c_c * c;
        let cpes = || (0..N_CPE).map(|cpe| start(rid(cpe), cid(cpe)));
        let leaders = || (0..MESH).map(|i| start(i, 0));
        for (n, got, want) in [
            (
                N_CPE,
                bus_bytes_sum(cpes(), block, stride, n_blocks, txn),
                cpes().map(|a| bus_bytes(a, block, stride, n_blocks, txn)).sum::<usize>(),
            ),
            (
                MESH,
                bus_bytes_sum(leaders(), block, stride, n_blocks, txn),
                leaders().map(|a| bus_bytes(a, block, stride, n_blocks, txn)).sum::<usize>(),
            ),
        ] {
            assert_eq!(
                got, want,
                "{n} starts: base {base} o {o} c_r {c_r} c_c {c_c} block {block} \
                 stride {stride} n_blocks {n_blocks} txn {txn}"
            );
        }
    }
    assert!(multi_block > 1000, "only {multi_block} cases with transaction-unaligned strides");
}

fn run(
    cfg: &MachineConfig,
    mode: ExecMode,
    exe: &swatop_repro::swatop::codegen::Executable,
) -> Result<(Cycles, Counters), MachineError> {
    let mut cg = CoreGroup::new(cfg.clone(), mode);
    let binding = instantiate(&mut cg, exe);
    // Inputs stay zero — data values never affect timing or counters.
    let cycles = execute(&mut cg, exe, &binding)?;
    Ok((cycles, cg.counters))
}

#[test]
fn cost_only_equals_functional_on_every_operator() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let (mut bcast, mut strided) = (0, 0);
    for op in every_op() {
        let cands = sched.enumerate(op.as_ref());
        let step = (cands.len() / 6).max(1) | 1; // odd: visits both prefetch forms
        for cand in cands.iter().step_by(step) {
            let fast = run(&cfg, ExecMode::CostOnly, &cand.exe).expect("cost-only run");
            let oracle = run(&cfg, ExecMode::Functional, &cand.exe).expect("functional run");
            assert_eq!(fast, oracle, "{} at {}", op.name(), cand.describe);
            assert!(fast.1.dma_bus_bytes >= fast.1.dma_payload_bytes && fast.1.issue_p0 > 0);
            bcast += usize::from(fast.1.dma_bcast_batches > 0);
            strided += usize::from(fast.1.dma_bus_bytes > fast.1.dma_payload_bytes);
        }
    }
    // Anti-vacuity: leader and per-CPE costing, with real transaction waste.
    assert!(bcast > 0 && strided > 0, "{bcast} broadcast, {strided} wasteful candidates");
}

/// A one-statement program: 64 CPEs (or 8 leaders) fetch `block` elements
/// each from a 1024-element buffer placed after a 40-element one, so the
/// machine base address is not zero.
fn one_dma(offset: AffineExpr, block: usize, bcast: Option<BcastBus>) -> Program {
    let mut p = Program::new("one_dma");
    p.mem_buf("before", 40, MemRole::Input);
    let buf = p.mem_buf("src", 1024, MemRole::Input);
    let spm = p.spm_buf("s", 64);
    let reply = p.fresh_reply();
    p.set_body(Stmt::DmaCpe(DmaCpe {
        buf,
        offset,
        block,
        stride: block,
        n_blocks: 1,
        direction: DmaDirection::MemToSpm,
        spm: SpmSlot::Single(spm),
        reply,
        bcast,
        fused: false,
    }));
    p
}

#[test]
fn out_of_range_offsets_report_the_first_failing_cpe() {
    let cfg = MachineConfig::default();
    let affine = |o: i64, c_r: i64, c_c: i64| {
        AffineExpr::konst(o).add_term(AVar::Rid, c_r).add_term(AVar::Cid, c_c)
    };
    // What the first failing CPE reports: an overrun of the 1024-element
    // buffer by `len` elements at `off`, or a negative offset.
    enum Want {
        Overrun { off: usize, len: usize },
        Negative(i64, &'static str),
    }
    let cases = [
        // CPE 63 alone overruns the buffer, by one element.
        (one_dma(affine(1, 128, 16), 16, None), Want::Overrun { off: 1009, len: 16 }),
        // Rows 6 and 7 overrun: CPE 48 is the first in order.
        (one_dma(affine(0, 200, 0), 16, None), Want::Overrun { off: 1200, len: 16 }),
        // Offsets fall with cid: CPE 3 is the first below zero.
        (one_dma(affine(10, 0, -4), 4, None), Want::Negative(-2, "CPE 3")),
        // CPE 1 is negative before row 1 ever overruns.
        (one_dma(affine(3, 1000, -5), 4, None), Want::Negative(-2, "CPE 1")),
        // Broadcast leaders fetch 8 × 8 = 64 elements: row 6 overruns.
        (
            one_dma(affine(0, 192, 8), 8, Some(BcastBus::Row)),
            Want::Overrun { off: 192 * 6, len: 64 },
        ),
        (
            one_dma(affine(5, 64, -3), 1, Some(BcastBus::Column)),
            Want::Negative(-1, "broadcast leader 2"),
        ),
    ];
    for (i, (program, want)) in cases.into_iter().enumerate() {
        let exe = plan(program, &cfg).expect("plans");
        for mode in [ExecMode::CostOnly, ExecMode::Functional] {
            let mut cg = CoreGroup::new(cfg.clone(), mode);
            let binding = instantiate(&mut cg, &exe);
            let base = cg.mem.base(binding.bufs[1]);
            assert_ne!(base, 0);
            let want = match want {
                Want::Overrun { off, len } => MachineError::MainMemoryOutOfBounds {
                    offset: base + off,
                    len,
                    size: base + 1024,
                },
                Want::Negative(off, who) => {
                    MachineError::Invalid(format!("negative DMA offset {off} on {who}"))
                }
            };
            let got = execute(&mut cg, &exe, &binding).expect_err("out of range");
            assert_eq!(got, want, "case {i} in {mode:?}");
        }
    }
    // The same shapes, in range, run in both modes with equal clocks.
    for offset in [affine(0, 128, 16), affine(1008, -128, -16)] {
        let exe = plan(one_dma(offset, 16, None), &cfg).expect("plans");
        let fast = run(&cfg, ExecMode::CostOnly, &exe).expect("in range");
        assert_eq!(fast, run(&cfg, ExecMode::Functional, &exe).expect("in range"));
    }
}
