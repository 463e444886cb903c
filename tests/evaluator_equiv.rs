//! The evaluators pay the machine model once per distinct input — the
//! kernel scoreboard per register block, the DMA transaction count per
//! start-address residue class, the `spm_gemm` cost per query — and the
//! cost-only interpreter once per static node per run (a `DMA_CPE` node's
//! bus bytes per first-start residue, a `Gemm` node's kernel price). These
//! tests pin what makes that invisible: every cached or aggregated cost
//! equals the value its oracle computes one call at a time (the pure
//! `microkernel` functions, per-address `bus_bytes`, the Functional
//! interpreter, which prices every request of every execution), failing
//! programs fail with the same error value, and runs under a fault plan
//! give what the per-execution interpreter gave. A DMA batch has one way
//! through the machine whoever priced it, and a `DMA_CPE` node one shape
//! whoever reads it.

use std::sync::Mutex;

use swatop_repro::ir::{
    AVar, AffineExpr, Cond, DmaCpe, GemmOp, MatDesc, MemBufId, MemRole, Program, ReplyId,
    SpmBufId, SpmSlot, Stmt,
};
use swatop_repro::sw26010::dma::{bus_bytes, StartClasses};
use swatop_repro::sw26010::regcomm::{dma_scatter_cycles, panel_rotation_overhead, BcastBus};
use swatop_repro::sw26010::trace::{Event, Trace};
use swatop_repro::sw26010::{
    cid, rid, CoreGroup, Counters, Cycles, DmaBatch, DmaDirection, DmaRequest, ExecMode,
    FaultPlan, MachineConfig, MachineError, ReplyWord, MESH, N_CPE,
};
use swatop_repro::swatop::codegen::{plan, Executable};
use swatop_repro::swatop::interp::{execute, extrapolation_stats, instantiate};
use swatop_repro::swatop::model::{calibration_shapes, dma_eq1_cycles, estimate, fit, GemmModel};
use swatop_repro::swatop::ops::{ExplicitConvOp, ImplicitConvOp, MatmulOp, WinogradConvOp};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swkernels::cost::{block_cache_len, cache_stats, gemm_cycles};
use swatop_repro::swkernels::microkernel::{block_cycles, RegBlock};
use swatop_repro::swkernels::{VecDim, ALL_VARIANTS};
use swatop_repro::swtensor::init::XorShift;
use swatop_repro::swtensor::{ConvShape, MatLayout};
use swatop_repro::workloads::vgg16_layers;

mod common;
use common::every_op;

/// The kernel-cost memos and the extrapolation tallies are process-wide; the
/// tests that count their entries, misses or skips — and every test here
/// that could extrapolate a loop — take turns.
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
        // The classes of the starts relative to the first, evaluated there.
        let first = start(0, 0);
        let by_class = |starts: &mut dyn Iterator<Item = usize>| {
            StartClasses::new(starts.map(|s| s as i64 - first as i64), txn)
                .bus_bytes(first, block, stride, n_blocks)
        };
        for (n, got, want) in [
            (
                N_CPE,
                by_class(&mut cpes()),
                cpes().map(|a| bus_bytes(a, block, stride, n_blocks, txn)).sum::<usize>(),
            ),
            (
                MESH,
                by_class(&mut leaders()),
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

/// What the cost-only interpreter keeps per static `DMA_CPE` node: classes
/// built once from the mesh coefficients, evaluated at whatever residue the
/// first start lands on.
#[test]
fn node_bus_bytes_depend_on_the_first_start_residue_alone() {
    let mut rng = XorShift::new(15);
    let mut pick = |lo: i64, hi: i64| lo + (rng.next_u64() % (hi - lo + 1) as u64) as i64;
    let (mut negative, mut unaligned, mut many_classes) = (0, 0, 0);
    for case in 0..4000 {
        let txn = [128, 64, 96, 128, 256, 512][case % 6];
        let (c_r, c_c) = match case % 5 {
            0 => (32 * pick(-40, 40), 32 * pick(-8, 8)), // every start on one residue
            1 => (pick(-2000, 2000), pick(-64, 64)),
            2 => (0, pick(-9, 9)),
            3 => (pick(-9, 9), 0),
            _ => (pick(-300, 300), pick(1, 31)),
        };
        negative += usize::from(c_r < 0 || c_c < 0);
        unaligned += usize::from(c_r % 32 != 0 || c_c % 32 != 0);
        let block = pick(1, 70) as usize;
        let n_blocks = if case % 3 == 0 { 1 } else { pick(2, 12) as usize };
        let stride = block + if case % 7 == 0 { 0 } else { pick(0, 200) as usize };
        // 64 CPEs, the 8 row leaders, or the 8 column leaders.
        let relative: Vec<i64> = match case % 4 {
            0 | 1 => (0..N_CPE).map(|cpe| c_r * rid(cpe) as i64 + c_c * cid(cpe) as i64).collect(),
            2 => (0..MESH as i64).map(|i| c_r * i).collect(),
            _ => (0..MESH as i64).map(|i| c_c * i).collect(),
        };
        let classes = StartClasses::new(relative.iter().copied(), txn);
        let period = txn / 4;
        // Far enough from zero for the most negative corner.
        let origin = period as i64 * 1000;
        let mut seen = std::collections::BTreeSet::new();
        for rho in 0..period as i64 {
            let first = (origin + rho) as usize;
            assert_eq!(classes.residue(first), rho as usize);
            let starts = || relative.iter().map(move |rel| (first as i64 + rel) as usize);
            let each: usize = starts().map(|a| bus_bytes(a, block, stride, n_blocks, txn)).sum();
            let at_rho = classes.bus_bytes(first, block, stride, n_blocks);
            assert!(
                at_rho == each,
                "classes {at_rho}, per address {each}: first {first} c_r {c_r} \
                 c_c {c_c} block {block} stride {stride} n_blocks {n_blocks} txn {txn}"
            );
            seen.insert(each);
        }
        many_classes += usize::from(seen.len() > 1);
    }
    assert!(negative > 1000 && unaligned > 2000, "{negative} negative, {unaligned} unaligned");
    assert!(many_classes > 1000, "the residue moved the price of only {many_classes} nodes");
}

/// A reply word holds what can still be waited for, and counts the rest.
#[test]
fn reply_words_count_what_they_no_longer_hold() {
    let mut word = ReplyWord::new();
    for round in 0..10_000usize {
        for k in 0..4 {
            word.push(Cycles((round * 4 + k) as u64));
        }
        assert_eq!(word.pending(), 4 + usize::from(round > 0));
        // Leave one completion in flight across rounds.
        let n = if round == 0 { 3 } else { 4 };
        assert_eq!(word.wait(n).expect("issued"), Cycles((round * 4 + 2) as u64));
        assert_eq!((word.pending(), word.issued()), (1, round * 4 + 4));
    }
    assert_eq!(
        word.wait(3).expect_err("one in flight"),
        MachineError::ReplyUnderflow { expected: 39_999 + 3, issued: 40_000 }
    );
    assert_eq!((word.pending(), word.wait(1).expect("the last one")), (1, Cycles(39_999)));
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
    one_strided_dma(offset, block, block, 1, bcast)
}

/// [`one_dma`] of `n_blocks` blocks, `stride` apart.
fn one_strided_dma(
    offset: AffineExpr,
    block: usize,
    stride: usize,
    n_blocks: usize,
    bcast: Option<BcastBus>,
) -> Program {
    let mut p = Program::new("one_dma");
    p.mem_buf("before", 40, MemRole::Input);
    let buf = p.mem_buf("src", 1024, MemRole::Input);
    let spm = p.spm_buf("s", 64);
    let reply = p.fresh_reply();
    p.set_body(Stmt::DmaCpe(DmaCpe {
        buf,
        offset,
        block,
        stride,
        n_blocks,
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

/// What one issue leaves behind: the clock after the issue, the counters,
/// the completion time on the reply word, and the trace.
type Issued = (Cycles, Counters, Cycles, Vec<Event>);

/// A batch as its requests: the DRAM side, the SPM side when a broadcast
/// makes them differ, and the register-bus phase.
struct Requests {
    dram: Vec<DmaRequest>,
    lands: Option<(Vec<DmaRequest>, Cycles)>,
}

impl Requests {
    /// The batch priced by hand, one oracle call per request.
    fn priced(&self, cfg: &MachineConfig) -> DmaBatch {
        let direction = self.dram[0].direction;
        let lands = self.lands.as_ref().map_or(&self.dram, |(lands, _)| lands);
        let spm_end = lands.iter().map(|r| r.spm_offset + r.total_elems()).max().unwrap_or(0);
        DmaBatch {
            direction,
            bus_bytes: self.dram.iter().map(|r| r.bus_bytes(cfg.dram_transaction_bytes)).sum(),
            blocks: self.dram.iter().map(|r| r.n_blocks).sum(),
            payload_bytes: self.dram.iter().map(|r| r.total_bytes()).sum(),
            spm_end: if direction == DmaDirection::MemToSpm { spm_end } else { 0 },
            regcomm: self.lands.as_ref().map(|&(_, regcomm)| regcomm),
        }
    }

    /// Issue the batch — from its requests on a functional machine, or
    /// priced on a cost-only one — fresh, or chained onto a batch in flight.
    fn issue(&self, cfg: &MachineConfig, by_request: bool, chained: bool, traced: bool) -> Issued {
        let mode = if by_request { ExecMode::Functional } else { ExecMode::CostOnly };
        let mut cg = CoreGroup::new(cfg.clone(), mode);
        cg.mem.alloc("arena", 1 << 14);
        if traced {
            cg.trace = Trace::enabled(16);
        }
        let (earlier, reply) = (cg.alloc_reply(), cg.alloc_reply());
        if chained {
            let get = [DmaRequest::contiguous(9, DmaDirection::MemToSpm, 77, 3, 500)];
            cg.dma(DmaDirection::MemToSpm, &get, earlier).expect("the batch in flight");
            cg.dma_chain_next();
        }
        let direction = self.dram[0].direction;
        match (&self.lands, by_request) {
            (_, false) => cg.dma_priced(self.priced(cfg), reply),
            (None, true) => cg.dma(direction, &self.dram, reply),
            (Some((lands, regcomm)), true) => {
                cg.dma_bcast(direction, &self.dram, lands, *regcomm, reply)
            }
        }
        .expect("issues");
        let (now, counters) = (cg.now(), cg.counters);
        cg.dma_wait(reply, 1).expect("one completion");
        assert_eq!(cg.reply_pending(reply), 0);
        (now, counters, cg.now(), cg.trace.events().to_vec())
    }
}

#[test]
fn a_batch_has_one_way_through_the_machine() {
    use DmaDirection::{MemToSpm, SpmToMem};
    let cfg = MachineConfig::default();
    let strided = |cpe: usize, direction, block_elems, stride_elems, n_blocks| DmaRequest {
        cpe,
        direction,
        mem_offset: 41 + 170 * rid(cpe) + 5 * cid(cpe),
        spm_offset: 16,
        block_elems,
        stride_elems,
        n_blocks,
    };
    let plain = |dram| Requests { dram, lands: None };
    let cases = [
        // One aligned request: what `cluster::tests` compared its two entries on.
        ("contiguous", plain(vec![DmaRequest::contiguous(0, MemToSpm, 0, 0, 256)])),
        ("strided get", plain((0..N_CPE).map(|c| strided(c, MemToSpm, 7, 19, 4)).collect())),
        ("strided put", plain((0..N_CPE).map(|c| strided(c, SpmToMem, 3, 40, 5)).collect())),
        (
            "broadcast",
            Requests {
                dram: (0..MESH).map(|r| strided(r * MESH, MemToSpm, 40, 45, 2)).collect(),
                lands: Some((
                    (0..N_CPE).map(|c| strided(c, MemToSpm, 5, 45, 2)).collect(),
                    dma_scatter_cycles(&cfg, 10),
                )),
            },
        ),
        (
            "gathered put",
            Requests {
                dram: (0..MESH).map(|r| strided(r * MESH, SpmToMem, 40, 45, 2)).collect(),
                lands: Some((
                    (0..N_CPE).map(|c| strided(c, SpmToMem, 5, 45, 2)).collect(),
                    dma_scatter_cycles(&cfg, 10),
                )),
            },
        ),
    ];
    for (name, requests) in &cases {
        let mut groups = Vec::new();
        for chained in [false, true] {
            let oracle = requests.issue(&cfg, true, chained, true);
            assert_eq!(requests.issue(&cfg, false, chained, true), oracle, "{name}, priced");
            // Tracing observes: it moves no clock and no counter.
            for by_request in [true, false] {
                let (now, counters, finish, events) =
                    requests.issue(&cfg, by_request, chained, false);
                assert_eq!((now, counters, finish), (oracle.0, oracle.1, oracle.2), "{name}");
                assert!(events.is_empty());
            }
            let batch = requests.priced(&cfg);
            let issues: Vec<&Event> =
                oracle.3.iter().filter(|e| matches!(e, Event::DmaIssue { .. })).collect();
            assert_eq!(issues.len(), 1 + usize::from(chained), "{name}");
            let &Event::DmaIssue { at, done, direction, payload_bytes, bus_bytes, .. } =
                issues[issues.len() - 1]
            else {
                unreachable!()
            };
            assert_eq!((at, done), (oracle.0, oracle.2), "{name}: issued at, done at");
            assert_eq!(
                (direction, payload_bytes, bus_bytes),
                (batch.direction, batch.payload_bytes, batch.bus_bytes),
                "{name}"
            );
            let relays: Vec<&Event> =
                oracle.3.iter().filter(|e| matches!(e, Event::Regcomm { .. })).collect();
            match batch.regcomm {
                None => assert!(relays.is_empty(), "{name}"),
                Some(cycles) => {
                    // A get's scatter ends at its completion; a put's gather
                    // starts at its issue.
                    let bytes = batch.payload_bytes / 8 * 7;
                    let from = if direction == MemToSpm { done - cycles } else { at };
                    let want = Event::Regcomm { at: from, cycles, bytes, direction };
                    assert_eq!(relays, [&want], "{name}");
                    assert_eq!(oracle.1.regcomm_bytes, bytes as u64);
                }
            }
            groups.push((oracle.1.dma_batches, oracle.1.dma_bcast_batches));
        }
        // A chained batch opens no batch group of its own.
        let bcast = u64::from(requests.lands.is_some());
        assert_eq!(groups, [(1, bcast), (1, bcast)], "{name}");
        let c = requests.issue(&cfg, false, false, false).1;
        let batch = requests.priced(&cfg);
        assert_eq!(
            (c.dma_payload_bytes, c.dma_bus_bytes, c.spm_high_water_elems),
            (batch.payload_bytes as u64, batch.bus_bytes as u64, batch.spm_end as u64),
            "{name}"
        );
    }
}

/// The analytic model and the interpreter read one definition of what a
/// `DMA_CPE` node asks of the engine: `DmaCpe::shape`.
#[test]
fn a_node_has_one_shape_for_the_model_and_the_interpreter() {
    let cfg = MachineConfig::default();
    let model = GemmModel::cached(&cfg);
    let affine = |o: i64, c_r: i64, c_c: i64| {
        AffineExpr::konst(o).add_term(AVar::Rid, c_r).add_term(AVar::Cid, c_c)
    };
    let (block, stride, n_blocks) = (4, 45, 3);
    // `(bus, offset, leader (rid, cid) of request i)`; a leader's line is
    // contiguous along the other mesh axis.
    type Leader = fn(usize) -> (usize, usize);
    let cases: [(Option<BcastBus>, AffineExpr, Leader); 3] = [
        (None, affine(9, 100, 11), |i| (rid(i), cid(i))),
        (Some(BcastBus::Row), affine(9, 100, 4), |i| (i, 0)),
        (Some(BcastBus::Column), affine(9, 4, 100), |i| (0, i)),
    ];
    for (bus, offset, leader) in cases {
        let program = one_strided_dma(offset.clone(), block, stride, n_blocks, bus);
        let Stmt::DmaCpe(node) = &*program.body else { panic!("one node") };
        let shape = node.shape(&cfg);
        let (requests, wide, regcomm) = match bus {
            None => (N_CPE, block, None),
            Some(_) => (MESH, MESH * block, Some(dma_scatter_cycles(&cfg, block * n_blocks))),
        };
        assert_eq!(
            (shape.requests, shape.block, shape.blocks, shape.regcomm),
            (requests, wide, requests * n_blocks, regcomm),
            "{bus:?}"
        );
        assert_eq!((shape.span, shape.payload_bytes), (2 * stride + wide, N_CPE * 12 * 4));
        // The model prices that shape ...
        let eq1 = dma_eq1_cycles(&cfg, wide, n_blocks, stride, requests)
            + regcomm.map_or(0.0, |s| s.get() as f64);
        let est = estimate(&cfg, &model, &program);
        assert_eq!((est.t_dma, est.t_compute), (eq1, 0.0), "{bus:?}");
        // ... and the interpreter issues it, in either mode: the requests
        // that shape describes, priced one address at a time.
        let exe = plan(program, &cfg).expect("plans");
        for mode in [ExecMode::CostOnly, ExecMode::Functional] {
            let mut cg = CoreGroup::new(cfg.clone(), mode);
            cg.trace = Trace::enabled(4);
            let binding = instantiate(&mut cg, &exe);
            let base = cg.mem.base(binding.bufs[1]);
            execute(&mut cg, &exe, &binding).expect("runs");
            let starts = (0..requests).map(|i| {
                let (r, c) = leader(i);
                base + offset.eval(&swatop_repro::ir::Env::new(1), r as i64, c as i64) as usize
            });
            let bus_bytes: usize = starts
                .map(|a| bus_bytes(a, wide, stride, n_blocks, cfg.dram_transaction_bytes))
                .sum();
            let transfer = (bus_bytes as f64 / cfg.mem_bytes_per_cycle).ceil() as u64;
            let done = cfg.dma_issue_cost
                + cfg.dma_startup
                + Cycles(cfg.dma_block_overhead.get() * shape.blocks as u64 + transfer)
                + regcomm.unwrap_or(Cycles::ZERO);
            let issue = Event::DmaIssue {
                at: cfg.dma_issue_cost,
                done,
                direction: DmaDirection::MemToSpm,
                payload_bytes: shape.payload_bytes,
                bus_bytes,
                tag: 0,
            };
            let mut want = vec![issue];
            if let Some(cycles) = regcomm {
                let bytes = shape.payload_bytes / 8 * 7;
                let direction = DmaDirection::MemToSpm;
                want.push(Event::Regcomm { at: done - cycles, cycles, bytes, direction });
            }
            assert_eq!(cg.trace.events(), want.as_slice(), "{bus:?} in {mode:?}");
            assert_eq!(cg.counters.dma_bcast_batches, u64::from(bus.is_some()));
        }
    }
}

/// A program whose static nodes meet many dynamic contexts: inside a 5 × 4
/// loop nest one strided per-CPE `DMA_CPE` node starts on a different
/// address residue every iteration and lands in either parity of a double
/// buffer; a row-leader and a column-leader broadcast chain onto it (fused);
/// one `Gemm` node reads both parities of both operands; two sibling put
/// nodes sit under a guard.
fn residue_walk() -> Program {
    residue_walk_of(5)
}

/// [`residue_walk`] with `outer` iterations of its outer loop, the source
/// grown to match: from 128 on, long enough for the 32-iteration period of
/// its residues to be extrapolated.
fn residue_walk_of(outer: usize) -> Program {
    let mut p = Program::new("residue_walk");
    p.mem_buf("before", 41, MemRole::Input);
    let src = p.mem_buf("src", 4096 + 37 * outer.saturating_sub(5), MemRole::Input);
    let dst = p.mem_buf("dst", 4096, MemRole::Output);
    let (i, j) = (p.fresh_var("i"), p.fresh_var("j"));
    // Operands sit high in the SPM, where injected capacity pressure bites.
    p.spm_buf("resident", 12_000);
    let double = |p: &mut Program, name: &str, len, sel: AffineExpr| SpmSlot::Double {
        even: p.spm_buf(format!("{name}0"), len),
        odd: p.spm_buf(format!("{name}1"), len),
        sel,
    };
    let (vi, vj) = (AffineExpr::loop_var(i), AffineExpr::loop_var(j));
    let a = double(&mut p, "a", 8, vi.add(&vj));
    let b = double(&mut p, "b", 8, vi.clone());
    let c = SpmSlot::Single(p.spm_buf("c", 16));
    let reply = p.fresh_reply();
    let mesh = |e: AffineExpr, c_r: i64, c_c: i64| e.add_term(AVar::Rid, c_r).add_term(AVar::Cid, c_c);
    let dma = |buf, offset, block, stride, n_blocks, direction, spm: &SpmSlot, bcast, fused| {
        Stmt::DmaCpe(DmaCpe {
            buf,
            offset,
            block,
            stride,
            n_blocks,
            direction,
            spm: spm.clone(),
            reply,
            bcast,
            fused,
        })
    };
    use DmaDirection::{MemToSpm, SpmToMem};
    let put = |k: i64| {
        let off = mesh(vi.scale(13).add(&vj).add_const(k), 170, 4);
        dma(dst, off, 4, 40, 4, SpmToMem, &c, None, false)
    };
    let gemm = Stmt::gemm(GemmOp {
        m: 32,
        n: 32,
        k: 16,
        alpha: 1.0,
        beta: 1.0,
        a: MatDesc::new(a.clone(), MatLayout::RowMajor, 2),
        b: MatDesc::new(b.clone(), MatLayout::RowMajor, 4),
        c: MatDesc::new(c.clone(), MatLayout::RowMajor, 4),
        vd: VecDim::M,
        k_step: None,
    });
    let body = Stmt::seq(vec![
        // CPE (0, 0) starts at 37·i + 5·j + 21 (`cid` walks downwards).
        dma(
            src,
            mesh(vi.scale(37).add(&vj.scale(5)).add_const(21), 160, -3),
            2,
            19,
            4,
            MemToSpm,
            &a,
            None,
            false,
        ),
        dma(
            src,
            mesh(vi.scale(11).add_const(3), 100, 4),
            4,
            45,
            2,
            MemToSpm,
            &b,
            Some(BcastBus::Row),
            true,
        ),
        dma(
            src,
            mesh(vj.scale(7), 16, 130),
            16,
            16,
            1,
            MemToSpm,
            &c,
            Some(BcastBus::Column),
            true,
        ),
        Stmt::DmaWait { reply, times: 3 },
        gemm,
        Stmt::if_else(Cond::lt_const(vj.clone(), 2), put(0), put(9)),
        Stmt::DmaWait { reply, times: 1 },
    ]);
    p.set_body(Stmt::for_(i, outer, Stmt::for_(j, 4, body)));
    p
}

#[test]
fn one_node_many_contexts_cost_only_equals_functional() {
    let cfg = MachineConfig::default();
    let exe = plan(residue_walk(), &cfg).expect("plans");
    let fast = run(&cfg, ExecMode::CostOnly, &exe).expect("cost-only run");
    let oracle = run(&cfg, ExecMode::Functional, &exe).expect("functional run");
    assert_eq!(fast, oracle);
    // Anti-vacuity: the strided get met at least 8 first-start residues, the
    // chained nodes opened no batch of their own, and every batch wasted bus.
    let base = {
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        let binding = instantiate(&mut cg, &exe);
        cg.mem.base(binding.bufs[1])
    };
    let per_txn = cfg.dram_transaction_bytes / 4;
    let residues: std::collections::BTreeSet<usize> = (0..5)
        .flat_map(|i| (0..4).map(move |j| (base + 37 * i + 5 * j + 21) % per_txn))
        .collect();
    assert!(residues.len() >= 8, "{} residues", residues.len());
    let c = fast.1;
    assert_eq!((c.dma_batches, c.dma_bcast_batches, c.kernel_calls), (40, 40, 20));
    assert!(c.dma_bus_bytes > c.dma_payload_bytes);
}

/// One line per `(run, attempt)`: what the tuner would observe — jittered
/// cycles, or the error — and how many bus bytes the run had moved by then.
fn faulted_runs(cfg: &MachineConfig, exe: &swatop_repro::swatop::codegen::Executable) -> Vec<String> {
    (0..16u64)
        .map(|n| {
            let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
            cg.arm_faults(n * 7 + 1, (n % 3) as u32);
            let binding = instantiate(&mut cg, exe);
            let seen = execute(&mut cg, exe, &binding).map(|cycles| cg.observed(cycles).get());
            format!("{seen:?} after {} bus bytes", cg.counters.dma_bus_bytes)
        })
        .collect()
}

#[test]
fn cost_only_results_under_a_fault_plan_equal_the_recorded_ones() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig {
        fault: Some(FaultPlan {
            seed: 0x5EED_0015,
            dma_fail_ppm: 4_000,
            spm_pressure_ppm: 400_000,
            spm_steal_max_permille: 999,
            jitter_permille: 20,
        }),
        ..MachineConfig::default()
    };
    let sched = Scheduler::new(cfg.clone());
    let mut programs = vec![("residue_walk".to_string(), plan(residue_walk(), &cfg).expect("plans"))];
    for op in every_op() {
        let cands = sched.enumerate(op.as_ref());
        let cand = &cands[cands.len() / 3];
        programs.push((op.name(), cand.exe.clone()));
    }
    let got: Vec<String> = programs
        .iter()
        .flat_map(|(name, exe)| {
            faulted_runs(&cfg, exe).into_iter().map(move |line| format!("{name}: {line}"))
        })
        .collect();
    let golden = include_str!("golden/faulted_cost_only_runs.txt");
    let want: Vec<&str> = golden.lines().collect();
    if got != want {
        println!("{}", got.join("\n"));
    }
    assert_eq!(got.len(), 16 * 9);
    assert!(got == want, "cost-only results under faults moved (recorded: tests/golden/)");
    // Anti-vacuity: clean runs, dropped batches and squeezed SPMs all occur.
    for needle in ["Ok(", "DmaFault", "SpmOverflow"] {
        assert!(got.iter().any(|l| l.contains(needle)), "no {needle} among the recorded runs");
    }
}

/// One run three ways: cost-only (extrapolating loops where it can), the
/// plain walk (cost-only with a trace, which executes every iteration) and
/// Functional.
fn three_ways(
    cfg: &MachineConfig,
    exe: &Executable,
) -> [Result<(Cycles, Counters), MachineError>; 3] {
    let plain = {
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        cg.trace = Trace::enabled(0);
        let binding = instantiate(&mut cg, exe);
        execute(&mut cg, exe, &binding).map(|cycles| (cycles, cg.counters))
    };
    [run(cfg, ExecMode::CostOnly, exe), plain, run(cfg, ExecMode::Functional, exe)]
}

#[test]
fn extrapolated_runs_equal_the_plain_walk_and_functional_on_every_operator() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let mut ops = every_op();
    // Unaligned in every dimension, and loops long enough to extrapolate.
    ops.push(Box::new(MatmulOp::new(100, 100, 100)));
    ops.push(Box::new(ImplicitConvOp::new(ConvShape::square(2, 24, 40, 12))));
    ops.push(Box::new(WinogradConvOp::new(ConvShape::square(2, 24, 40, 12))));
    let before = extrapolation_stats();
    for op in ops {
        let cands = sched.enumerate(op.as_ref());
        let step = (cands.len() / 5).max(1) | 1;
        for cand in cands.iter().step_by(step) {
            let [fast, plain, functional] = three_ways(&cfg, &cand.exe);
            assert_eq!(fast, plain, "{} at {}: the plain walk", op.name(), cand.describe);
            assert_eq!(fast, functional, "{} at {}: Functional", op.name(), cand.describe);
        }
    }
    assert!(extrapolation_stats().0 > before.0, "no sampled candidate extrapolated a loop");
}

/// The pieces of an adversarial loop: a get of 64 elements per CPE from
/// `src` into one of two SPM buffers, a GEMM on it, a put of the result to
/// `dst`, and waits.
struct Kit {
    src: MemBufId,
    dst: MemBufId,
    a: (SpmBufId, SpmBufId),
    b: SpmBufId,
    c: SpmBufId,
    reply: ReplyId,
}

impl Kit {
    fn new(p: &mut Program, src_len: usize) -> Kit {
        Kit {
            src: p.mem_buf("src", src_len, MemRole::Input),
            dst: p.mem_buf("dst", 4096, MemRole::Output),
            a: (p.spm_buf("a0", 64), p.spm_buf("a1", 64)),
            b: p.spm_buf("b", 64),
            c: p.spm_buf("c", 64),
            reply: p.fresh_reply(),
        }
    }

    fn slot(&self, sel: &AffineExpr) -> SpmSlot {
        SpmSlot::Double { even: self.a.0, odd: self.a.1, sel: sel.clone() }
    }

    /// The get of CPE (0, 0) starting at element `first`; `block` elements.
    fn get(&self, first: AffineExpr, block: usize, sel: &AffineExpr) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: self.src,
            offset: first.add_term(AVar::Rid, 512).add_term(AVar::Cid, 64),
            block,
            stride: block,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: self.slot(sel),
            reply: self.reply,
            bcast: None,
            fused: false,
        })
    }

    fn put(&self) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: self.dst,
            offset: AffineExpr::zero().add_term(AVar::Rid, 512).add_term(AVar::Cid, 64),
            block: 64,
            stride: 64,
            n_blocks: 1,
            direction: DmaDirection::SpmToMem,
            spm: SpmSlot::Single(self.c),
            reply: self.reply,
            bcast: None,
            fused: false,
        })
    }

    fn wait(&self, times: usize) -> Stmt {
        Stmt::DmaWait { reply: self.reply, times }
    }

    fn gemm(&self, sel: &AffineExpr) -> Stmt {
        let mat = |slot| MatDesc::new(slot, MatLayout::RowMajor, 8);
        Stmt::gemm(GemmOp {
            m: 64,
            n: 64,
            k: 64,
            alpha: 1.0,
            beta: 1.0,
            a: mat(self.slot(sel)),
            b: mat(SpmSlot::Single(self.b)),
            c: mat(SpmSlot::Single(self.c)),
            vd: VecDim::M,
            k_step: None,
        })
    }

    /// Get at `first`, wait, multiply, put, wait: one plain iteration.
    fn step(&self, first: AffineExpr, sel: &AffineExpr) -> Stmt {
        Stmt::seq(vec![
            self.get(first, 64, sel),
            self.wait(1),
            self.gemm(sel),
            self.put(),
            self.wait(1),
        ])
    }
}

/// `for i in 0..extent { body(kit, i) }` reading a `src_len`-element source.
fn adversarial(extent: usize, src_len: usize, body: impl Fn(&Kit, &AffineExpr) -> Stmt) -> Program {
    let mut p = Program::new("adversarial");
    let i = p.fresh_var("i");
    let kit = Kit::new(&mut p, src_len);
    p.set_body(Stmt::for_(i, extent, body(&kit, &AffineExpr::loop_var(i))));
    p
}

#[test]
fn adversarial_loops_match_the_plain_walk_or_fail_alike() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::default();
    let plain = |i: &AffineExpr| i.scale(64);
    // What each program must do: extrapolate, or never.
    let cases: Vec<(&str, Program, bool)> = vec![
        // Iterations 13 on take the other arm — one the shortcut would skip.
        (
            "a guard flips mid-loop",
            adversarial(40, 64 * 40 + 4096, |k, i| {
                let other = Stmt::seq(vec![k.get(plain(i), 32, i), k.wait(1), k.put(), k.wait(1)]);
                Stmt::seq(vec![
                    Stmt::if_else(Cond::lt_const(i.clone(), 13), k.step(plain(i), i), other),
                    k.gemm(i),
                ])
            }),
            true,
        ),
        (
            "an Eq guard holds at one interior iteration",
            adversarial(40, 64 * 40 + 4096, |k, i| {
                let extra = Stmt::seq(vec![k.put(), k.wait(1)]);
                Stmt::seq(vec![
                    k.step(plain(i), i),
                    Stmt::if_(Cond::Eq(i.clone(), AffineExpr::konst(17)), extra),
                ])
            }),
            true,
        ),
        // First-start residues of period 4, 8 and 32 (the parity's is 2).
        ("residue period 4", adversarial(40, 8 * 40 + 4096, |k, i| k.step(i.scale(8), i)), true),
        ("residue period 8", adversarial(40, 4 * 40 + 4096, |k, i| k.step(i.scale(4), i)), true),
        ("residue period 32", adversarial(140, 140 + 4096, |k, i| k.step(i.clone(), i)), true),
        // Two gets per iteration, one wait: the queue of completions grows,
        // so the state never recurs.
        (
            "a growing backlog",
            adversarial(40, 64 * 40 + 4096, |k, i| {
                let get = k.get(plain(i), 64, i);
                Stmt::seq(vec![get.clone(), get, k.wait(1), k.gemm(i)])
            }),
            false,
        ),
        // Iteration 37 of 40 reads one element past the source.
        (
            "out of bounds three iterations before the end",
            adversarial(40, 64 * 37 + 4096 - 1, |k, i| k.step(plain(i), i)),
            true,
        ),
        ("two iterations", adversarial(2, 64 * 2 + 4096, |k, i| k.step(plain(i), i)), false),
    ];
    for (name, program, extrapolates) in cases {
        let exe = plan(program, &cfg).expect("plans");
        let before = extrapolation_stats();
        let [fast, plain, functional] = three_ways(&cfg, &exe);
        let after = extrapolation_stats();
        assert_eq!(fast, plain, "{name}: the plain walk");
        assert_eq!(fast, functional, "{name}: Functional");
        assert_eq!(after.0 > before.0, extrapolates, "{name}: {before:?} → {after:?}");
        if name.starts_with("out of bounds") {
            assert!(matches!(fast, Err(MachineError::MainMemoryOutOfBounds { .. })), "{fast:?}");
        } else {
            assert!(fast.is_ok(), "{name}: {fast:?}");
        }
    }

    // Both levels of a nest extrapolate: the outer loop skips iterations,
    // so fewer than its 24 inner loops run, and those that run skip too.
    let mut p = Program::new("nest");
    let (o, i) = (p.fresh_var("o"), p.fresh_var("i"));
    let kit = Kit::new(&mut p, 2048 * 24 + 4096);
    let (vo, vi) = (AffineExpr::loop_var(o), AffineExpr::loop_var(i));
    let first = vo.scale(2048).add(&vi.scale(64));
    p.set_body(Stmt::for_(o, 24, Stmt::for_(i, 20, kit.step(first, &vo.add(&vi)))));
    let exe = plan(p, &cfg).expect("plans");
    let before = extrapolation_stats();
    let [fast, plain, functional] = three_ways(&cfg, &exe);
    let after = extrapolation_stats();
    let (skips, advances) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(fast, plain);
    assert_eq!(fast, functional);
    assert!((2..24).contains(&advances), "{advances} advances skipped {skips} iterations");
}

#[test]
fn extrapolation_fires_on_brute_force_spaces_and_never_under_faults_traces_or_functional() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let conv = ConvShape::square(8, 32, 32, 16);
    let spaces: [Box<dyn Operator>; 4] = [
        Box::new(ImplicitConvOp::new(conv)),
        Box::new(WinogradConvOp::new(conv)),
        Box::new(ExplicitConvOp::new(conv)),
        Box::new(MatmulOp::new(64, 64, 64)),
    ];
    let mut sampled = Vec::new();
    for op in spaces {
        let cands = sched.enumerate(op.as_ref());
        let before = extrapolation_stats();
        // Four per space: the candidates at thirds of matmul 64³ run no loop
        // long enough to extrapolate.
        for cand in cands.iter().step_by((cands.len() / 4) | 1) {
            let [fast, plain, _] = three_ways(&cfg, &cand.exe);
            assert_eq!(fast, plain, "{} at {}", op.name(), cand.describe);
            sampled.push(cand.exe.clone());
        }
        assert!(extrapolation_stats().0 > before.0, "{}: no loop extrapolated", op.name());
    }
    let walk = plan(residue_walk_of(130), &cfg).expect("plans");
    let before = extrapolation_stats();
    let [fast, plain, functional] = three_ways(&cfg, &walk);
    assert!(extrapolation_stats().0 > before.0, "residue_walk_of(130) did not extrapolate");
    assert_eq!((&fast, &fast), (&plain, &functional));

    // The plain walk stays where it must: the trace and Functional runs
    // above, and runs under a fault plan, skip nothing.
    let faulty = MachineConfig {
        fault: Some(FaultPlan {
            seed: 9,
            dma_fail_ppm: 1,
            spm_pressure_ppm: 0,
            spm_steal_max_permille: 0,
            jitter_permille: 0,
        }),
        ..MachineConfig::default()
    };
    sampled.push(walk);
    let before = extrapolation_stats();
    for exe in &sampled {
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        cg.trace = Trace::enabled(0);
        let binding = instantiate(&mut cg, exe);
        execute(&mut cg, exe, &binding).expect("traced run");
        let _ = run(&faulty, ExecMode::CostOnly, exe);
    }
    let _ = run(&cfg, ExecMode::Functional, &sampled[0]);
    assert_eq!(extrapolation_stats(), before, "a traced, faulted or Functional run extrapolated");
}

/// What `whole_space_sums_are_pinned` sums over every candidate of a space:
/// the cycles of its cost-only execution and six of the counters it feeds.
const SPACE_SUMS: [&str; 7] = [
    "cycles",
    "dma_bus_bytes",
    "dma_stall_cycles",
    "issue_p0",
    "dma_batches",
    "dma_waits",
    "kernel_calls",
];

/// The brute-force spaces of the benchmark's `exhaustive_ref` workload and
/// one paper-size `conv_net` space (VGG-16 layer 7, batch 32, spatial cap
/// 28: long loops, recorded from the plain tree walk), summed candidate by
/// candidate. Release-only (seconds; far longer in debug):
/// `cargo test --release --test evaluator_equiv -- --ignored`. Re-pinned
/// each time the knob census (`tests/knob_census.rs`) deleted knob values no
/// optimum held (last: `MatmulOp`'s `layout=rc|cc`): each new
/// sum equals, to the unit, the previous tree's sum over the candidates that
/// survived the deletion. Also re-pinned when the matmul body and implicit
/// conv's looped reduction stopped fetching the output tile they start:
/// `issue_p0` and `kernel_calls` stayed put, and Winograd's sums too. And
/// when chains of bulk transforms fused into one pass: only the cycles
/// moved, every counter stayed put. And when puts into scratch buffers
/// staged: cycles, bus bytes and stall cycles fell on the conv spaces,
/// every other counter stayed put, and the aligned matmul's output put
/// (into an output buffer, so never staged) left its sums alone. And when
/// the DMA ladder lost `dma=none`: each implicit and explicit sum equals the
/// previous tree's over its candidates at the other levels. And when
/// `MatmulOp`'s menu lost its levels without `dbuf` (ROADMAP 23(a)), in
/// the same change as sibling readers of one producer came to share one
/// pass: the matmul counters equal the previous tree's over the
/// `dbuf+bcast` and `all` candidates, and its cycles are 32 fewer than
/// theirs (6,678,027); only the cycles of the small implicit and Winograd
/// spaces moved besides. And when the Winograd input transform came to read
/// each input element once per band of tile rows and the output transform
/// only the real tiles: only the two Winograd spaces' cycles moved, down.
/// And when puts came to gather over the register bus where that is priced
/// cheaper: cycles, bus bytes and stall cycles fell on every space but the
/// VGG-16 implicit one, which stayed put, each space's cycles by exactly
/// its stall cycles; every other counter stayed put.
#[test]
#[ignore = "whole spaces: run in release"]
fn whole_space_sums_are_pinned() {
    let _turn = KERNEL_COST.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let conv = ConvShape::square(8, 32, 32, 16);
    let vgg7 = vgg16_layers()[7].shape(32, Some(28));
    let spaces: [(Box<dyn Operator>, [u64; 7]); 7] = [
        (
            Box::new(ImplicitConvOp::new(conv)),
            [1_243_428_218, 12_053_118_976, 867_590_906, 31_850_496, 494_592, 340_872, 387_072],
        ),
        (
            Box::new(WinogradConvOp::new(conv)),
            [69_061_682, 446_562_304, 13_632_362, 3_932_160, 47_616, 47_496, 55_552],
        ),
        (
            Box::new(ExplicitConvOp::new(conv)),
            [1_180_054_532, 9_932_505_088, 713_939_440, 61_931_520, 332_320, 258_912, 220_224],
        ),
        (
            Box::new(MatmulOp::new(64, 64, 64)),
            [5_148_971, 17_301_504, 2_866_507, 262_144, 3_732, 2_928, 2_160],
        ),
        (
            Box::new(ImplicitConvOp::new(vgg7)),
            [
                55_314_738_432,
                414_711_808_000,
                7_802_137_720,
                30_519_853_056,
                863_296,
                616_872,
                653_184,
            ],
        ),
        (
            Box::new(WinogradConvOp::new(vgg7)),
            [
                4_536_667_014,
                38_033_948_672,
                80_688_014,
                2_671_771_648,
                104_960,
                104_868,
                96_192,
            ],
        ),
        (
            Box::new(ExplicitConvOp::new(vgg7)),
            [
                2_636_358_223_975,
                30_448_229_023_744,
                1_658_673_363_543,
                388_434_493_440,
                397_010_544,
                299_020_344,
                293_970_600,
            ],
        ),
    ];
    for (op, want) in spaces {
        let mut got = [0u64; 7];
        for cand in &sched.enumerate(op.as_ref()) {
            let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
            let binding = instantiate(&mut cg, &cand.exe);
            let cycles = execute(&mut cg, &cand.exe, &binding).expect("candidate runs").get();
            let c = cg.counters;
            let run = [
                cycles,
                c.dma_bus_bytes,
                c.dma_stall_cycles,
                c.issue_p0,
                c.dma_batches,
                c.dma_waits,
                c.kernel_calls,
            ];
            for (sum, x) in got.iter_mut().zip(run) {
                *sum += x;
            }
        }
        assert_eq!(got, want, "{}: {SPACE_SUMS:?}", op.name());
    }
}
