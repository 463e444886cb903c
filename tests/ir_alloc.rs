//! What a candidate costs in heap allocations and bytes once programs are
//! shared handles (DESIGN.md §18) — counts, not timings. Alone in its test
//! binary: the counting allocator sees every allocation of the process, so
//! the tests take turns (`SERIAL`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;

use swatop_repro::sw26010::{DmaDirection, MachineConfig};
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::scheduler::Scheduler;
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::ir::{Stmt, TransformKind};

/// Allocations made and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Bytes requested by the allocations made and not yet freed.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Allocations made, freed or not.
static TOTAL: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish nothing.
// `realloc` is the default (alloc + copy + dealloc through these two), so
// it leaves the live count as it found it, moves the live bytes by the
// change in size and adds one to the total.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        TOTAL.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held for the whole of each test: one count at a time.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_gemm_space_holds_one_tree_and_at_most_45_allocations_per_candidate() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (sched, op) = (Scheduler::new(MachineConfig::default()), MatmulOp::new(256, 256, 256));
    let before = LIVE.load(Ordering::Relaxed);
    let (bytes_before, total_before) =
        (LIVE_BYTES.load(Ordering::Relaxed), TOTAL.load(Ordering::Relaxed));
    let cands = sched.enumerate(&op);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let held_bytes = LIVE_BYTES.load(Ordering::Relaxed) - bytes_before;
    let made = TOTAL.load(Ordering::Relaxed) - total_before;
    assert_eq!(cands.len(), 1_408);
    // 862,381 when each (coalesce, bcast) sibling ran the DMA-wall pipeline
    // from the lowered program; 647,981 once the chain copied one tree per
    // bcast sibling and coalesced once per structural point; 676,141 once
    // every GEMM node became a box of its own; 393,325 once expressions were
    // built in one allocation instead of a copy per added term, the passes
    // stopped collecting what they only count, the second DMA-wall chain
    // took the lowering instead of copying it and rejected points stopped
    // building a program; 304,686 once the bcast sibling stopped copying a
    // tree and shared the untagged `raw`, tagged when its executable is
    // built; 204,205 once buffer and loop names stopped owning a
    // `String` and an expression of up to four terms stopped owning a `Vec`;
    // 167,342 once `enumerate` advanced one point in place instead of
    // building a selection per index (36,864 of them); 119,946 once the
    // knob census deleted the knob values no optimum held (`bcast=false`,
    // `resident=a`: 17,408 → 7,424 candidates); 75,029 once `order` folded
    // into `resident` (4,352 candidates); 51,846 once `MatmulOp` dropped
    // its column-major B layouts (2,816 candidates); 50,444 once its levels
    // without `dbuf` left the menu (1,408 candidates: each had shared its
    // `dbuf` twin's `raw`, so halving the space saved little). A debug build also lowers
    // and runs the DMA-wall pipeline on every point on its own
    // (`check_shared`), so the count is a release-build one.
    println!("{made} allocations made by enumerate");
    assert!(cfg!(debug_assertions) || made <= 51_000, "{made} allocations made by enumerate");
    let per_candidate = held as f64 / cands.len() as f64;
    let inline = std::mem::size_of_val(&cands[0]);
    println!("{held} live allocations, {per_candidate:.1} per candidate of {inline} inline bytes");
    // 82 when every candidate owned two deep trees, 37 when it owned the
    // double-buffered one; no executable has been read yet, so none is built
    // and a candidate owns its description and a share of its group's `raw`
    // — whose tables its bcast sibling shares too (15.0 before that, 13.6
    // after). Boxing the GEMM node costs one allocation per GEMM per tree
    // (a 256³ tree holds 2.5 of them) and saves 120 bytes in every node of
    // every tree: the bytes gate below is what peak RSS follows. 14.9 until
    // the bcast sibling shared the tree as well as the tables: 9.8. 6.3 once
    // a tree's leaves own no heap: names are static strings and addresses
    // of up to four terms hold them inline. 10.6 once the census deleted
    // the `bcast=false` siblings, the ones that shared a tree: the per-
    // candidate ratio rose and the whole space's 109,889 live allocations
    // fell to 78,817, so the whole space is what is gated. 50,593 (11.6)
    // once `order` folded into `resident`; 35,617 (12.6) once `MatmulOp`
    // dropped `rc` and `cc`; 34,210 (24.3) once its levels without `dbuf`
    // left, each the sharer of its twin's tree.
    assert!(held <= 34_500, "{held} live allocations ({per_candidate:.1} per candidate)");
    // 4,345 while every node was as wide as a GEMM (256 bytes); 3,076 with
    // 136-byte nodes and no spare `Seq` slots; 1,949 with one tree per
    // (structural point, coalesce); 1,797 with leaves that own no heap
    // (31.3 MB for the space); 2,381 (17.7 MB) after the census deletions;
    // 2,916 (12.7 MB) once `order` folded into `resident`; 3,096 (8.7 MB)
    // once `MatmulOp` dropped `rc` and `cc`; 5,699 (8.0 MB) once its levels
    // without `dbuf` left.
    let bytes_per_candidate = held_bytes as f64 / cands.len() as f64;
    println!("{held_bytes} live bytes, {bytes_per_candidate:.0} per candidate");
    assert!(held_bytes <= 8_100_000, "{held_bytes} live bytes ({bytes_per_candidate:.0} each)");
    // Reading every executable builds every one: a `raw` and one executable
    // per candidate (tagging rewrites each), one estimate per candidate. One
    // tree per candidate while the untagged `bcast=false, dbuf=false`
    // sibling's executable was its group's `raw`; 1.5 once the census
    // deleted it (a `raw` per dbuf pair); 2 since the levels without `dbuf`
    // left the menu (ROADMAP 23(a)). 38.4 allocations per candidate while
    // names and addresses owned heap, 22.4 since, 29.6 without the
    // tree-sharing siblings, 31.4 (136,562 in all) once `order` folded into
    // `resident`, 29.5 (82,978) once `MatmulOp` dropped `rc` and `cc`, 42.9
    // (60,419) once its levels without `dbuf` left.
    let trees: std::collections::HashSet<usize> =
        cands.iter().flat_map(|c| [c.raw.part_addrs()[0], c.exe.program.part_addrs()[0]]).collect();
    assert!(trees.len() <= 2 * cands.len(), "{} distinct trees", trees.len());
    let built_total = LIVE.load(Ordering::Relaxed) - before;
    let built = built_total as f64 / cands.len() as f64;
    println!("{built_total} live allocations, {built:.1} per candidate, every executable built");
    assert!(built <= 45.0, "{built:.1} live allocations per built candidate");
    assert!(built_total <= 61_000, "{built_total} live allocations with every executable built");
    drop((cands, trees));
    let leaked = LIVE.load(Ordering::Relaxed) - before;
    assert!(leaked.abs() < 1_000, "{leaked} allocations outlive the candidate list");
}

#[test]
fn brute_force_hands_back_cycles_not_trees() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = MachineConfig::default();
    let (sched, op) = (Scheduler::new(cfg.clone()), MatmulOp::new(64, 64, 64));
    let opts = TuneOptions { jobs: 2, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
    // A first sweep over a list of its own fills the process-wide kernel
    // price tables, which outlive it.
    drop(tune(&cfg, &sched.enumerate(&op), &opts, None));
    let cands = sched.enumerate(&op);
    assert_eq!(cands.len(), 256);
    let before = LIVE.load(Ordering::Relaxed);
    let out = tune(&cfg, &cands, &opts, None).unwrap();
    let added = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(out.executed, cands.len());
    // 54,155 (17.6 per candidate, 3,072 candidates) while every measured candidate kept its
    // double-buffered tree; 3 since workers drop what they build: the
    // outcome's vectors of per-candidate reports and cycles, and its
    // convergence curve. The slack is the test harness, which may record the
    // other test's result meanwhile.
    println!("{added} live allocations added by an exhaustive tune of {}", cands.len());
    assert!(added <= 8, "{added} live allocations outlive the measurements");
}

#[test]
fn a_space_whose_puts_stage_costs_what_it_did_before_they_staged() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (sched, op) = (Scheduler::new(MachineConfig::default()), MatmulOp::new(100, 100, 100));
    let before = LIVE.load(Ordering::Relaxed);
    let (bytes_before, total_before) =
        (LIVE_BYTES.load(Ordering::Relaxed), TOTAL.load(Ordering::Relaxed));
    let cands = sched.enumerate(&op);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let held_bytes = LIVE_BYTES.load(Ordering::Relaxed) - bytes_before;
    let made = TOTAL.load(Ordering::Relaxed) - total_before;
    // The unaligned strips' puts into their scratch buffers stage.
    let scatter = |s: &Stmt| {
        matches!(s, Stmt::Transform(t) if matches!(t.kind,
            TransformKind::PackTiles { direction: DmaDirection::SpmToMem, .. }))
    };
    let staged = cands.iter().filter(|c| c.raw.body.count(scatter) > 0).count();
    println!("{staged} of {} candidates stage a put", cands.len());
    assert!(staged > 0);
    // Before puts staged: 24,898 allocations made, 18,253 live and
    // 4,704,848 live bytes; since, 25,246, 18,329 and 4,712,636; 24,880,
    // 17,966 and 4,537,104 once the levels without `dbuf` left. The
    // bounds leave about 1 % (a staging pass that copied every program's
    // tree or tables would pass 2 %). As above, the count made is a
    // release-build one.
    println!("{made} allocations made, {held} live, {held_bytes} live bytes");
    assert!(cfg!(debug_assertions) || made <= 25_500, "{made} allocations made by enumerate");
    assert!(held <= 18_500, "{held} live allocations");
    assert!(held_bytes <= 4_760_000, "{held_bytes} live bytes");
}
