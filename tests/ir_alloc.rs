//! What a candidate costs in heap allocations and bytes once programs are
//! shared handles (DESIGN.md §18) — counts, not timings. Alone in its test
//! binary: the counting allocator sees every allocation of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::scheduler::Scheduler;
use swatop_repro::swatop::tuner::screen_leaders;

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

#[test]
fn a_gemm_space_holds_one_tree_and_at_most_45_allocations_per_candidate() {
    let (sched, op) = (Scheduler::new(MachineConfig::default()), MatmulOp::new(256, 256, 256));
    let before = LIVE.load(Ordering::Relaxed);
    let (bytes_before, total_before) =
        (LIVE_BYTES.load(Ordering::Relaxed), TOTAL.load(Ordering::Relaxed));
    let cands = sched.enumerate(&op);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let held_bytes = LIVE_BYTES.load(Ordering::Relaxed) - bytes_before;
    let made = TOTAL.load(Ordering::Relaxed) - total_before;
    assert_eq!(cands.len(), 17_408);
    // 862,381 when each (coalesce, bcast) sibling ran the DMA-wall pipeline
    // from the lowered program; 647,981 once the chain copied one tree per
    // bcast sibling and coalesced once per structural point; 676,141 once
    // every GEMM node became a box of its own; 393,325 once expressions were
    // built in one allocation instead of a copy per added term, the passes
    // stopped collecting what they only count, the second DMA-wall chain
    // took the lowering instead of copying it and rejected points stopped
    // building a program. A debug build also lowers and optimizes every
    // point on its own (`check_shared`), so the count is a release-build one.
    println!("{made} allocations made by enumerate");
    assert!(cfg!(debug_assertions) || made <= 394_000, "{made} allocations made by enumerate");
    let per_candidate = held as f64 / cands.len() as f64;
    let inline = std::mem::size_of_val(&cands[0]);
    println!("{held} live allocations, {per_candidate:.1} per candidate of {inline} inline bytes");
    // 82 when every candidate owned two deep trees, 37 when it owned the
    // double-buffered one; no executable has been read yet, so none is built
    // and a candidate owns its description and a share of its group's `raw`
    // — whose tables its bcast sibling shares too (15.0 before that, 13.6
    // after). Boxing the GEMM node costs one allocation per GEMM per tree
    // (a 256³ tree holds 2.5 of them) and saves 120 bytes in every node of
    // every tree: the bytes gate below is what peak RSS follows.
    assert!(per_candidate <= 14.9, "{per_candidate:.1} live allocations per candidate");
    // 4,345 while every node was as wide as a GEMM (256 bytes); 3,076 with
    // 136-byte nodes and no spare `Seq` slots.
    let bytes_per_candidate = held_bytes as f64 / cands.len() as f64;
    println!("{held_bytes} live bytes, {bytes_per_candidate:.0} per candidate");
    assert!(bytes_per_candidate <= 3_100.0, "{bytes_per_candidate:.0} live bytes per candidate");
    // Reading every executable builds every one: one tree per candidate
    // instead of two, one estimate per dbuf pair.
    let trees: std::collections::HashSet<usize> =
        cands.iter().flat_map(|c| [c.raw.part_addrs()[0], c.exe.program.part_addrs()[0]]).collect();
    assert!(trees.len() <= cands.len(), "{} distinct trees", trees.len());
    let built = (LIVE.load(Ordering::Relaxed) - before) as f64 / cands.len() as f64;
    println!("{built:.1} live allocations per candidate with every executable built");
    assert!(built <= 45.0, "{built:.1} live allocations per built candidate");
    assert_eq!(screen_leaders(&cands).0.len(), 8_704);
    drop((cands, trees));
    let leaked = LIVE.load(Ordering::Relaxed) - before;
    assert!(leaked.abs() < 1_000, "{leaked} allocations outlive the candidate list");
}
