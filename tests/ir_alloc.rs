//! What a candidate costs in heap allocations once programs are shared
//! handles (DESIGN.md §18) — a count, not a timing. Alone in its test
//! binary: the counting allocator sees every allocation of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::scheduler::Scheduler;
use swatop_repro::swatop::tuner::screen_leaders;

/// Allocations made and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocations made, freed or not.
static TOTAL: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish nothing.
// `realloc` is the default (alloc + copy + dealloc through these two), so
// it leaves the live count as it found it and adds one to the total.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        TOTAL.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn a_gemm_space_holds_one_tree_and_at_most_45_allocations_per_candidate() {
    let (sched, op) = (Scheduler::new(MachineConfig::default()), MatmulOp::new(256, 256, 256));
    let (before, total_before) = (LIVE.load(Ordering::Relaxed), TOTAL.load(Ordering::Relaxed));
    let cands = sched.enumerate(&op);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let made = TOTAL.load(Ordering::Relaxed) - total_before;
    assert_eq!(cands.len(), 17_408);
    // 862,381 when each (coalesce, bcast) sibling ran the DMA-wall pipeline
    // from the lowered program; the chain copies one tree per bcast sibling
    // and coalesces once per structural point. A debug build also lowers
    // and optimizes every point on its own (`check_shared`), so the count
    // is a release-build one.
    println!("{made} allocations made by enumerate");
    assert!(cfg!(debug_assertions) || made <= 650_000, "{made} allocations made by enumerate");
    let per_candidate = held as f64 / cands.len() as f64;
    let inline = std::mem::size_of_val(&cands[0]);
    println!("{held} live allocations, {per_candidate:.1} per candidate of {inline} inline bytes");
    // 82 when every candidate owned two deep trees, 37 when it owned the
    // double-buffered one; no executable has been read yet, so none is built
    // and a candidate owns its description and a share of its group's `raw`
    // — whose tables its bcast sibling shares too (15.0 before that).
    assert!(per_candidate <= 14.0, "{per_candidate:.1} live allocations per candidate");
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
