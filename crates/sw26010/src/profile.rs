//! Cycle-resolved execution profile built from the bounded [`Trace`].
//!
//! The trace records raw machine events (DMA issues, waits, GEMMs, scalar
//! compute, regcomm scatters). This module folds that stream into a
//! **timeline**: per-engine busy intervals, a three-phase segmentation
//! (prologue / steady-state / epilogue, split at the first and last compute
//! event), and per-phase occupancy and overlap metrics. The timeline is the
//! substrate for the schedule profiler and diff tool in the `swatop` crates:
//! it answers *where inside the candidate* the cycles go, which the
//! aggregate machine counters cannot.
//!
//! Everything here is pure observation over an already-recorded trace —
//! building a timeline never touches machine state, and all derived numbers
//! are integer cycle counts (ratios are computed at render time), so the
//! exports are bit-deterministic.

use crate::json::{Value, Writer};
use crate::trace::{Event, Trace};

/// A half-open busy interval `[start, end)` in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

impl Interval {
    pub fn new(start: u64, end: u64) -> Self {
        Interval { start, end: end.max(start) }
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Cycles of this interval that fall inside `window`.
    pub fn clip(&self, window: Interval) -> u64 {
        let s = self.start.max(window.start);
        let e = self.end.min(window.end);
        e.saturating_sub(s)
    }
}

/// `[start, end]`.
impl Value for Interval {
    fn write_json(&self, w: &mut Writer) {
        w.begin_arr().value(self.start).value(self.end).end_arr();
    }
}

/// Sort raw intervals and merge overlapping/adjacent ones into a disjoint,
/// ascending cover. The per-engine busy cycles are the sum of the merged
/// lengths — double-counting concurrent DMA batches would overstate
/// occupancy.
fn merge(mut raw: Vec<Interval>) -> Vec<Interval> {
    raw.retain(|iv| !iv.is_empty());
    raw.sort_by_key(|iv| (iv.start, iv.end));
    let mut out: Vec<Interval> = Vec::with_capacity(raw.len());
    for iv in raw {
        match out.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => out.push(iv),
        }
    }
    out
}

/// Total cycles of `spans` (disjoint, merged) falling inside `window`.
fn busy_in(spans: &[Interval], window: Interval) -> u64 {
    spans.iter().map(|iv| iv.clip(window)).sum()
}

/// Cycles where both (merged, disjoint) span sets are busy at once, inside
/// `window`. Classic two-pointer sweep over sorted interval lists.
fn overlap_in(a: &[Interval], b: &[Interval], window: Interval) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let s = a[i].start.max(b[j].start).max(window.start);
        let e = a[i].end.min(b[j].end).min(window.end);
        total += e.saturating_sub(s);
        if a[i].end < b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The three schedule phases a pipelined candidate decomposes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Before the first compute event: initial DMA fills (pipeline ramp-up).
    Prologue,
    /// First compute start to last compute end: the pipelined main loop.
    Steady,
    /// After the last compute event: trailing write-backs (pipeline drain).
    Epilogue,
}

impl PhaseKind {
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Prologue => "prologue",
            PhaseKind::Steady => "steady",
            PhaseKind::Epilogue => "epilogue",
        }
    }
}

/// One phase of the timeline with its activity accounting.
#[derive(Debug, Clone)]
pub struct Phase {
    pub kind: PhaseKind,
    pub span: Interval,
    /// Cycles the DMA engine was busy inside this phase.
    pub dma_busy: u64,
    /// Cycles the compute stream (GEMM + scalar) was busy inside this phase.
    pub compute_busy: u64,
    /// Cycles the compute stream stalled on DMA waits inside this phase.
    pub stall: u64,
    /// Cycles spent in register-communication scatters inside this phase.
    pub regcomm: u64,
    /// Cycles where DMA and compute were busy simultaneously.
    pub overlap: u64,
}

impl Phase {
    pub fn cycles(&self) -> u64 {
        self.span.len()
    }

    /// Fraction of the phase the DMA engine was busy (0 for empty phases).
    pub fn dma_occupancy(&self) -> f64 {
        ratio(self.dma_busy, self.cycles())
    }

    /// Fraction of the phase the compute stream was busy.
    pub fn compute_occupancy(&self) -> f64 {
        ratio(self.compute_busy, self.cycles())
    }

    /// How much of the *hideable* traffic was actually hidden: overlap over
    /// the smaller of the two busy totals. 1.0 means the shorter stream ran
    /// entirely under the longer one.
    pub fn overlap_efficiency(&self) -> f64 {
        ratio(self.overlap, self.dma_busy.min(self.compute_busy))
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-engine activity timeline with phase segmentation, built from a
/// recorded [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Last cycle any engine was active (the profile's time horizon).
    pub total: u64,
    /// The source trace hit its bounded cap — this timeline is incomplete.
    pub truncated: bool,
    /// Number of events the timeline was built from.
    pub events: usize,
    /// Merged DMA-engine busy spans (issue → completion).
    pub dma: Vec<Interval>,
    /// Merged compute busy spans (GEMM + scalar compute).
    pub compute: Vec<Interval>,
    /// Merged compute-stream stall spans (DMA waits with non-zero loss).
    pub stall: Vec<Interval>,
    /// Merged register-communication scatter spans.
    pub regcomm: Vec<Interval>,
    /// Exactly three phases, in order prologue / steady / epilogue. Phases
    /// that do not occur (e.g. no compute events at all) have zero-length
    /// spans, so diffing two timelines can always align phase-by-phase.
    pub phases: Vec<Phase>,
}

impl Timeline {
    pub fn build(trace: &Trace) -> Timeline {
        let mut dma = Vec::new();
        let mut compute = Vec::new();
        let mut stall = Vec::new();
        let mut regcomm = Vec::new();
        for e in trace.events() {
            match *e {
                Event::DmaIssue { at, done, .. } => {
                    dma.push(Interval::new(at.get(), done.get()));
                }
                Event::Gemm { at, cycles, .. } | Event::Compute { at, cycles, .. } => {
                    compute.push(Interval::new(at.get(), at.get() + cycles.get()));
                }
                Event::DmaWait { at, stall: s, .. } => {
                    if s.get() > 0 {
                        stall.push(Interval::new(at.get(), at.get() + s.get()));
                    }
                }
                Event::Regcomm { at, cycles, .. } => {
                    regcomm.push(Interval::new(at.get(), at.get() + cycles.get()));
                }
            }
        }
        // Phase boundaries come from the *raw* compute events, before
        // merging, but merging preserves min-start/max-end so either works.
        let dma = merge(dma);
        let compute = merge(compute);
        let stall = merge(stall);
        let regcomm = merge(regcomm);
        let total = [&dma, &compute, &stall, &regcomm]
            .iter()
            .filter_map(|spans| spans.last().map(|iv| iv.end))
            .max()
            .unwrap_or(0);
        // Split at the first compute start and the last compute end. With no
        // compute at all, everything is prologue (a fill that never fed a
        // kernel); steady and epilogue collapse to zero length at `total`.
        let (fc, lc) = match (compute.first(), compute.last()) {
            (Some(f), Some(l)) => (f.start, l.end),
            _ => (total, total),
        };
        let windows = [
            (PhaseKind::Prologue, Interval::new(0, fc)),
            (PhaseKind::Steady, Interval::new(fc, lc)),
            (PhaseKind::Epilogue, Interval::new(lc, total)),
        ];
        let phases = windows
            .into_iter()
            .map(|(kind, span)| Phase {
                kind,
                span,
                dma_busy: busy_in(&dma, span),
                compute_busy: busy_in(&compute, span),
                stall: busy_in(&stall, span),
                regcomm: busy_in(&regcomm, span),
                overlap: overlap_in(&dma, &compute, span),
            })
            .collect();
        Timeline {
            total,
            truncated: trace.truncated(),
            events: trace.events().len(),
            dma,
            compute,
            stall,
            regcomm,
            phases,
        }
    }

    /// Total DMA-engine busy cycles across the whole timeline.
    pub fn dma_busy(&self) -> u64 {
        self.dma.iter().map(Interval::len).sum()
    }

    /// Total compute busy cycles across the whole timeline.
    pub fn compute_busy(&self) -> u64 {
        self.compute.iter().map(Interval::len).sum()
    }

    /// Total stall cycles across the whole timeline.
    pub fn stall_cycles(&self) -> u64 {
        self.stall.iter().map(Interval::len).sum()
    }

    /// Total regcomm scatter cycles across the whole timeline.
    pub fn regcomm_cycles(&self) -> u64 {
        self.regcomm.iter().map(Interval::len).sum()
    }

    /// Total DMA/compute overlap cycles across the whole timeline.
    pub fn overlap_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.overlap).sum()
    }

    /// Phase lookup by kind (the three phases always exist).
    pub fn phase(&self, kind: PhaseKind) -> &Phase {
        self.phases.iter().find(|p| p.kind == kind).expect("timeline always has 3 phases")
    }
}

impl Phase {
    /// The five busy-cycle fields, into the open object.
    pub fn write_busy(&self, w: &mut Writer) {
        w.field("dma_busy", self.dma_busy)
            .field("compute_busy", self.compute_busy)
            .field("stall", self.stall)
            .field("regcomm", self.regcomm)
            .field("overlap", self.overlap);
    }
}

impl Value for Timeline {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj()
            .field("total_cycles", self.total)
            .field("truncated", self.truncated)
            .field("events", self.events)
            .key("engines")
            .begin_obj();
        for (name, spans) in [
            ("dma", &self.dma),
            ("compute", &self.compute),
            ("stall", &self.stall),
            ("regcomm", &self.regcomm),
        ] {
            let busy: u64 = spans.iter().map(Interval::len).sum();
            w.key(name).begin_obj().field("busy_cycles", busy);
            w.field("intervals", spans.as_slice()).end_obj();
        }
        w.end_obj().key("phases").begin_arr();
        for p in &self.phases {
            w.begin_obj()
                .field("kind", p.kind.name())
                .field("start", p.span.start)
                .field("end", p.span.end)
                .field("cycles", p.cycles());
            p.write_busy(w);
            w.field("dma_occupancy", p.dma_occupancy())
                .field("compute_occupancy", p.compute_occupancy())
                .field("overlap_efficiency", p.overlap_efficiency())
                .end_obj();
        }
        w.end_arr().end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Cycles;
    use crate::dma::DmaDirection;
    use crate::json;

    fn issue(at: u64, done: u64) -> Event {
        Event::DmaIssue {
            at: Cycles(at),
            done: Cycles(done),
            direction: DmaDirection::MemToSpm,
            payload_bytes: 64,
            bus_bytes: 128,
            tag: 0,
        }
    }

    fn gemm(at: u64, cycles: u64) -> Event {
        Event::Gemm { at: Cycles(at), cycles: Cycles(cycles), m: 8, n: 8, k: 8 }
    }

    #[test]
    fn merge_coalesces_overlaps() {
        let m = merge(vec![
            Interval::new(10, 20),
            Interval::new(0, 5),
            Interval::new(18, 30),
            Interval::new(30, 31),
            Interval::new(40, 40), // empty, dropped
        ]);
        assert_eq!(m, vec![Interval::new(0, 5), Interval::new(10, 31)]);
    }

    #[test]
    fn overlap_sweep_matches_hand_count() {
        let a = vec![Interval::new(0, 10), Interval::new(20, 30)];
        let b = vec![Interval::new(5, 25)];
        let w = Interval::new(0, 100);
        assert_eq!(overlap_in(&a, &b, w), 5 + 5);
        // Clipped window cuts both sides.
        assert_eq!(overlap_in(&a, &b, Interval::new(6, 22)), 4 + 2);
    }

    #[test]
    fn phases_partition_the_timeline() {
        let mut t = Trace::enabled(64);
        t.push(issue(0, 100)); // prologue fill
        t.push(gemm(100, 50));
        t.push(issue(110, 180)); // overlapped fetch
        t.push(Event::DmaWait { at: Cycles(150), stall: Cycles(30), tag: 1 });
        t.push(gemm(180, 40));
        t.push(issue(220, 300)); // epilogue write-back
        let tl = Timeline::build(&t);
        assert_eq!(tl.total, 300);
        assert!(!tl.truncated);
        assert_eq!(tl.phases.len(), 3);
        let pro = tl.phase(PhaseKind::Prologue);
        let std = tl.phase(PhaseKind::Steady);
        let epi = tl.phase(PhaseKind::Epilogue);
        assert_eq!((pro.span.start, pro.span.end), (0, 100));
        assert_eq!((std.span.start, std.span.end), (100, 220));
        assert_eq!((epi.span.start, epi.span.end), (220, 300));
        // The three phases cover [0, total] with no gaps.
        assert_eq!(pro.cycles() + std.cycles() + epi.cycles(), tl.total);
        assert_eq!(pro.dma_busy, 100);
        assert_eq!(std.compute_busy, 90);
        assert_eq!(std.stall, 30);
        // Steady-state overlap: dma [110,180) vs compute [100,150)+[180,220)
        // → [110,150) = 40 cycles.
        assert_eq!(std.overlap, 40);
        assert_eq!(epi.dma_busy, 80);
        assert_eq!(epi.compute_busy, 0);
    }

    #[test]
    fn no_compute_means_everything_is_prologue() {
        let mut t = Trace::enabled(8);
        t.push(issue(0, 50));
        let tl = Timeline::build(&t);
        assert_eq!(tl.phase(PhaseKind::Prologue).cycles(), 50);
        assert_eq!(tl.phase(PhaseKind::Steady).cycles(), 0);
        assert_eq!(tl.phase(PhaseKind::Epilogue).cycles(), 0);
    }

    #[test]
    fn empty_trace_builds_empty_timeline() {
        let tl = Timeline::build(&Trace::enabled(8));
        assert_eq!(tl.total, 0);
        assert_eq!(tl.phases.len(), 3);
        assert!(json::to_string(&tl).contains("\"total_cycles\":0"));
    }

    #[test]
    fn truncation_propagates_into_exports() {
        let mut t = Trace::enabled(1);
        t.push(gemm(0, 10));
        t.push(gemm(10, 10)); // dropped: sets the flag
        let tl = Timeline::build(&t);
        assert!(tl.truncated);
        assert!(json::to_string(&tl).contains("\"truncated\":true"));
    }

    #[test]
    fn json_is_deterministic() {
        let mut t = Trace::enabled(64);
        t.push(issue(0, 100));
        t.push(gemm(100, 50));
        let a = json::to_string(Timeline::build(&t));
        let b = json::to_string(Timeline::build(&t));
        assert_eq!(a, b);
    }

    #[test]
    fn regcomm_events_land_on_their_own_engine() {
        let mut t = Trace::enabled(8);
        t.push(issue(0, 100));
        t.push(Event::Regcomm { at: Cycles(80), cycles: Cycles(20), bytes: 1024 });
        t.push(gemm(100, 10));
        let tl = Timeline::build(&t);
        assert_eq!(tl.regcomm_cycles(), 20);
        assert_eq!(tl.phase(PhaseKind::Prologue).regcomm, 20);
    }
}
