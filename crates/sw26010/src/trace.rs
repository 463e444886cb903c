//! Execution trace: an optional, bounded event log for debugging generated
//! schedules and for asserting structural properties in tests (e.g. "the
//! double-buffered schedule issues the DMA for iteration i+1 before waiting
//! on iteration i").

use crate::clock::Cycles;
use crate::dma::DmaDirection;

/// One recorded machine event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A DMA batch was issued at `at`, completing at `done`.
    DmaIssue {
        at: Cycles,
        done: Cycles,
        direction: DmaDirection,
        payload_bytes: usize,
        bus_bytes: usize,
        tag: u32,
    },
    /// The compute stream waited for DMA tag `tag`; `stall` cycles were lost.
    DmaWait { at: Cycles, stall: Cycles, tag: u32 },
    /// A GEMM kernel executed.
    Gemm { at: Cycles, cycles: Cycles, m: usize, n: usize, k: usize },
    /// Scalar / auxiliary compute on the CPEs.
    Compute { at: Cycles, cycles: Cycles, what: &'static str },
    /// Register-communication traffic of a broadcast DMA batch: a get's
    /// scatter, serialised after the leader fetch completes, or a put's
    /// gather, serialised before the leader write starts.
    Regcomm { at: Cycles, cycles: Cycles, bytes: usize, direction: DmaDirection },
}

/// Bounded event trace. Disabled (zero-cost) by default.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<Event>,
    cap: usize,
    truncated: bool,
}

impl Trace {
    pub fn disabled() -> Self {
        Trace { enabled: false, events: Vec::new(), cap: 0, truncated: false }
    }

    pub fn enabled(cap: usize) -> Self {
        Trace { enabled: true, events: Vec::new(), cap, truncated: false }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn push(&mut self, e: Event) {
        if !self.enabled {
            return;
        }
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            // The bounded cap dropped this event: remember it, so consumers
            // (timeline builder, exporters) can flag the clipped window
            // instead of presenting a silently incomplete execution.
            self.truncated = true;
        }
    }

    /// Did the bounded cap drop any event? A truncated trace still holds
    /// the first `cap` events, but timelines built from it are incomplete.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events of each broad kind (issue, wait, gemm, compute).
    /// Regcomm events describe a slice of the DMA batch that produced
    /// them, not a new machine operation, so they are not counted here.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.events {
            match e {
                Event::DmaIssue { .. } => c.0 += 1,
                Event::DmaWait { .. } => c.1 += 1,
                Event::Gemm { .. } => c.2 += 1,
                Event::Compute { .. } => c.3 += 1,
                Event::Regcomm { .. } => {}
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.push(Event::Compute { at: Cycles(0), cycles: Cycles(1), what: "x" });
        assert!(t.events().is_empty());
    }

    #[test]
    fn bounded_capacity() {
        let mut t = Trace::enabled(2);
        for i in 0..5 {
            t.push(Event::Compute { at: Cycles(i), cycles: Cycles(1), what: "x" });
        }
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn truncation_is_flagged() {
        let mut t = Trace::enabled(1);
        t.push(Event::Compute { at: Cycles(0), cycles: Cycles(1), what: "x" });
        assert!(!t.truncated(), "within cap: not truncated");
        t.push(Event::Compute { at: Cycles(1), cycles: Cycles(1), what: "y" });
        assert!(t.truncated(), "over cap: flagged");
        assert_eq!(t.events().len(), 1, "dropped events stay dropped");
        // A disabled trace never truncates — it records nothing at all.
        let mut d = Trace::disabled();
        d.push(Event::Compute { at: Cycles(0), cycles: Cycles(1), what: "x" });
        assert!(!d.truncated());
    }

    #[test]
    fn stall_accounting() {
        let mut t = Trace::enabled(16);
        t.push(Event::DmaWait { at: Cycles(5), stall: Cycles(10), tag: 0 });
        t.push(Event::DmaWait { at: Cycles(9), stall: Cycles(7), tag: 1 });
        t.push(Event::Gemm { at: Cycles(0), cycles: Cycles(3), m: 1, n: 1, k: 1 });
        assert_eq!(t.counts(), (0, 2, 1, 0));
    }
}
