//! Lock-light broadcast bus for live sweep lifecycle events.
//!
//! The recorder in [`crate::telemetry`] is *post-hoc*: spans are folded
//! into reports after the run finishes. This bus is the live counterpart —
//! the tuner engine and the sweep harnesses publish typed [`Event`]s as
//! they happen, and any number of subscribers (the CLI's progress printer,
//! a benchmark harness) drain them concurrently. This module is the one
//! home of the event vocabulary: the variants and their one rendering
//! ([`Event::progress_line`]) — adding or deleting an event is an edit to
//! this file only. Design constraints, in order:
//!
//! * **Zero-cost when nobody listens.** [`EventBus::emit_with`] takes a
//!   closure and checks a relaxed atomic subscriber count before building
//!   the event: with no subscriber the cost is one load, no allocation, no
//!   lock. A tuning run with `bus: None` in its options never even pays
//!   that load.
//! * **Bounded, never blocking.** Each subscriber owns a bounded ring;
//!   when a slow consumer falls behind, the *oldest* events are dropped
//!   (latest-wins) and counted ([`Subscriber::dropped`]). Publishers never
//!   wait, so the bus can sit inside the measurement loop without
//!   perturbing walls more than a mutex push.
//! * **Report-only determinism.** Events describe tuning decisions; they
//!   never feed them. Every event is a pure function of those decisions
//!   (no worker ids, no host timing), so the *multiset* of progress lines
//!   a run emits is identical for every `--jobs` value.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// A typed sweep lifecycle event: what the tuner decided, never how the
/// host behaved.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A multi-operator sweep began.
    SweepStart { label: String },
    /// The sweep finished.
    SweepEnd { label: String },
    /// Tuning of one operator began over `candidates` enumerated schedules.
    OperatorStart { label: String, candidates: usize },
    /// Tuning of one operator finished.
    OperatorEnd {
        label: String,
        /// Winning-schedule cycles (`None` when nothing measured).
        best_cycles: Option<u64>,
        /// Candidates actually executed on the scoreboard.
        executed: usize,
        /// Prospective winners quarantined by validation.
        quarantined: usize,
    },
    /// A prospective winner was rejected by the validator.
    Quarantined { index: usize, reason: String },
    /// A checkpoint file was written with `done` of `total` cells settled.
    CheckpointSaved { done: usize, total: usize },
}

impl Event {
    /// The console line for this event. It is a pure function of tuning
    /// decisions, so it is also the event's cross-run key: the multiset of
    /// a run's lines is the same for every `--jobs` value.
    pub fn progress_line(&self) -> String {
        match self {
            Event::SweepStart { label } => format!("sweep start: {label}"),
            Event::SweepEnd { label } => format!("sweep done : {label}"),
            Event::OperatorStart { label, candidates } => {
                format!("tuning {label} ({candidates} candidates)")
            }
            Event::OperatorEnd { label, best_cycles: Some(c), executed, quarantined } => format!(
                "tuned {label}: best {c} cycles ({executed} executed, {quarantined} quarantined)"
            ),
            Event::OperatorEnd { label, best_cycles: None, executed, .. } => {
                format!("tuned {label}: no winner ({executed} executed)")
            }
            Event::Quarantined { index, reason } => {
                format!("quarantined candidate {index}: {reason}")
            }
            Event::CheckpointSaved { done, total } => {
                format!("checkpoint: {done}/{total} candidates settled")
            }
        }
    }
}

/// One subscriber's bounded mailbox.
struct Mailbox {
    ring: Mutex<VecDeque<Event>>,
    cap: usize,
    /// Events evicted because the consumer fell behind the ring capacity.
    dropped: AtomicU64,
}

impl Mailbox {
    fn push(&self, e: Event) {
        let mut ring = self.ring.lock();
        if ring.len() >= self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(e);
    }
}

struct BusInner {
    subs: Mutex<Vec<Arc<Mailbox>>>,
    /// Live subscriber count, mirrored outside the lock so the no-listener
    /// fast path of [`EventBus::emit_with`] is a single relaxed load.
    active: AtomicUsize,
}

/// Broadcast handle; cloning shares the bus. `Default` builds an empty bus
/// with no subscribers.
#[derive(Clone)]
pub struct EventBus {
    inner: Arc<BusInner>,
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.inner.active.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventBus {
    pub fn new() -> EventBus {
        EventBus {
            inner: Arc::new(BusInner { subs: Mutex::new(Vec::new()), active: AtomicUsize::new(0) }),
        }
    }

    /// Attach a subscriber with a ring of `cap` events (clamped to at
    /// least 1). Dropping the returned handle detaches it; when the last
    /// subscriber detaches, emission returns to the single-load fast path.
    pub fn subscribe(&self, cap: usize) -> Subscriber {
        let mailbox = Arc::new(Mailbox {
            ring: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            dropped: AtomicU64::new(0),
        });
        self.inner.subs.lock().push(Arc::clone(&mailbox));
        self.inner.active.fetch_add(1, Ordering::Relaxed);
        Subscriber { mailbox, bus: Arc::downgrade(&self.inner) }
    }

    /// Number of live subscribers.
    pub fn subscribers(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Publish the event built by `f` to every subscriber. With no
    /// subscriber, `f` is never called and the cost is one relaxed load.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> Event) {
        if self.inner.active.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.emit(f());
    }

    /// Publish an already-built event (use [`EventBus::emit_with`] on hot
    /// paths so construction is skipped when nobody listens).
    pub fn emit(&self, e: Event) {
        let subs = self.inner.subs.lock();
        let Some((last, rest)) = subs.split_last() else { return };
        for s in rest {
            s.push(e.clone());
        }
        last.push(e);
    }
}

/// Receiving end of one bus subscription. Dropping it detaches from the
/// bus (publishers stop paying for it).
pub struct Subscriber {
    mailbox: Arc<Mailbox>,
    bus: Weak<BusInner>,
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber").field("dropped", &self.dropped()).finish()
    }
}

impl Subscriber {
    /// Take every buffered event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        let mut ring = self.mailbox.ring.lock();
        ring.drain(..).collect()
    }

    /// Events this subscriber lost to ring overflow. Anything non-zero
    /// means drained data is a *sample*, not the full stream — a reader
    /// states this count instead of implying completeness.
    pub fn dropped(&self) -> u64 {
        self.mailbox.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        if let Some(inner) = self.bus.upgrade() {
            inner.subs.lock().retain(|s| !Arc::ptr_eq(s, &self.mailbox));
            inner.active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An event that carries a number.
    fn nth(n: usize) -> Event {
        Event::CheckpointSaved { done: n, total: 10 }
    }

    /// The numbers of drained [`nth`] events, in order.
    fn numbers(sub: &Subscriber) -> Vec<usize> {
        sub.drain()
            .iter()
            .map(|e| match e {
                Event::CheckpointSaved { done, .. } => *done,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn no_subscriber_never_builds_the_event() {
        let bus = EventBus::new();
        // The closure panics if called; with no subscriber it must not be.
        bus.emit_with(|| panic!("event built with no subscriber"));
        assert_eq!(bus.subscribers(), 0);
    }

    #[test]
    fn events_broadcast_to_every_subscriber_in_order() {
        let bus = EventBus::new();
        let a = bus.subscribe(16);
        let b = bus.subscribe(16);
        for n in [1usize, 2, 3] {
            bus.emit_with(|| nth(n));
        }
        for sub in [&a, &b] {
            assert_eq!(numbers(sub), vec![1, 2, 3]);
            assert_eq!(sub.dropped(), 0);
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let bus = EventBus::new();
        let sub = bus.subscribe(4);
        for n in 0..10usize {
            bus.emit(nth(n));
        }
        // Latest-wins: the newest 4 survive, the oldest 6 are counted out.
        assert_eq!(numbers(&sub), vec![6, 7, 8, 9]);
        assert_eq!(sub.dropped(), 6);
    }

    #[test]
    fn dropping_the_subscriber_detaches_it() {
        let bus = EventBus::new();
        let sub = bus.subscribe(4);
        assert_eq!(bus.subscribers(), 1);
        drop(sub);
        assert_eq!(bus.subscribers(), 0);
        bus.emit_with(|| panic!("no live subscriber"));
    }

    #[test]
    fn progress_lines_name_every_decision() {
        let end = |best_cycles| Event::OperatorEnd {
            label: "gemm".into(),
            best_cycles,
            executed: 3,
            quarantined: 0,
        };
        assert_eq!(
            end(Some(7)).progress_line(),
            "tuned gemm: best 7 cycles (3 executed, 0 quarantined)"
        );
        assert_eq!(end(None).progress_line(), "tuned gemm: no winner (3 executed)");
        assert_eq!(nth(2).progress_line(), "checkpoint: 2/10 candidates settled");
    }
}
