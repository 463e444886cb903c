//! Lock-light broadcast bus for live sweep lifecycle events.
//!
//! The recorder in [`crate::telemetry`] is *post-hoc*: spans are folded
//! into reports after the run finishes. This bus is the live counterpart —
//! the tuner engine, the worker pool and the sweep harnesses publish typed
//! [`Event`]s as they happen, and any number of subscribers (a progress
//! printer, a `/metrics` endpoint, a flight-report accountant) drain them
//! concurrently. Design constraints, in order:
//!
//! * **Zero-cost when nobody listens.** [`EventBus::emit_with`] takes a
//!   closure and checks a relaxed atomic subscriber count before building
//!   the event: with no subscriber the cost is one load, no allocation, no
//!   lock. A tuning run with `bus: None` in its options never even pays
//!   that load.
//! * **Bounded, never blocking.** Each subscriber owns a bounded ring;
//!   when a slow consumer falls behind, the *oldest* events are dropped
//!   (latest-wins) and counted. Publishers never wait, so the bus can sit
//!   inside the measurement loop without perturbing walls more than a
//!   mutex push.
//! * **Report-only determinism.** Events describe tuning decisions; they
//!   never feed them. Lifecycle events carry only simulation-derived
//!   payloads and expose a [`Event::deterministic_key`] that is identical
//!   (as a multiset) for every `--jobs` value; host-timing events
//!   (heartbeats, stalls, cache ticks) return `None` there and are
//!   excluded from cross-run comparisons.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// A typed sweep lifecycle event. Variants that describe *what the tuner
/// decided* are deterministic in content; variants that describe *how the
/// host behaved* (heartbeats, stalls, cache ticks) are not — see
/// [`Event::deterministic_key`].
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
    /// The engine started measuring a wave of `size` pending candidates.
    WaveStart { size: usize },
    /// The wave finished; counts cover only the wave's own candidates.
    WaveEnd { measured: usize, failed: usize },
    /// One candidate's measurement completed (successfully or not).
    CandidateMeasured {
        /// Stable input index of the candidate.
        index: usize,
        /// Median measured cycles; `None` when the candidate failed.
        cycles: Option<u64>,
        /// Transient retries the measurement consumed.
        retries: u32,
        /// Worker that ran it — scheduling-dependent, excluded from the
        /// deterministic key.
        worker: usize,
    },
    /// A prospective winner was rejected by the validator.
    Quarantined { index: usize, reason: String },
    /// Shared evaluation-cache counters at a wave boundary. Process-global
    /// and order-dependent under concurrency: host-timing, not lifecycle.
    /// The kernel figures count cost *queries* — one per static `Gemm` node
    /// per interpreted run — not executed kernel calls.
    MemoTick {
        kernel_hits: u64,
        kernel_misses: u64,
        memo_hits: u64,
        memo_misses: u64,
    },
    /// A checkpoint file was written with `done` of `total` cells settled.
    CheckpointSaved { done: usize, total: usize },
    /// Periodic per-worker liveness sample from the pool monitor.
    Heartbeat {
        worker: usize,
        /// Items the worker has finished so far.
        items: u64,
        /// Milliseconds since the worker last finished an item (0 while
        /// idle before its first claim).
        idle_ms: u64,
    },
    /// The stall watchdog flagged a wedged worker/candidate. Report-only:
    /// the measurement keeps running.
    StallFlagged {
        worker: usize,
        /// Input index of the stuck candidate.
        index: usize,
        /// Span path of the stuck work: `operator-context / candidate
        /// knobs`.
        path: String,
        stalled_ms: u64,
    },
}

impl Event {
    /// Canonical content key for cross-run comparison, or `None` for
    /// host-timing events. The key of a lifecycle event is a pure function
    /// of tuning decisions (never of worker ids or wall time), so the
    /// *multiset* of keys emitted by a run is identical for every `--jobs`
    /// value — the property the determinism tests assert.
    pub fn deterministic_key(&self) -> Option<String> {
        match self {
            Event::SweepStart { label } => Some(format!("sweep-start {label}")),
            Event::SweepEnd { label } => Some(format!("sweep-end {label}")),
            Event::OperatorStart { label, candidates } => {
                Some(format!("op-start {label} cands={candidates}"))
            }
            Event::OperatorEnd { label, best_cycles, executed, quarantined } => Some(format!(
                "op-end {label} best={best_cycles:?} executed={executed} \
                 quarantined={quarantined}"
            )),
            Event::WaveStart { size } => Some(format!("wave-start {size}")),
            Event::WaveEnd { measured, failed } => {
                Some(format!("wave-end measured={measured} failed={failed}"))
            }
            Event::CandidateMeasured { index, cycles, retries, .. } => {
                Some(format!("cand {index} cycles={cycles:?} retries={retries}"))
            }
            Event::Quarantined { index, reason } => {
                Some(format!("quarantine {index} {reason}"))
            }
            Event::CheckpointSaved { done, total } => {
                Some(format!("checkpoint {done}/{total}"))
            }
            Event::MemoTick { .. } | Event::Heartbeat { .. } | Event::StallFlagged { .. } => None,
        }
    }
}

/// One subscriber's bounded mailbox.
struct Mailbox {
    ring: Mutex<VecDeque<Event>>,
    cap: usize,
    /// Events delivered to this mailbox (including later-dropped ones).
    received: AtomicU64,
    /// Events evicted because the consumer fell behind the ring capacity.
    dropped: AtomicU64,
}

impl Mailbox {
    fn push(&self, e: Event) {
        self.received.fetch_add(1, Ordering::Relaxed);
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
            received: AtomicU64::new(0),
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
        f.debug_struct("Subscriber")
            .field("received", &self.received())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Subscriber {
    /// Take every buffered event, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        let mut ring = self.mailbox.ring.lock();
        ring.drain(..).collect()
    }

    /// Events delivered to this subscriber so far (including any that were
    /// later evicted from the ring).
    pub fn received(&self) -> u64 {
        self.mailbox.received.load(Ordering::Relaxed)
    }

    /// Events this subscriber lost to ring overflow. Anything non-zero
    /// means drained data is a *sample*, not the full stream — exporters
    /// surface this count instead of implying completeness.
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
        for size in [1usize, 2, 3] {
            bus.emit_with(|| Event::WaveStart { size });
        }
        for sub in [&a, &b] {
            let sizes: Vec<usize> = sub
                .drain()
                .iter()
                .map(|e| match e {
                    Event::WaveStart { size } => *size,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(sizes, vec![1, 2, 3]);
            assert_eq!(sub.received(), 3);
            assert_eq!(sub.dropped(), 0);
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let bus = EventBus::new();
        let sub = bus.subscribe(4);
        for size in 0..10usize {
            bus.emit(Event::WaveStart { size });
        }
        let kept: Vec<usize> = sub
            .drain()
            .iter()
            .map(|e| match e {
                Event::WaveStart { size } => *size,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Latest-wins: the newest 4 survive, the oldest 6 are counted out.
        assert_eq!(kept, vec![6, 7, 8, 9]);
        assert_eq!(sub.received(), 10);
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
    fn deterministic_keys_exclude_host_timing() {
        let lifecycle = Event::CandidateMeasured { index: 7, cycles: Some(42), retries: 1, worker: 3 };
        let key = lifecycle.deterministic_key().unwrap();
        assert!(key.contains('7') && key.contains("42"), "{key}");
        // The worker id is scheduling noise and must not leak into the key.
        let other_worker =
            Event::CandidateMeasured { index: 7, cycles: Some(42), retries: 1, worker: 0 };
        assert_eq!(other_worker.deterministic_key().unwrap(), key);
        for host in [
            Event::Heartbeat { worker: 0, items: 1, idle_ms: 5 },
            Event::StallFlagged { worker: 0, index: 1, path: "x".into(), stalled_ms: 9 },
            Event::MemoTick { kernel_hits: 1, kernel_misses: 2, memo_hits: 3, memo_misses: 4 },
        ] {
            assert!(host.deterministic_key().is_none(), "{host:?}");
        }
    }
}
