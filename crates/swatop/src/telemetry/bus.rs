//! Lock-light broadcast bus for live sweep lifecycle events.
//!
//! The recorder in [`crate::telemetry`] is *post-hoc*: spans are folded
//! into reports after the run finishes. This bus is the live counterpart —
//! the tuner engine, the worker pool and the sweep harnesses publish typed
//! [`Event`]s as they happen, and any number of subscribers (a progress
//! printer, the [`MetricsHub`](crate::telemetry::metrics::MetricsHub) behind
//! `/metrics` and the flight report) drain them concurrently. This module is
//! the one home of the event vocabulary: the variants, their cross-run key
//! ([`Event::deterministic_key`]), their console line
//! ([`Event::progress_line`]) and the one accounting [`Fold`] every report
//! renders from — adding or deleting an event is an edit to this file only.
//! Design constraints, in order:
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
//!   (as a multiset) for every `--jobs` value; the one host-timing event
//!   (a flagged stall) returns `None` there and is excluded from cross-run
//!   comparisons.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// A typed sweep lifecycle event. Variants that describe *what the tuner
/// decided* are deterministic in content; the variant that describes *how
/// the host behaved* (a flagged stall) is not — see
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
    /// A checkpoint file was written with `done` of `total` cells settled.
    CheckpointSaved { done: usize, total: usize },
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
            Event::StallFlagged { .. } => None,
        }
    }

    /// Human progress line for the console, or `None` for per-candidate and
    /// per-wave volume the console shouldn't scroll through.
    pub fn progress_line(&self) -> Option<String> {
        match self {
            Event::SweepStart { label } => Some(format!("sweep start: {label}")),
            Event::SweepEnd { label } => Some(format!("sweep done : {label}")),
            Event::OperatorStart { label, candidates } => {
                Some(format!("tuning {label} ({candidates} candidates)"))
            }
            Event::OperatorEnd { label, best_cycles: Some(c), executed, quarantined } => {
                Some(format!(
                    "tuned {label}: best {c} cycles ({executed} executed, \
                     {quarantined} quarantined)"
                ))
            }
            Event::OperatorEnd { label, best_cycles: None, executed, .. } => {
                Some(format!("tuned {label}: no winner ({executed} executed)"))
            }
            Event::Quarantined { index, reason } => {
                Some(format!("quarantined candidate {index}: {reason}"))
            }
            Event::CheckpointSaved { done, total } => {
                Some(format!("checkpoint: {done}/{total} candidates settled"))
            }
            Event::StallFlagged { worker, index, path, stalled_ms } => Some(format!(
                "watchdog: worker {worker} stalled {stalled_ms} ms on candidate {index} ({path})"
            )),
            Event::WaveStart { .. } | Event::WaveEnd { .. } | Event::CandidateMeasured { .. } => {
                None
            }
        }
    }
}

/// One operator's lifecycle as the [`Fold`] saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorFold {
    pub label: String,
    /// Enumerated candidates, from the start event.
    pub candidates: usize,
    /// Candidates measured while this operator was the one in flight.
    pub measured: u64,
    /// `(best cycles, executed, quarantined)` from the end event; `None`
    /// while the operator is in flight.
    pub end: Option<(Option<u64>, usize, usize)>,
}

/// The accounting of one event stream: what `/metrics`, the flight report
/// and anything else that counts events reads. There is one fold, so two
/// reports of one run cannot disagree.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    /// Sweep labels seen (start events).
    pub sweeps: Vec<String>,
    /// Operators in start order.
    pub operators: Vec<OperatorFold>,
    /// Candidates whose measurement completed (success + failure).
    pub measured: u64,
    /// Candidates that failed terminally or panicked.
    pub failed: u64,
    /// Transient retries consumed across all measurements.
    pub retries: u64,
    /// Quarantined winners: `(candidate index, reason)`.
    pub quarantines: Vec<(usize, String)>,
    /// Watchdog flags: `(worker, span path, stalled ms)`.
    pub stalls: Vec<(usize, String, u64)>,
    /// Scoreboard waves dispatched.
    pub waves: u64,
    /// Checkpoint files written.
    pub checkpoints: u64,
}

impl Fold {
    /// Fold one bus event into the accounting.
    pub fn fold(&mut self, e: Event) {
        match e {
            Event::SweepStart { label } => self.sweeps.push(label),
            Event::SweepEnd { .. } => {}
            Event::OperatorStart { label, candidates } => {
                self.operators.push(OperatorFold { label, candidates, measured: 0, end: None });
            }
            Event::OperatorEnd { label, best_cycles, executed, quarantined } => {
                // The most recent unfinished start with this label (the auto
                // method tunes several ops with distinct labels).
                let open = |o: &&mut OperatorFold| o.label == label && o.end.is_none();
                if let Some(op) = self.operators.iter_mut().rev().find(open) {
                    op.end = Some((best_cycles, executed, quarantined));
                }
            }
            Event::WaveStart { .. } => self.waves += 1,
            // The one place a failure is counted: `WaveEnd` covers both a
            // failed measurement (which also arrives as `CandidateMeasured
            // { cycles: None }`) and a panicked item (which does not).
            Event::WaveEnd { failed, .. } => self.failed += failed as u64,
            Event::CandidateMeasured { retries, .. } => {
                self.measured += 1;
                self.retries += u64::from(retries);
                if let Some(op) = self.operators.iter_mut().rev().find(|o| o.end.is_none()) {
                    op.measured += 1;
                }
            }
            Event::Quarantined { index, reason } => self.quarantines.push((index, reason)),
            Event::CheckpointSaved { .. } => self.checkpoints += 1,
            Event::StallFlagged { worker, path, stalled_ms, .. } => {
                self.stalls.push((worker, path, stalled_ms));
            }
        }
    }

    /// The operator in flight (the most recent one without an end event).
    pub fn in_flight(&self) -> Option<&OperatorFold> {
        self.operators.iter().rev().find(|o| o.end.is_none())
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
        let host = Event::StallFlagged { worker: 0, index: 1, path: "x".into(), stalled_ms: 9 };
        assert!(host.deterministic_key().is_none(), "{host:?}");
    }

    #[test]
    fn live_fold_accounts_lifecycle() {
        let mut l = Fold::default();
        for e in [
            Event::SweepStart { label: "s".into() },
            Event::OperatorStart { label: "gemm".into(), candidates: 12 },
            Event::WaveStart { size: 2 },
            Event::CandidateMeasured { index: 0, cycles: Some(100), retries: 1, worker: 0 },
            Event::CandidateMeasured { index: 1, cycles: None, retries: 2, worker: 1 },
            Event::WaveEnd { measured: 1, failed: 1 },
            Event::Quarantined { index: 0, reason: "illegal".into() },
            Event::CheckpointSaved { done: 2, total: 12 },
            Event::StallFlagged { worker: 1, index: 1, path: "gemm / t_m".into(), stalled_ms: 99 },
        ] {
            l.fold(e);
        }
        assert_eq!(l.in_flight().map(|o| (o.candidates, o.measured)), Some((12, 2)));
        l.fold(Event::OperatorEnd {
            label: "gemm".into(),
            best_cycles: Some(100),
            executed: 2,
            quarantined: 1,
        });
        l.fold(Event::SweepEnd { label: "s".into() });
        assert_eq!(l.sweeps, vec!["s".to_string()]);
        let gemm = OperatorFold {
            label: "gemm".into(),
            candidates: 12,
            measured: 2,
            end: Some((Some(100), 2, 1)),
        };
        assert_eq!(l.operators, vec![gemm]);
        assert!(l.in_flight().is_none());
        assert_eq!((l.measured, l.failed, l.retries), (2, 1, 3));
        assert_eq!(l.quarantines, vec![(0, "illegal".to_string())]);
        assert_eq!(l.stalls, vec![(1, "gemm / t_m".to_string(), 99)]);
        assert_eq!((l.waves, l.checkpoints), (1, 1));
    }

    #[test]
    fn progress_lines_skip_per_candidate_volume() {
        let line = |e: Event| e.progress_line();
        assert_eq!(
            line(Event::OperatorEnd {
                label: "gemm".into(),
                best_cycles: Some(7),
                executed: 3,
                quarantined: 0
            })
            .as_deref(),
            Some("tuned gemm: best 7 cycles (3 executed, 0 quarantined)")
        );
        assert_eq!(
            line(Event::OperatorEnd {
                label: "gemm".into(),
                best_cycles: None,
                executed: 3,
                quarantined: 0
            })
            .as_deref(),
            Some("tuned gemm: no winner (3 executed)")
        );
        assert!(line(Event::WaveStart { size: 3 }).is_none());
        assert!(line(Event::CandidateMeasured { index: 0, cycles: None, retries: 0, worker: 0 })
            .is_none());
    }
}
