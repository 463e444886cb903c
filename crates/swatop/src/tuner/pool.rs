//! The parallel evaluation engine: deterministic fan-out of independent
//! work items over scoped worker threads.
//!
//! Candidate evaluation — both simulator execution and model scoring — is
//! embarrassingly parallel: `run_candidate` constructs a private
//! [`sw26010::CoreGroup`] per call (cheap since cost-only machines are
//! lazily allocated), and the static model is pure. What is *not* free is
//! determinism: tuning results feed every paper table, so the parallel path
//! must be bit-identical to the serial one. The engine guarantees that by
//! construction:
//!
//! * work items are claimed from a shared atomic counter, but each item's
//!   result is stored back at its *input index* — output order never
//!   depends on scheduling;
//! * reductions over the results (argmin, ranking) happen after the join,
//!   in input order, with ties broken by index — see [`crate::tuner::tune`];
//! * `jobs == 1` bypasses thread spawning entirely and is a plain serial
//!   loop.
//!
//! Workers are scoped (`std::thread::scope`), so borrowed candidate slices
//! need no `'static` bound and a panicking worker propagates when it is
//! joined.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::telemetry::bus::{Event, EventBus};

/// Number of worker threads the host makes available (the default for
/// `--jobs`).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve an optional `--jobs` request: `None` or `Some(0)` mean "use all
/// available parallelism".
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        None | Some(0) => available_jobs(),
        Some(n) => n,
    }
}

/// Map `f` over `items` with up to `jobs` worker threads, returning results
/// in input order. `f(worker, i, &items[i])` must be pure up to the index
/// `i` — the engine guarantees each index is evaluated exactly once and that
/// the output vector is index-aligned with the input, so the result is
/// identical for every `jobs` value. `worker` says which worker runs the
/// call (telemetry renders one timeline track per worker); the assignment
/// of an item depends on scheduling, so `f`'s *result* must not depend on
/// it — only side observability (span track tags) may.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(0, i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    // Dynamic (work-stealing) claim order balances uneven
                    // candidate costs; results carry their index home.
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(w, i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("tuner worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

/// Render a panic payload as a message (the common `&str` / `String` cases;
/// anything else becomes a generic marker).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Watchdog configuration for [`PoolMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// An in-flight item older than this is flagged as stalled (once).
    pub stall_after: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { stall_after: Duration::from_secs(30) }
    }
}

/// Per-worker utilization totals, exposed for `/metrics` and the flight
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Items this worker slot has finished.
    pub items: u64,
    /// Total host time the slot spent inside item bodies.
    pub busy_ms: u64,
}

#[derive(Debug, Clone, Default)]
struct WorkerSlot {
    /// `(input index, knob description, started, already flagged)` of the
    /// item currently in flight, if any.
    current: Option<(usize, String, Instant, bool)>,
    items: u64,
    busy: Duration,
}

/// What the workers write and the watchdog thread reads.
struct MonitorState {
    cfg: MonitorConfig,
    epoch: Instant,
    /// Current operator context, prefixed onto stall paths.
    context: Mutex<String>,
    slots: Mutex<Vec<WorkerSlot>>,
    bus: Option<EventBus>,
    /// Set by [`PoolMonitor`]'s `Drop` to end the watchdog.
    stop: AtomicBool,
}

impl MonitorState {
    /// Flag every in-flight item older than `stall_after` (once each) as an
    /// [`Event::StallFlagged`] on the bus, and return how long the watchdog
    /// may sleep: until the earliest unflagged item in flight could cross
    /// the threshold, or a whole `stall_after` when there is none — an item
    /// that begins during the sleep cannot be due before it ends.
    fn flag_stalls(&self) -> Duration {
        let context = self.context.lock().clone();
        let mut fresh: Vec<Event> = Vec::new();
        let mut sleep = self.cfg.stall_after;
        for (worker, slot) in self.slots.lock().iter_mut().enumerate() {
            let Some((index, knobs, since, flagged)) = &mut slot.current else { continue };
            if *flagged {
                continue;
            }
            let age = since.elapsed();
            if age < self.cfg.stall_after {
                sleep = sleep.min(self.cfg.stall_after - age);
                continue;
            }
            *flagged = true;
            let path =
                if context.is_empty() { knobs.clone() } else { format!("{context} / {knobs}") };
            let stalled_ms = age.as_millis() as u64;
            fresh.push(Event::StallFlagged { worker, index: *index, path, stalled_ms });
        }
        // Emitted once the slots are unlocked: no worker waits on a
        // subscriber's mailbox.
        if let Some(bus) = &self.bus {
            fresh.into_iter().for_each(|e| bus.emit(e));
        }
        sleep
    }
}

/// Host-side utilization / stall accounting for the worker pool. Purely
/// observational: it is written around item bodies (never inside the
/// simulated execution), so attaching one cannot change measured cycles or
/// tuning decisions. Workers mark progress with [`PoolMonitor::begin`] /
/// [`PoolMonitor::finish`]; one watchdog thread, alive from
/// [`PoolMonitor::new`] until the monitor is dropped, flags any item in
/// flight longer than [`MonitorConfig::stall_after`] — once per item, with
/// the span path (operator context + candidate knobs) an operator needs to
/// find the wedge. The watchdog sleeps until an item could be due, so a
/// monitor over a healthy pool costs the workers two short critical
/// sections per item and nothing else.
pub struct PoolMonitor {
    state: Arc<MonitorState>,
    /// `Some` until `Drop` joins it.
    watchdog: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for PoolMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolMonitor").field("cfg", &self.state.cfg).finish()
    }
}

impl PoolMonitor {
    /// Start monitoring: spawns the watchdog thread, which publishes
    /// [`Event::StallFlagged`] on `bus` when one is given.
    pub fn new(cfg: MonitorConfig, bus: Option<EventBus>) -> PoolMonitor {
        let state = Arc::new(MonitorState {
            cfg,
            epoch: Instant::now(),
            context: Mutex::new(String::new()),
            slots: Mutex::new(Vec::new()),
            bus,
            stop: AtomicBool::new(false),
        });
        let watched = Arc::clone(&state);
        let watchdog = std::thread::Builder::new()
            .name("swatop-watchdog".into())
            .spawn(move || {
                // `Drop` sets `stop` and then unparks: the park token makes
                // the wake-up stick even when it lands before the park. The
                // floor keeps a zero `stall_after` from spinning.
                while !watched.stop.load(Ordering::Acquire) {
                    let due = watched.flag_stalls().max(Duration::from_millis(1));
                    std::thread::park_timeout(due);
                }
            })
            .expect("spawn the stall watchdog");
        PoolMonitor { state, watchdog: Some(watchdog) }
    }

    /// Set the operator context prefixed onto stall span paths (e.g. the
    /// operator label currently being tuned).
    pub fn set_context(&self, context: &str) {
        *self.state.context.lock() = context.to_string();
    }

    /// Mark `worker` as having claimed item `index` described by `knobs`.
    pub fn begin(&self, worker: usize, index: usize, knobs: impl Into<String>) {
        let current = Some((index, knobs.into(), Instant::now(), false));
        let mut slots = self.state.slots.lock();
        if slots.len() <= worker {
            slots.resize(worker + 1, WorkerSlot::default());
        }
        slots[worker].current = current;
    }

    /// Mark `worker` as having finished its in-flight item.
    pub fn finish(&self, worker: usize) {
        let mut slots = self.state.slots.lock();
        if let Some(slot) = slots.get_mut(worker) {
            if let Some((_, _, since, _)) = slot.current.take() {
                slot.busy += since.elapsed();
                slot.items += 1;
            }
        }
    }

    /// Per-worker utilization totals. In-flight time counts as busy so a
    /// wedged worker reads as saturated, not idle.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.state
            .slots
            .lock()
            .iter()
            .map(|s| {
                let mut busy = s.busy;
                if let Some((_, _, since, _)) = &s.current {
                    busy += since.elapsed();
                }
                WorkerStats { items: s.items, busy_ms: busy.as_millis() as u64 }
            })
            .collect()
    }

    /// Host milliseconds since the monitor was created (the utilization
    /// denominator).
    pub fn elapsed_ms(&self) -> u64 {
        self.state.epoch.elapsed().as_millis() as u64
    }
}

impl Drop for PoolMonitor {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        if let Some(watchdog) = self.watchdog.take() {
            watchdog.thread().unpark();
            // Nothing to report from `Drop`: a watchdog panic has already
            // printed itself.
            let _ = watchdog.join();
        }
    }
}

/// [`par_map`] with per-item panic isolation and, when `monitor` is given,
/// utilization accounting and stall detection around each item. A panicking
/// `f` yields `Err(message)` for that item instead of tearing down the
/// worker pool (and the tuning run) — one poisoned candidate must not kill a
/// sweep. Panics are caught on the worker via `catch_unwind`, so the claim
/// loop keeps draining items afterwards; determinism is untouched because
/// the error, like any result, is stored at the item's input index.
/// `label(i, &items[i])` gives an item's stall-report identity and its knob
/// description — the identity names the item in the caller's own terms (the
/// candidate *input* index for tuner waves, which need not be the item's
/// position in this slice); it is only called when a monitor is attached.
pub fn par_map_watched<T, R, F, K>(
    jobs: usize,
    items: &[T],
    monitor: Option<&PoolMonitor>,
    label: K,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
    K: Fn(usize, &T) -> (usize, String) + Sync,
{
    par_map(jobs, items, |w, i, x| {
        if let Some(m) = monitor {
            let (id, knobs) = label(i, x);
            m.begin(w, id, knobs);
        }
        let r = catch_unwind(AssertUnwindSafe(|| f(w, i, x))).map_err(panic_message);
        if let Some(m) = monitor {
            m.finish(w);
        }
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::bus::Subscriber;

    #[test]
    fn results_are_input_ordered_for_any_job_count() {
        let items: Vec<usize> = (0..257).collect();
        let serial = par_map(1, &items, |_, i, &x| i * 1000 + x * x);
        for jobs in [2, 3, 8, 64] {
            let par = par_map(jobs, &items, |_, i, &x| i * 1000 + x * x);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, _, &x| x).is_empty());
        assert_eq!(par_map(8, &[5u32], |_, i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn jobs_zero_is_clamped_to_serial() {
        let items = [1, 2, 3];
        assert_eq!(par_map(0, &items, |_, _, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn par_map_watched_isolates_poisoned_items() {
        let items: Vec<usize> = (0..64).collect();
        // Silence the default panic hook while panics are expected: the
        // catch still reports them, the terminal just stays readable.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = |jobs| {
            par_map_watched(jobs, &items, None, |i, _| (i, String::new()), |_, _, &x| {
                if x % 7 == 3 {
                    panic!("poisoned item {x}");
                }
                x * 2
            })
        };
        let serial = run(1);
        let par = run(8);
        std::panic::set_hook(hook);
        assert_eq!(serial, par, "panic isolation must stay deterministic");
        for (i, r) in serial.iter().enumerate() {
            if i % 7 == 3 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("poisoned item"), "payload lost: {msg}");
            } else {
                assert_eq!(*r, Ok(i * 2));
            }
        }
    }

    #[test]
    fn par_map_reports_sane_worker_ids() {
        let items: Vec<usize> = (0..64).collect();
        // Serial: every item runs on worker 0.
        let serial = par_map(1, &items, |w, i, &x| (w, i * 2 + x));
        assert!(serial.iter().all(|&(w, _)| w == 0));
        // Parallel: worker ids are within [0, jobs) and results (which must
        // not depend on the worker) match the serial run exactly.
        let par = par_map(4, &items, |w, i, &x| (w, i * 2 + x));
        assert!(par.iter().all(|&(w, _)| w < 4));
        let results: Vec<usize> = par.iter().map(|&(_, r)| r).collect();
        let expect: Vec<usize> = serial.iter().map(|&(_, r)| r).collect();
        assert_eq!(results, expect);
    }

    #[test]
    fn resolve_jobs_defaults_to_available() {
        assert_eq!(resolve_jobs(None), available_jobs());
        assert_eq!(resolve_jobs(Some(0)), available_jobs());
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(available_jobs() >= 1);
    }

    /// A monitor whose watchdog publishes on a bus, and a subscriber that
    /// reads what it flags.
    fn watched_monitor(stall_after: Duration) -> (PoolMonitor, Subscriber) {
        let bus = EventBus::new();
        let sub = bus.subscribe(64);
        (PoolMonitor::new(MonitorConfig { stall_after }, Some(bus)), sub)
    }

    #[test]
    fn monitor_accounts_utilization_and_watched_preserves_results() {
        let (m, sub) = watched_monitor(Duration::from_secs(60));
        m.set_context("unit");
        let items: Vec<usize> = (0..40).collect();
        let label = |i: usize, _: &usize| (i, format!("item {i}"));
        let baseline = par_map_watched(4, &items, None, label, |_, i, &x| i + x);
        let watched_run = par_map_watched(4, &items, Some(&m), label, |_, i, &x| i + x);
        assert_eq!(baseline, watched_run);
        let stats = m.worker_stats();
        assert_eq!(stats.iter().map(|s| s.items).sum::<u64>(), items.len() as u64);
        assert!(sub.drain().is_empty(), "clean run must not flag stalls");
    }

    /// The watchdog belongs to the monitor, not to the wave: a wave costs no
    /// thread spawn and no sleep, however small it is.
    #[test]
    fn one_item_waves_do_not_wait_for_the_watchdog() {
        let m = PoolMonitor::new(MonitorConfig::default(), None);
        let t = Instant::now();
        let label = |_: usize, &x: &usize| (x, String::new());
        for wave in 0..200usize {
            let out = par_map_watched(2, &[wave], Some(&m), label, |_, _, &x| x);
            assert_eq!(out, vec![Ok(wave)]);
        }
        assert!(t.elapsed() < Duration::from_secs(1), "200 waves took {:?}", t.elapsed());
        assert_eq!(m.worker_stats().iter().map(|s| s.items).sum::<u64>(), 200);
    }

    /// The watchdog's sleep is interruptible: dropping the monitor does not
    /// wait out `stall_after`.
    #[test]
    fn dropping_the_monitor_wakes_and_joins_the_watchdog() {
        let m = PoolMonitor::new(MonitorConfig { stall_after: Duration::from_secs(30) }, None);
        let t = Instant::now();
        drop(m);
        assert!(t.elapsed() < Duration::from_millis(100), "drop took {:?}", t.elapsed());
    }

    #[test]
    fn watchdog_flags_a_wedged_item_once_with_its_path() {
        let (m, sub) = watched_monitor(Duration::from_millis(20));
        m.set_context("gemm 64x64x64");
        m.begin(1, 7, "dbuf=true, coal=false");
        assert!(sub.drain().is_empty(), "flagged before stall_after");
        std::thread::sleep(Duration::from_millis(30));
        // The watchdog thread has flagged it by now or this sample does; a
        // second sample must not double-flag the same item.
        m.state.flag_stalls();
        m.state.flag_stalls();
        let stalls = sub.drain();
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        let Event::StallFlagged { worker, index, path, stalled_ms } = &stalls[0] else {
            panic!("not a stall: {stalls:?}");
        };
        assert_eq!((*worker, *index), (1, 7));
        assert!(path.contains("gemm 64x64x64"), "{path}");
        assert!(path.contains("dbuf=true"), "{path}");
        assert!(*stalled_ms >= 20);
        m.finish(1);
        m.state.flag_stalls();
        assert!(sub.drain().is_empty(), "finished item must not re-flag");
    }

    /// What the watchdog sleeps for: a whole `stall_after` over an idle
    /// pool, the time left to the oldest unflagged item otherwise.
    #[test]
    fn the_watchdog_sleeps_until_an_item_could_be_due() {
        let stall_after = Duration::from_secs(30);
        let m = PoolMonitor::new(MonitorConfig { stall_after }, None);
        assert_eq!(m.state.flag_stalls(), stall_after);
        m.begin(0, 1, "a");
        std::thread::sleep(Duration::from_millis(5));
        m.begin(1, 2, "b");
        let sleep = m.state.flag_stalls();
        assert!(sleep <= stall_after - Duration::from_millis(5), "{sleep:?}");
        assert!(sleep > stall_after - Duration::from_secs(5), "{sleep:?}");
        m.finish(0);
        m.finish(1);
        assert_eq!(m.state.flag_stalls(), stall_after);
    }

    #[test]
    fn monitor_panicking_item_still_clears_the_slot() {
        let (m, sub) = watched_monitor(Duration::from_millis(20));
        let items = [1u32, 2, 3];
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = par_map_watched(
            1,
            &items,
            Some(&m),
            |i, _| (i, format!("item {i}")),
            |_, _, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            },
        );
        std::panic::set_hook(hook);
        assert!(out[1].is_err());
        // finish() ran even for the panicking item: no slot left in flight.
        std::thread::sleep(Duration::from_millis(30));
        m.state.flag_stalls();
        assert!(sub.drain().is_empty(), "cleared slot flagged as stalled");
    }
}
