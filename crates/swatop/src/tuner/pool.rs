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
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// [`par_map`] with per-item panic isolation. A panicking `f` yields
/// `Err(message)` for that item instead of tearing down the worker pool
/// (and the tuning run) — one poisoned candidate must not kill a sweep.
/// Panics are caught on the worker via `catch_unwind`, so the claim loop
/// keeps draining items afterwards; determinism is untouched because the
/// error, like any result, is stored at the item's input index.
pub fn par_map_watched<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    par_map(jobs, items, |w, i, x| {
        catch_unwind(AssertUnwindSafe(|| f(w, i, x))).map_err(panic_message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            par_map_watched(jobs, &items, |_, _, &x| {
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
}
