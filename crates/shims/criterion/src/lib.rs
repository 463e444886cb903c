//! Offline shim for the subset of `criterion` this workspace uses (see
//! `crates/shims/README.md` for why these shims exist).
//!
//! A minimal wall-clock harness behind criterion's API: `criterion_group!`
//! / `criterion_main!`, `Criterion::bench_function` / `benchmark_group`,
//! `BenchmarkGroup` with `sample_size` / `bench_function` /
//! `bench_with_input` / `finish`, `BenchmarkId::from_parameter`, and
//! `Bencher::iter` / `iter_batched` / `iter_with_large_drop`. It times a
//! fixed batch of iterations per sample and prints the median ns/iter — no
//! statistics beyond that, no HTML reports, no saved baselines.
//!
//! CLI: `--test` runs every benchmark body exactly once (what
//! `cargo bench -- --test` and CI use to smoke the benches); name
//! arguments filter benches by substring; other criterion flags (e.g. the
//! harness-injected `--bench`) are accepted and ignored.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// How benchmark bodies are executed for the current process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Time a handful of samples and print the median ns/iter.
    Measure,
    /// Run each body exactly once (`--test`).
    Smoke,
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    mode: Mode,
    samples: u32,
    /// Median ns per iteration across samples, filled in by `iter`.
    result_ns: f64,
}

impl Bencher {
    /// Call `f` repeatedly and record how long one call takes.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.mode == Mode::Smoke {
            std::hint::black_box(f());
            return;
        }
        let t0 = Instant::now();
        std::hint::black_box(f());
        self.sample(t0.elapsed(), |batch| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t.elapsed()
        });
    }

    /// Time `routine` alone: its inputs are built by `setup` before the
    /// clock starts and its outputs are dropped after the clock stops.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        if self.mode == Mode::Smoke {
            std::hint::black_box(routine(setup()));
            return;
        }
        let mut timed = |batch: u64| {
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let mut outputs = Vec::with_capacity(inputs.len());
            let t = Instant::now();
            for input in inputs {
                outputs.push(std::hint::black_box(routine(input)));
            }
            t.elapsed()
        };
        let once = timed(1);
        self.sample(once, timed);
    }

    /// [`Bencher::iter`] with the values `f` returns dropped off the clock.
    pub fn iter_with_large_drop<R, F: FnMut() -> R>(&mut self, mut f: F) {
        self.iter_batched(|| (), |()| f(), BatchSize::SmallInput);
    }

    /// Record the median over `self.samples` samples of `timed(batch)`, with
    /// `batch` sized from `once` (one call) so that a sample lasts roughly a
    /// millisecond, keeping timer overhead out of the measurement.
    fn sample(&mut self, once: Duration, mut timed: impl FnMut(u64) -> Duration) {
        let once = once.max(Duration::from_nanos(1));
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u64;
        let mut per_iter: Vec<f64> =
            (0..self.samples).map(|_| timed(batch).as_nanos() as f64 / batch as f64).collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        self.result_ns = per_iter[per_iter.len() / 2];
    }
}

/// How many inputs [`Bencher::iter_batched`] may hold at once. Accepted for
/// API compatibility; the shim sizes batches by time alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
}

/// Identifier for one parameterised benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn from_parameter<P: Display>(parameter: P) -> BenchmarkId {
        BenchmarkId { id: parameter.to_string() }
    }

    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> BenchmarkId {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }
}

/// Top-level harness handle passed to each `criterion_group!` target.
pub struct Criterion {
    mode: Mode,
    filters: Vec<String>,
    default_samples: u32,
}

impl Criterion {
    fn from_args(args: &[String]) -> Criterion {
        let mode = if args.iter().any(|a| a == "--test") { Mode::Smoke } else { Mode::Measure };
        // Positional (non-flag) arguments are substring filters, matching
        // criterion's CLI. Flags we don't implement are skipped, along
        // with the value of the ones that take an argument.
        let takes_value = [
            "--save-baseline", "--baseline", "--load-baseline", "--sample-size",
            "--measurement-time", "--warm-up-time", "--output-format", "--color",
        ];
        let mut filters = Vec::new();
        let mut skip_next = false;
        for a in args {
            if skip_next {
                skip_next = false;
            } else if takes_value.contains(&a.as_str()) {
                skip_next = true;
            } else if !a.starts_with('-') {
                filters.push(a.clone());
            }
        }
        Criterion { mode, filters, default_samples: 20 }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, name: &str, samples: u32, mut f: F) {
        if !self.selected(name) {
            return;
        }
        let mut b = Bencher { mode: self.mode, samples, result_ns: 0.0 };
        f(&mut b);
        match self.mode {
            Mode::Smoke => println!("test {name} ... ok (1 iteration)"),
            Mode::Measure => println!("bench {name:<48} {:>14.1} ns/iter", b.result_ns),
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Criterion {
        let samples = self.default_samples;
        self.run_one(name, samples, f);
        self
    }

    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), samples: None }
    }
}

/// A named set of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    samples: Option<u32>,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Criterion insists on >= 10 samples; mirror the floor loosely.
        self.samples = Some(n.max(2) as u32);
        self
    }

    fn samples(&self) -> u32 {
        self.samples.unwrap_or(self.criterion.default_samples)
    }

    pub fn bench_function<S: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into());
        let samples = self.samples();
        self.criterion.run_one(&full, samples, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.id);
        let samples = self.samples();
        self.criterion.run_one(&full, samples, |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Collect benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main` running the given groups with CLI args applied.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::__new_from_env();
            $($group(&mut c);)+
        }
    };
}

/// Implementation detail of [`criterion_main!`].
#[doc(hidden)]
pub fn __new_from_env() -> Criterion {
    let args: Vec<String> = std::env::args().skip(1).collect();
    Criterion::from_args(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criterion(args: &[&str]) -> Criterion {
        Criterion::from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn smoke_mode_runs_each_body_once() {
        let mut c = criterion(&["--bench", "--test"]);
        let mut calls = 0u32;
        c.bench_function("counted", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
    }

    #[test]
    fn measure_mode_times_iterations() {
        let mut c = criterion(&["--bench"]);
        c.default_samples = 3;
        let mut calls = 0u64;
        c.bench_function("busy", |b| b.iter(|| calls += 1));
        assert!(calls > 3, "expected multiple timed iterations, got {calls}");
    }

    #[test]
    fn batched_iterations_pair_one_input_with_one_call() {
        for (args, at_least) in [(&["--bench", "--test"][..], 1), (&["--bench"][..], 4)] {
            let mut c = criterion(args);
            c.default_samples = 3;
            let (mut made, mut used) = (0u64, 0u64);
            c.bench_function("batched", |b| {
                b.iter_batched(|| made += 1, |()| used += 1, BatchSize::SmallInput)
            });
            assert_eq!(made, used);
            assert!(used >= at_least, "{used} calls");
            let mut kept = 0u64;
            c.bench_function("large_drop", |b| b.iter_with_large_drop(|| kept += 1));
            assert!(kept >= at_least, "{kept} calls");
        }
    }

    #[test]
    fn filters_select_by_substring() {
        let mut c = criterion(&["--test", "wanted"]);
        let mut hit = 0u32;
        c.bench_function("wanted_bench", |b| b.iter(|| hit += 1));
        c.bench_function("other", |b| b.iter(|| hit += 100));
        let mut g = c.benchmark_group("group");
        g.sample_size(10);
        g.bench_function("wanted_too", |b| b.iter(|| hit += 1));
        g.bench_with_input(BenchmarkId::from_parameter(7), &7u32, |b, &x| {
            b.iter(|| hit += x)
        });
        g.finish();
        assert_eq!(hit, 2);
    }

    #[test]
    fn value_taking_flags_do_not_become_filters() {
        let c = criterion(&["--sample-size", "50", "--test"]);
        assert!(c.filters.is_empty());
        assert!(c.selected("anything"));
    }
}
