//! The repo benchmark. One invocation is one run of one workload in a fresh
//! process, closed loop, single client:
//!
//! ```text
//! swatop-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (set-up probes, one cold
//! pass, then timed warm passes for `S` seconds); `--trace 1` measures the
//! per-layer metrics (one cold pass, one untraced pass, one traced pass, one
//! pass with telemetry attached). Every metric is printed as `name value
//! unit`; the last line of stdout is the result object. The exit code is
//! non-zero when an op failed. See `benchmark/README.md`.

mod layers;
mod oplist;
mod pass;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sw26010::MachineConfig;
use swatop::model::GemmModel;
use swatop::scheduler::Operator;
use swatop::telemetry::bus::EventBus;
use swatop::tuner::{TierMode, TuneOptions};
use swatop::{Candidate, Telemetry, TuneOutcome};

use layers::PassWalls;
use oplist::{OpSpec, Validation, Workload};
use pass::{
    check_clocks_agree, reference_cycles, trace_op, tune_op, tune_options, LayerCounts, OpResult,
};
use report::{Run, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{geomean, summarize};
use trace::Trace;

/// Fresh-process samples behind `setup_s`.
const SETUP_PROBES: usize = 5;
/// Timed passes a run makes at the least, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_probe) = (1u64, RUN_SECONDS, false, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out, setup_probe })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = oplist::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "swatop-benchmark: {e}\nusage: swatop-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Set-up: everything between process entry and ready-to-tune.
    let cfg = MachineConfig::default();
    let ops = args.workload.ops(args.seed);
    let t = Instant::now();
    GemmModel::cached(&cfg);
    let calibrate_s = t.elapsed().as_secs_f64();
    if args.setup_probe {
        return ExitCode::SUCCESS;
    }

    let run = if args.trace {
        run_traced(&args, &cfg, &ops, calibrate_s)
    } else {
        run_end_to_end(&args, &cfg, &ops)
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("swatop-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &run.failures {
        eprintln!("FAILED {f}");
    }
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report::result_line(registry, &run.values, run.attempted, run.failures.len());
    let file = report::result_file(args.workload.name, args.seed, &line, &ops, &run);
    let suffix = if args.trace { "_layers" } else { "" };
    if let Err(e) = write_out(&args.out, &format!("{}{suffix}.json", args.workload.name), &file) {
        eprintln!("swatop-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", report::metric_lines(registry, &run.values));
    println!("{line}");
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_out(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Failure bookkeeping shared by both run kinds.
struct Ledger<'a> {
    ops: &'a [OpSpec],
    attempted: usize,
    failures: Vec<String>,
    /// Results of the first pass, in canonical op order.
    first: Vec<OpResult>,
}

impl<'a> Ledger<'a> {
    fn new(ops: &'a [OpSpec]) -> Ledger<'a> {
        Ledger { ops, attempted: 0, failures: Vec::new(), first: Vec::new() }
    }

    fn name(&self, canon: usize) -> &str {
        &self.ops.iter().find(|o| o.canon == canon).expect("listed op").name
    }

    fn fail(&mut self, canon: usize, what: &str) {
        self.failures.push(format!("{}: {what}", self.name(canon)));
    }

    /// Account for one pass: an op fails on its own error, or when its
    /// result (candidate count, winner index, cycles, schedule string,
    /// emitted bytes) differs from the first pass's.
    fn pass(&mut self, label: &str, results: Vec<OpResult>) {
        self.attempted += results.len();
        let mut failed = Vec::new();
        for r in &results {
            match (&r.winner, self.first.get(r.canon)) {
                (Err(e), _) => failed.push((r.canon, format!("{label}: {e}"))),
                (Ok(_), Some(first)) if first.winner.is_ok() && r != first => failed.push((
                    r.canon,
                    format!("{label}: result differs from the first pass: {r:?} vs {first:?}"),
                )),
                _ => {}
            }
        }
        for (canon, what) in failed {
            self.fail(canon, &what);
        }
        if self.first.is_empty() {
            self.first = results;
            self.first.sort_by_key(|r| r.canon);
        }
    }
}

/// What [`untraced_pass`] calls with each tuned op's candidates still alive.
type AfterOp<'a> = dyn FnMut(&OpSpec, &dyn Operator, &[Candidate], &TuneOutcome) + 'a;

fn no_hook(_: &OpSpec, _: &dyn Operator, _: &[Candidate], _: &TuneOutcome) {}

/// One untraced pass; returns the results and the seconds of each op, in
/// list order. The pass wall is the sum of the seconds.
fn untraced_pass(
    cfg: &MachineConfig,
    w: &Workload,
    ops: &[OpSpec],
    opts: &TuneOptions,
    after: &mut AfterOp,
) -> (Vec<OpResult>, Vec<f64>) {
    ops.iter()
        .map(|spec| tune_op(cfg, w, spec, opts, &mut |op, cands, out| after(spec, op, cands, out)))
        .unzip()
}

fn run_end_to_end(args: &Args, cfg: &MachineConfig, ops: &[OpSpec]) -> Result<Run, String> {
    let w = &args.workload;
    let setup = setup_probes(args)?;
    let opts = tune_options(w);
    let mut ledger = Ledger::new(ops);

    // Cold pass, in canonical order so that the memory a fresh process
    // needs for one sweep does not depend on the seed: fills the
    // process-global caches and, with the candidates at hand, measures the
    // reference set and cross-checks the two clocks.
    let canonical = canonical_order(ops);
    let mut reference: Vec<(usize, u64)> = Vec::new();
    let mut cold_failures: Vec<(usize, String)> = Vec::new();
    let (results, cold) = untraced_pass(cfg, w, &canonical, &opts, &mut |spec, op, cands, out| {
        match reference_cycles(cfg, w, op, cands) {
            Ok(c) => reference.push((spec.canon, c)),
            Err(e) => cold_failures.push((spec.canon, e)),
        }
        if w.validation == Validation::Functional {
            if let Err(e) = check_clocks_agree(cfg, op, &cands[out.best], out.cycles.get()) {
                cold_failures.push((spec.canon, e));
            }
        }
    });
    ledger.pass("cold pass", results);
    for (canon, e) in cold_failures {
        ledger.fail(canon, &e);
    }
    let peak_rss_mb = peak_rss_mb()?;

    let mut walls = Vec::new();
    let mut op_secs = vec![Vec::new(); ops.len()];
    let started = Instant::now();
    while walls.len() < MIN_TIMED_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let (results, secs) = untraced_pass(cfg, w, ops, &opts, &mut no_hook);
        ledger.pass(&format!("timed pass {}", walls.len() + 1), results);
        walls.push(secs.iter().sum());
        for (per_op, s) in op_secs.iter_mut().zip(secs) {
            per_op.push(s);
        }
    }

    // Exact metrics, in canonical op order so they do not depend on the seed.
    let mut winners: Vec<(usize, u64)> = ledger
        .first
        .iter()
        .filter_map(|r| r.winner.as_ref().ok().map(|win| (r.canon, win.cycles)))
        .collect();
    winners.sort_unstable();
    reference.sort_unstable();
    if winners.is_empty() || winners.len() != reference.len() {
        return Err(format!("no metrics: {}", ledger.failures.join("; ")));
    }
    let cycles: Vec<f64> = winners.iter().map(|&(_, c)| c as f64).collect();
    // On a brute-force workload the reference run is the tiered ladder and
    // the timed winner the optimum; elsewhere the timed winner is the
    // ladder's and the reference the best of a wider analytic wave.
    let vs_ref: Vec<f64> = winners
        .iter()
        .zip(&reference)
        .map(|(&(_, win), &(_, refc))| match w.mode {
            TierMode::FullScoreboard => refc as f64 / win as f64,
            TierMode::Tiered => win as f64 / refc as f64,
        })
        .collect();

    // A pass's wall as the sum of each op's median seconds: a disturbance
    // that hits different ops in different passes moves no median.
    let mut op_median_s = vec![0.0; ops.len()];
    for (spec, secs) in ops.iter().zip(&op_secs) {
        op_median_s[spec.canon] = summarize(secs).median;
    }
    let wall = summarize(&walls);
    let setup_sum = summarize(&setup);
    println!(
        "# {}: {} ops, seed {}, cold pass {:.3} s",
        w.name,
        ops.len(),
        args.seed,
        cold.iter().sum::<f64>()
    );
    println!(
        "# timed passes: median {:.4} s min {:.4} s max {:.4} s n {}",
        wall.median, wall.min, wall.max, wall.n
    );
    println!(
        "# setup_s median {:.4} min {:.4} max {:.4} n {}",
        setup_sum.median, setup_sum.min, setup_sum.max, setup_sum.n
    );
    let mut values = Values::new();
    values.insert("setup_s", setup_sum.median);
    values.insert("tune_wall_s", op_median_s.iter().sum());
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("winner_cycles_geomean", geomean(&cycles));
    values.insert("winner_vs_ref_pct", 100.0 * geomean(&vs_ref));
    Ok(Run {
        values,
        attempted: ledger.attempted,
        failures: ledger.failures,
        pass_walls_s: walls,
        op_median_s,
        results: ledger.first,
    })
}

fn canonical_order(ops: &[OpSpec]) -> Vec<OpSpec> {
    let mut ops = ops.to_vec();
    ops.sort_by_key(|o| o.canon);
    ops
}

/// Wall of `SETUP_PROBES` fresh processes that set up (op-list generation
/// and cold model calibration) and exit, spawn to exit.
fn setup_probes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let t = Instant::now();
            let status = Command::new(&exe)
                .args([
                    "--setup-probe",
                    "--workload",
                    args.workload.name,
                    "--seed",
                    &args.seed.to_string(),
                ])
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            status.success().then_some(secs).ok_or(format!("set-up probe exited with {status}"))
        })
        .collect()
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run_traced(
    args: &Args,
    cfg: &MachineConfig,
    ops: &[OpSpec],
    calibrate_s: f64,
) -> Result<Run, String> {
    let w = &args.workload;
    let opts = tune_options(w);
    let mut ledger = Ledger::new(ops);

    let (results, secs) = untraced_pass(cfg, w, &canonical_order(ops), &opts, &mut no_hook);
    let cold_s: f64 = secs.iter().sum();
    ledger.pass("cold pass", results);
    let (results, secs) = untraced_pass(cfg, w, ops, &opts, &mut no_hook);
    let untraced_s: f64 = secs.iter().sum();
    ledger.pass("untraced pass", results);

    let (cost_hits0, cost_misses0, _) = swkernels::cost::cache_stats();
    let mut trace = Trace::new();
    let mut n = LayerCounts::default();
    let results = trace.span("harness.pass", None, |t| {
        ops.iter().map(|spec| trace_op(cfg, w, spec, &opts, t, &mut n)).collect()
    });
    let (cost_hits, cost_misses, _) = swkernels::cost::cache_stats();
    ledger.pass("traced pass", results);
    for (canon, e) in std::mem::take(&mut n.failures) {
        ledger.fail(canon, &e);
    }
    n.sort_canonical();

    // The same pass with the observability stack attached.
    let bus = EventBus::new();
    let _subscriber = bus.subscribe(1024);
    let observed =
        TuneOptions { telemetry: Some(Telemetry::new()), bus: Some(bus), ..opts.clone() };
    let (results, secs) = untraced_pass(cfg, w, ops, &observed, &mut no_hook);
    let observed_s: f64 = secs.iter().sum();
    ledger.pass("telemetry pass", results);

    write_out(&args.out, &format!("trace_{}.json", w.name), &trace.to_json())?;

    println!("# {}: {} ops, seed {}", w.name, ops.len(), args.seed);
    n.cost_cache_hits = cost_hits - cost_hits0;
    n.cost_cache_lookups = n.cost_cache_hits + cost_misses - cost_misses0;
    let walls = PassWalls { cold_s, untraced_s, observed_s };
    let values = layers::layer_values(w, &trace, &n, calibrate_s, walls);
    Ok(Run {
        values,
        attempted: ledger.attempted,
        failures: ledger.failures,
        pass_walls_s: vec![cold_s, untraced_s, trace.busy("harness.pass"), observed_s],
        op_median_s: Vec::new(),
        results: ledger.first,
    })
}
