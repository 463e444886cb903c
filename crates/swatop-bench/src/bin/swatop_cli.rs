//! `swatop_cli` — the offline-compiler front end.
//!
//! ```text
//! swatop_cli gemm M N K [--out FILE] [--trace FILE]
//! swatop_cli conv B NI NO RO [--method implicit|winograd|explicit|auto]
//!            [--kernel K] [--stride S] [--pad P] [--out FILE] [--trace FILE]
//! swatop_cli bwd-data B NI NO RO [--out FILE]
//! swatop_cli bwd-filter B NI NO RO [--out FILE]
//! swatop_cli profile gemm M N K [--candidate N | --select SUBSTR]
//!            [--diff N | --diff-select SUBSTR] [--out FILE] [--perfetto FILE]
//! swatop_cli profile conv B NI NO RO [--method implicit|winograd|explicit] [...]
//! ```
//!
//! Tunes the requested operator with the performance-model autotuner,
//! reports the chosen schedule and simulated performance, writes the
//! generated C (`--out`) and optionally a Chrome trace of the winning
//! schedule's execution (`--trace`, open in `chrome://tracing`/Perfetto).
//!
//! Fault tolerance: `--faults SEED` (or the `SWATOP_FAULT_SEED` env var)
//! tunes on a simulated flaky machine — transient DMA faults, SPM capacity
//! pressure and cycle-measurement jitter — exercising the retry/median
//! policy; the chosen schedule is still deterministic for a fixed seed.
//! `--checkpoint FILE` snapshots partial sweep state so an interrupted run
//! can be continued with `--resume FILE`, producing the same final answer
//! as an uninterrupted sweep.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sw26010::{CoreGroup, ExecMode, FaultPlan, MachineConfig};
use swatop::interp::{execute, instantiate};
use swatop::observatory::Peaks;
use swatop::ops::{ConvBackwardDataOp, ConvBackwardFilterOp, MatmulOp};
use swatop::scheduler::{Operator, Scheduler};
use swatop::telemetry::bus::EventBus;
use swatop::telemetry::metrics::{MetricsHub, MetricsServer};
use swatop::telemetry::{Summary, Telemetry};
use swatop::tuner::pool::{MonitorConfig, PoolMonitor};
use swatop::tuner::{pool, tune, CheckpointPolicy, TierPolicy, TuneOptions};
use swatop_bench::flight::flight_html;
use swatop_bench::journal::Journal;
use swatop_bench::report::{roofline_table, telemetry_summary, write_exports};
use swatop_bench::runner::{tune_op, ConvMethod, TunedOp};
use swtensor::ConvShape;

const USAGE: &str = "usage:\n  swatop_cli gemm M N K [common flags]\n  \
         swatop_cli conv B NI NO RO [--method implicit|winograd|explicit|auto] \
         [--kernel K] [--stride S] [--pad P] [common flags]\n  \
         swatop_cli bwd-data B NI NO RO [common flags]\n  \
         swatop_cli bwd-filter B NI NO RO [common flags]\n  \
         swatop_cli bench [--journal FILE] [--label L] [--repeats N] [--smoke]\n               \
         [--handicap N] [--jobs N] [--faults SEED] [--validate|--strict-validate]\n               \
         [--corpus FILE] [--tuner tiered|blackbox]\n               \
         run the canonical bench set, appending journal records\n  \
         swatop_cli report [--journal FILE] [--label L] [--out FILE]\n               \
         render the flight report (self-contained HTML) from the journal\n  \
         swatop_cli profile gemm M N K | conv B NI NO RO [--method M] [--kernel K]\n               \
         [--candidate N | --select SUBSTR]   pick candidate A (default: tuned winner)\n               \
         [--diff N | --diff-select SUBSTR]   diff mode: compare A against candidate B\n               \
         [--out FILE]                        profile (or diff) JSON artifact\n               \
         [--perfetto FILE]                   cycle-resolved timeline for ui.perfetto.dev\n               \
         cycle-resolved per-engine profile of one enumerated schedule\n\
         common flags:\n  \
         --validate        validate the winning schedule before reporting it\n                    \
         (static legality check + differential functional run\n                    \
         against the golden reference); a rejected winner is\n                    \
         quarantined and the tuner falls back to the next-best\n  \
         --strict-validate like --validate, but exit non-zero if any winner\n                    \
         was quarantined (CI gate: zero quarantined winners)\n  \
         --jobs N          tuner worker threads (0/omitted = all cores, 1 = serial;\n                    \
         the chosen schedule is identical for every value)\n  \
         --out FILE        write generated C code\n  \
         --trace FILE      write a Chrome trace of the winning schedule\n  \
         --tuner model|blackbox|tiered\n                    \
         model (default; not for bench): execute only the model's top picks;\n                    \
         blackbox: execute the whole space on the scoreboard;\n                    \
         tiered (bench default): analytic screen, then adaptive\n                    \
         scoreboard top-k, then functional winner validation\n  \
         --faults SEED     tune under injected faults (DMA drops, SPM pressure,\n                    \
         measurement jitter); SWATOP_FAULT_SEED works too\n  \
         --checkpoint FILE periodically snapshot sweep state to FILE\n  \
         --resume FILE     load FILE before tuning and continue the sweep\n                    \
         (implies --checkpoint FILE)\n  \
         --telemetry FILE  write a JSON telemetry snapshot (per-candidate\n                    \
         predicted/measured cycles, machine counters, model accuracy)\n  \
         --trace-timeline FILE\n                    \
         write a Perfetto/Chrome trace of the tuning run itself\n                    \
         (one timeline track per tuner worker)\n  \
         --verbose         print the per-run telemetry summary (counters, MAPE,\n                    \
         rank correlation) and the per-candidate roofline table\n                    \
         (bottleneck class, % of peak GFLOPS / DMA bandwidth)\n  \
         --json            machine-readable result: one JSON object on stdout\n                    \
         (result summary + full telemetry snapshot), no human text\n  \
         --corpus FILE     write the feature corpus: one JSONL row per measured\n                    \
         candidate (knobs, counters, cycles, bottleneck), sorted\n                    \
         by (operator, index) so bytes are the same for every --jobs\n  \
         --quiet           disable live observability entirely: no progress\n                    \
         lines, no event bus (results are bit-identical either way)\n  \
         --metrics-addr A  serve live Prometheus metrics on A (e.g.\n                    \
         127.0.0.1:9184) at /metrics for the duration of the run\n  \
         --metrics-linger MS\n                    \
         keep serving /metrics MS after the run finishes\n  \
         --flight-report FILE\n                    \
         write the self-contained HTML flight report after the run\n  \
         --stall-after-ms MS\n                    \
         watchdog threshold: flag a candidate measurement still\n                    \
         running after MS as stalled (report-only; default 30000)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    positional: Vec<usize>,
    flags: HashMap<String, String>,
}

/// Flags that take no value argument.
const BOOL_FLAGS: &[&str] = &["verbose", "json", "smoke", "validate", "strict-validate", "quiet"];

/// Flags that take a value: every one some command reads. Any flag in
/// neither list is a usage error, so a deleted or misspelt flag cannot run
/// as if it were absent.
const VALUE_FLAGS: &[&str] = &[
    "candidate", "checkpoint", "corpus", "diff", "diff-select", "faults", "flight-report",
    "handicap", "jobs", "journal", "kernel", "label", "method", "metrics-addr", "metrics-linger",
    "out", "pad", "perfetto", "repeats", "resume", "select", "stall-after-ms", "stride",
    "telemetry", "trace", "trace-timeline", "tuner",
];

/// Whether `--name` takes a value; `None` for a flag no command reads.
fn takes_value(name: &str) -> Option<bool> {
    if BOOL_FLAGS.contains(&name) {
        Some(false)
    } else {
        VALUE_FLAGS.contains(&name).then_some(true)
    }
}

fn parse_args(args: &[String]) -> Args {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let Some(value) = takes_value(name) else {
                eprintln!("swatop_cli: unknown flag --{name}");
                usage();
            };
            if value {
                i += 1;
                if i >= args.len() {
                    usage();
                }
                flags.insert(name.to_string(), args[i].clone());
            } else {
                flags.insert(name.to_string(), "1".to_string());
            }
        } else {
            positional.push(args[i].parse().unwrap_or_else(|_| usage()));
        }
        i += 1;
    }
    Args { positional, flags }
}

/// `B NI NO RO [--kernel K] [--stride S] [--pad P]`: the convolution a
/// `conv` / `bwd-*` / `profile conv` command names.
fn conv_shape(a: &Args) -> ConvShape {
    let [b, ni, no, ro] = a.positional[..] else { usage() };
    let get =
        |key: &str, d: usize| a.flags.get(key).map_or(d, |v| v.parse().unwrap_or_else(|_| usage()));
    let (kernel, stride, pad) = (get("kernel", 3), get("stride", 1), get("pad", 0));
    ConvShape { b, ni, no, ro, co: ro, kr: kernel, kc: kernel, stride, pad }
}

/// `--method`: the decompositions to tune, `auto` (where allowed) being all
/// three.
fn conv_methods(a: &Args, default: &str, auto: bool) -> Vec<ConvMethod> {
    match a.flags.get("method").map_or(default, String::as_str) {
        "auto" if auto => vec![ConvMethod::Implicit, ConvMethod::Winograd, ConvMethod::Explicit],
        name => vec![ConvMethod::parse(name).unwrap_or_else(|| usage())],
    }
}

/// What `--tuner` asks [`tune`] to measure: `model` only the analytic
/// model's top 3, `blackbox` the whole space, `tiered` the adaptive ladder.
/// `bench` runs the ladder by default and journals only the two
/// [`TierMode`](swatop::tuner::TierMode)s, so it takes no `model`.
fn tuner_policy(a: &Args, bench: bool) -> TierPolicy {
    let default = if bench { "tiered" } else { "model" };
    match a.flags.get("tuner").map_or(default, String::as_str) {
        "model" if !bench => TierPolicy::top_k(3),
        "blackbox" => TierPolicy::exhaustive(),
        "tiered" => TierPolicy::default(),
        _ => usage(),
    }
}

/// Background thread printing progress lines to **stderr** (stdout stays
/// machine-readable under `--json`).
struct Progress {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

fn spawn_progress(bus: &EventBus) -> Progress {
    let sub = bus.subscribe(4096);
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("swatop-progress".to_string())
        .spawn(move || loop {
            let done = stop2.load(Ordering::Acquire);
            for line in sub.drain().iter().filter_map(|e| e.progress_line()) {
                eprintln!("swatop: {line}");
            }
            if done {
                return;
            }
            // `finish` unparks, so the last drain does not wait out the nap.
            std::thread::park_timeout(Duration::from_millis(50));
        })
        .expect("spawn progress printer");
    Progress { stop, handle }
}

/// Live-observability plumbing for one CLI invocation: the event bus, the
/// worker monitor, the optional progress printer, and the one hub that
/// `/metrics` and the flight report both read. All report-only — winners,
/// cycles and journal records are bit-identical with all of it on or off
/// (`--quiet`).
#[derive(Default)]
struct Observability {
    bus: Option<EventBus>,
    monitor: Option<Arc<PoolMonitor>>,
    /// Present iff `--metrics-addr` or `--flight-report` will read it.
    hub: Option<Arc<MetricsHub>>,
    server: Option<MetricsServer>,
    progress: Option<Progress>,
    /// `--flight-report FILE`.
    flight: Option<PathBuf>,
    linger: Duration,
}

impl Observability {
    fn from_args(a: &Args) -> Observability {
        let quiet = a.flags.contains_key("quiet");
        let metrics_addr = a.flags.get("metrics-addr");
        let flight_path = a.flags.get("flight-report").map(PathBuf::from);
        if quiet && metrics_addr.is_none() && flight_path.is_none() {
            return Observability::default();
        }
        let num = |k: &str, d: u64| {
            a.flags.get(k).map_or(d, |v| v.parse().unwrap_or_else(|_| usage()))
        };
        let bus = EventBus::default();
        let stall_after = Duration::from_millis(num("stall-after-ms", 30_000));
        let monitor = Arc::new(PoolMonitor::new(MonitorConfig { stall_after }, Some(bus.clone())));
        let progress = (!quiet).then(|| spawn_progress(&bus));
        // The ring holds a whole unscraped run for the flight report: a
        // full-scoreboard smoke bench is 9k events, and overflow only turns
        // the report's counts into stated lower bounds.
        let hub = (metrics_addr.is_some() || flight_path.is_some())
            .then(|| Arc::new(MetricsHub::new(&bus, Some(monitor.clone()), 1 << 16)));
        let server = metrics_addr.zip(hub.as_ref()).map(|(addr, hub)| {
            let server = MetricsServer::start(addr, hub.clone()).unwrap_or_else(|e| {
                eprintln!("swatop_cli: --metrics-addr {addr}: {e}");
                std::process::exit(2);
            });
            if !quiet {
                eprintln!("swatop: serving /metrics on {}", server.addr());
            }
            server
        });
        Observability {
            bus: Some(bus),
            monitor: Some(monitor),
            hub,
            server,
            progress,
            flight: flight_path,
            linger: Duration::from_millis(num("metrics-linger", 0)),
        }
    }

    /// Flush and tear down: record truncated artifacts, stop the printer,
    /// write the flight report, linger for late `/metrics` scrapes, stop
    /// the server.
    fn finish(self, journal_path: &Path, label: Option<&str>, truncated: &[String]) {
        if let Some(hub) = &self.hub {
            for t in truncated {
                hub.note_truncated(t);
            }
        }
        if let Some(p) = self.progress {
            p.stop.store(true, Ordering::Release);
            p.handle.thread().unpark();
            let _ = p.handle.join();
        }
        if let (Some(hub), Some(path)) = (&self.hub, &self.flight) {
            let journal = Journal::load(journal_path).unwrap_or_default();
            std::fs::write(path, flight_html(&journal, label, Some(&hub.snapshot())))
                .expect("write flight report");
            eprintln!("swatop: flight report written to {}", path.display());
        }
        if let Some(server) = self.server {
            if !self.linger.is_zero() {
                std::thread::sleep(self.linger);
            }
            server.shutdown();
        }
    }
}

/// Tune options for operator number `slot` of `n_ops`: when the `auto`
/// method races several operators, each gets its own checkpoint file
/// (suffix `.opN`) so their sweeps don't clobber one another.
fn slot_options(base: &TuneOptions, slot: usize, n_ops: usize) -> TuneOptions {
    let mut opts = base.clone();
    if let Some(cp) = opts.checkpoint.as_mut().filter(|_| n_ops > 1) {
        cp.path = PathBuf::from(format!("{}.op{slot}", cp.path.display()));
    }
    opts
}

/// Machine-readable result: one JSON object combining the tuning result
/// summary (winner, cycles, roofline position) with the full telemetry
/// snapshot (which is itself produced by the snapshot exporter).
fn json_report(cfg: &MachineConfig, name: &str, tuned: &TunedOp, summary: &Summary) -> String {
    let TunedOp { flops, winner, outcome, scope, .. } = tuned;
    let cycles = outcome.cycles.get();
    let gflops = sw26010::clock::gflops(*flops, sw26010::Cycles(cycles), cfg.clock_ghz);
    let mix = summary.operator(*scope).map(|op| op.mix).unwrap_or_default();
    let mut w = sw26010::json::Writer::new();
    w.begin_obj()
        .field("operator", name)
        .field("schedule", &winner.describe)
        .field("cycles", cycles)
        .field("gflops", gflops)
        .field("pct_peak_gflops", 100.0 * gflops / summary.peaks.gflops)
        .field("quarantined", outcome.quarantined)
        .field("bottleneck_mix", mix)
        .key("telemetry")
        .raw(&summary.snapshot_json())
        .end_obj();
    w.finish()
}

/// Print the result and write the requested artifacts. Returns the paths
/// of any artifacts whose trace hit its event cap (propagated into the
/// flight report and `/metrics` as data-completeness warnings).
fn report(
    cfg: &MachineConfig,
    name: &str,
    tuned: &TunedOp,
    a: &Args,
    summary: Option<&Summary>,
) -> Vec<String> {
    let TunedOp { flops, winner, outcome, .. } = tuned;
    let flops = *flops;
    let mut truncated = Vec::new();
    let json_mode = a.flags.contains_key("json");
    let cycles = outcome.cycles.get();
    if json_mode {
        let summary = summary.expect("--json instruments telemetry");
        println!("{}", json_report(cfg, name, tuned, summary));
    } else {
        println!("operator : {name}");
        println!("schedule : {}", winner.describe);
        println!(
            "time     : {cycles} cycles = {:.3} ms on one CG",
            1e3 * cfg.seconds(sw26010::Cycles(cycles))
        );
        println!(
            "perf     : {:.0} GFLOPS ({:.0}% of CG peak, direct-normalised)",
            sw26010::clock::gflops(flops, sw26010::Cycles(cycles), cfg.clock_ghz),
            100.0 * cfg.efficiency(flops, sw26010::Cycles(cycles))
        );
        if cfg.fault.is_some() || outcome.failed > 0 {
            let seed = cfg.fault.map_or_else(|| "-".to_string(), |p| p.seed.to_string());
            println!(
                "faults   : seed {seed}; {} of {} measured candidates failed, {} transient retries",
                outcome.failed, outcome.executed, outcome.retried
            );
        }
        if outcome.quarantined > 0 {
            println!(
                "validate : {} prospective winner(s) quarantined; fell back to the \
                 next-best legal schedule",
                outcome.quarantined
            );
            for (i, r) in outcome.reports.iter().enumerate() {
                if let Some(reason) = &r.quarantined {
                    println!("           candidate {i}: {reason}");
                }
            }
        }
        if a.flags.contains_key("verbose") {
            if let Some(op) = summary.and_then(|s| s.operator(tuned.scope)) {
                let c = &op.counters;
                println!(
                    "counters : {} DMA batches, {:.1} KiB payload ({:.0}% bus efficiency), \
                     {} kernel calls, {:.1}% issue-slot utilization, SPM high water {:.1} KiB",
                    c.dma_batches,
                    c.dma_payload_bytes as f64 / 1024.0,
                    100.0 * c.dma_efficiency(),
                    c.kernel_calls,
                    100.0 * c.issue_slot_utilization(),
                    c.spm_high_water_elems as f64 * 4.0 / 1024.0
                );
                let acc = op.accuracy.as_ref();
                let fmt = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
                println!(
                    "model    : {} (predicted, measured) pairs, MAPE {}%, rank correlation {}, \
                     {} misranked",
                    acc.map_or(0, |a| a.pairs.len()),
                    fmt(acc.and_then(|a| a.mape_pct)),
                    fmt(acc.and_then(|a| a.rank_correlation)),
                    acc.map_or(0, |a| a.misranked.len())
                );
                println!("roofline : {}", op.mix.summary());
            }
        }
    }
    // The artifacts below re-execute the winner; they describe the *code*,
    // so they run on the clean machine even when tuning was fault-injected.
    let clean = MachineConfig { fault: None, ..cfg.clone() };
    if let Some(path) = a.flags.get("out") {
        std::fs::write(path, winner.exe.emit_c()).expect("write C file");
        if !json_mode {
            println!("C code   : {path}");
        }
    }
    if let Some(path) = a.flags.get("trace") {
        let mut cg = CoreGroup::new(clean, ExecMode::CostOnly);
        cg.trace = sw26010::trace::Trace::enabled(1_000_000);
        let binding = instantiate(&mut cg, &winner.exe);
        execute(&mut cg, &winner.exe, &binding).expect("trace run");
        if cg.trace.truncated() {
            truncated.push(path.clone());
            eprintln!("swatop: trace {path} truncated at its event cap");
        }
        let json = sw26010::chrome_trace::to_chrome_json(&cg.trace, cfg.clock_ghz);
        std::fs::write(path, json).expect("write trace");
        if !json_mode {
            println!("trace    : {path} (open in chrome://tracing)");
        }
    }
    truncated
}

/// The `profile` subcommand: re-run one enumerated candidate cost-only with
/// tracing enabled and report where its cycles go (per-engine busy spans,
/// prologue/steady/epilogue phases). With `--diff`, profile a second
/// candidate of the same operator and attribute the cycle delta to the
/// schedule knobs that changed.
fn run_profile(argv: &[String]) {
    use swatop::profiler::{
        diff, diff_json, diff_report, profile_candidate, profile_json, profile_perfetto,
        CandidateProfile, PROFILE_TRACE_CAP,
    };

    let Some(sub) = argv.first() else { usage() };
    let a = parse_args(&argv[1..]);
    // Profiles always run on the clean machine: they explain where a
    // schedule's cycles go, which fault jitter would only blur.
    let cfg = MachineConfig::default();
    let op: Box<dyn Operator> = match sub.as_str() {
        "gemm" => {
            let [m, n, k] = a.positional[..] else { usage() };
            Box::new(MatmulOp::new(m, n, k))
        }
        // A profile is of *one* schedule space, so `auto` (which races
        // three decompositions) makes no sense here; default implicit.
        "conv" => conv_methods(&a, "implicit", false)[0].build(conv_shape(&a)),
        _ => usage(),
    };
    let cands = Scheduler::new(cfg.clone()).enumerate(op.as_ref());
    let name = op.name();
    // Candidate selection: by enumeration index, by describe substring, or
    // (for the primary only) defaulting to the model tuner's winner.
    let select = |cand_flag: &str, select_flag: &str| -> Option<usize> {
        if let Some(v) = a.flags.get(cand_flag) {
            let i: usize = v.parse().unwrap_or_else(|_| usage());
            if i >= cands.len() {
                eprintln!(
                    "swatop_cli: --{cand_flag} {i} out of range ({} candidates)",
                    cands.len()
                );
                std::process::exit(2);
            }
            return Some(i);
        }
        a.flags.get(select_flag).map(|s| {
            cands.iter().position(|c| c.describe.contains(s.as_str())).unwrap_or_else(|| {
                eprintln!("swatop_cli: no candidate matches --{select_flag} {s:?}");
                std::process::exit(2);
            })
        })
    };
    let a_idx = select("candidate", "select").unwrap_or_else(|| {
        // Default: profile what you'd ship — the winner of the model's top 3.
        let opts = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
        match tune(&cfg, &cands, &opts, None) {
            Ok(outcome) => outcome.best,
            Err(e) => {
                eprintln!("swatop_cli: {e}");
                std::process::exit(1);
            }
        }
    });
    let profile = |i: usize| -> CandidateProfile {
        profile_candidate(&cfg, &name, i, &cands[i]).expect("profile run")
    };
    let pa = profile(a_idx);

    if let Some(b_idx) = select("diff", "diff-select") {
        let pb = profile(b_idx);
        let d = diff(&pa, &pb);
        print!("{}", diff_report(&d));
        if let Some(path) = a.flags.get("out") {
            std::fs::write(path, diff_json(&d)).expect("write diff JSON");
            println!("diff     : {path}");
        }
        return;
    }

    println!("operator : {name}");
    println!("candidate: #{} of {}", pa.index, cands.len());
    println!("schedule : {}", pa.describe);
    println!("cycles   : {} (bottleneck: {})", pa.cycles.get(), pa.bottleneck.name());
    let t = &pa.timeline;
    println!(
        "timeline : {} cycles traced over {} events; dma busy {}, compute busy {}, \
         overlap {}, stall {}, regcomm {}",
        t.total,
        t.events,
        t.dma_busy(),
        t.compute_busy(),
        t.overlap_cycles(),
        t.stall_cycles(),
        t.regcomm_cycles()
    );
    if t.truncated {
        println!(
            "warning  : trace truncated at {PROFILE_TRACE_CAP} events; \
             the profile covers only a prefix of the run"
        );
    }
    println!(
        "  {:<9} {:>12} {:>7} {:>7} {:>10} {:>10}",
        "phase", "cycles", "dma%", "comp%", "stall", "overlap"
    );
    for p in &t.phases {
        println!(
            "  {:<9} {:>12} {:>6.1}% {:>6.1}% {:>10} {:>10}",
            p.kind.name(),
            p.cycles(),
            100.0 * p.dma_occupancy(),
            100.0 * p.compute_occupancy(),
            p.stall,
            p.overlap
        );
    }
    if let Some(path) = a.flags.get("out") {
        std::fs::write(path, profile_json(&pa)).expect("write profile JSON");
        println!("profile  : {path}");
    }
    if let Some(path) = a.flags.get("perfetto") {
        std::fs::write(path, profile_perfetto(&pa, cfg.clock_ghz)).expect("write perfetto JSON");
        println!("perfetto : {path} (open in ui.perfetto.dev)");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let cmd = argv[0].as_str();
    if cmd == "profile" {
        // `profile` takes its own sub-operator word before the numeric
        // positionals, so it parses from argv[2].
        run_profile(&argv[1..]);
        return;
    }
    if cmd == "report" {
        // Standalone flight report straight from the committed journal: no
        // tuning, no live accounting.
        let a = parse_args(&argv[1..]);
        let journal_path = a
            .flags
            .get("journal")
            .cloned()
            .unwrap_or_else(|| swatop_bench::journal::DEFAULT_PATH.to_string());
        let out = a.flags.get("out").cloned().unwrap_or_else(|| "flight.html".to_string());
        let journal = Journal::load(Path::new(&journal_path)).unwrap_or_else(|e| {
            eprintln!("swatop_cli: {e}");
            std::process::exit(1);
        });
        let html = flight_html(&journal, a.flags.get("label").map(String::as_str), None);
        std::fs::write(&out, html).expect("write flight report");
        println!("flight   : {out} ({} journal record(s))", journal.records.len());
        return;
    }
    let a = parse_args(&argv[1..]);
    let fault = a
        .flags
        .get("faults")
        .map(|v| FaultPlan::with_seed(v.parse().unwrap_or_else(|_| usage())))
        .or_else(FaultPlan::from_env);
    let cfg = MachineConfig { fault, ..MachineConfig::default() };
    let jobs = pool::resolve_jobs(
        a.flags.get("jobs").map(|v| v.parse().unwrap_or_else(|_| usage())),
    );
    let resume = a.flags.get("resume").map(PathBuf::from);
    let instrument = ["telemetry", "trace-timeline", "verbose", "json", "corpus"]
        .iter()
        .any(|f| a.flags.contains_key(*f));
    let strict_validate = a.flags.contains_key("strict-validate");
    let obs = Observability::from_args(&a);
    // Validate winning schedules, with quarantine-and-fallback.
    let validate = a.flags.contains_key("validate") || strict_validate;
    let resuming = resume.is_some();
    let checkpoint = resume.or_else(|| a.flags.get("checkpoint").map(PathBuf::from));
    let base = TuneOptions {
        jobs,
        checkpoint: checkpoint
            .map(|path| CheckpointPolicy { resume: resuming, ..CheckpointPolicy::new(path) }),
        // One recorder shared by every tuned operator; without an
        // instrumenting flag the tuning hot path stays uninstrumented.
        telemetry: instrument.then(Telemetry::new),
        tiers: tuner_policy(&a, cmd == "bench"),
        bus: obs.bus.clone(),
        monitor: obs.monitor.clone(),
    };
    let ops: Vec<Box<dyn Operator>> = match cmd {
        "bench" => {
            let num = |k: &str, d: u64| {
                a.flags.get(k).map_or(d, |v| v.parse().unwrap_or_else(|_| usage()))
            };
            let bench = swatop_bench::journal::BenchOpts {
                label: a.flags.get("label").cloned().unwrap_or_else(|| "default".to_string()),
                smoke: a.flags.contains_key("smoke"),
                handicap: num("handicap", 1),
                faults: cfg.fault.map(|p| p.seed),
                validate,
                corpus: a.flags.get("corpus").map(PathBuf::from),
                // Every op of the set under one policy; a checkpoint file is
                // one sweep's, so the set takes none.
                tune: TuneOptions { checkpoint: None, ..base },
            };
            let repeats = num("repeats", 1);
            let mut bench_quarantined = 0u64;
            for _ in 0..repeats {
                let record = swatop_bench::journal::run_bench(&bench);
                bench_quarantined += record.quarantined;
                swatop_bench::journal::record_table(&record).print();
                if record.quarantined > 0 {
                    println!("validate : {} winner(s) quarantined this run", record.quarantined);
                }
                if let Some(path) = a.flags.get("journal") {
                    swatop_bench::journal::Journal::append(
                        std::path::Path::new(path),
                        record,
                    )
                    .expect("append bench journal");
                    println!("journal  : appended to {path}");
                }
            }
            let journal_path = a
                .flags
                .get("journal")
                .cloned()
                .unwrap_or_else(|| swatop_bench::journal::DEFAULT_PATH.to_string());
            obs.finish(Path::new(&journal_path), a.flags.get("label").map(String::as_str), &[]);
            if strict_validate && bench_quarantined > 0 {
                eprintln!(
                    "swatop_cli: --strict-validate: {bench_quarantined} quarantined winner(s)"
                );
                std::process::exit(1);
            }
            return;
        }
        "gemm" => {
            let [m, n, k] = a.positional[..] else { usage() };
            vec![Box::new(MatmulOp::new(m, n, k))]
        }
        "conv" => {
            let shape = conv_shape(&a);
            conv_methods(&a, "auto", true).iter().map(|m| m.build(shape)).collect()
        }
        "bwd-data" => vec![Box::new(ConvBackwardDataOp::new(conv_shape(&a)))],
        "bwd-filter" => vec![Box::new(ConvBackwardFilterOp::new(conv_shape(&a)))],
        _ => usage(),
    };
    // Several operators race (`conv --method auto`); the fastest is reported.
    let mut quarantined = 0usize;
    let mut best: Option<(String, TunedOp)> = None;
    for (slot, op) in ops.iter().enumerate() {
        let name = op.name();
        let opts = slot_options(&base, slot, ops.len());
        if let Some(t) = tune_op(&cfg, op.as_ref(), &name, &opts, validate) {
            quarantined += t.outcome.quarantined;
            if best.as_ref().is_none_or(|(_, b)| t.cycles < b.cycles) {
                best = Some((name, t));
            }
        }
    }
    let (name, t) = best.expect("no valid schedule for this operator");
    let summary = base.telemetry.as_ref().map(|tel| tel.summary(&Peaks::of(&cfg)));
    let truncated = report(&cfg, &name, &t, &a, summary.as_ref());
    if let Some(summary) = &summary {
        let json_mode = a.flags.contains_key("json");
        let path = |flag: &str| a.flags.get(flag).map(Path::new);
        let written =
            write_exports(summary, path("telemetry"), path("trace-timeline"), path("corpus"));
        if !json_mode {
            written.iter().for_each(|line| println!("{line}"));
        }
        if a.flags.contains_key("verbose") && !json_mode {
            println!();
            telemetry_summary(summary).print();
            roofline_table(summary).print();
        }
    }
    obs.finish(Path::new(swatop_bench::journal::DEFAULT_PATH), None, &truncated);
    // The gate runs last so telemetry artifacts are still written for
    // post-mortem inspection of the quarantined schedules.
    if strict_validate && quarantined > 0 {
        eprintln!("swatop_cli: --strict-validate: {quarantined} quarantined winner(s)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flag_of_the_usage_text_is_accepted_and_no_other() {
        let mut named: Vec<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).next().unwrap())
            .collect();
        named.sort_unstable();
        named.dedup();
        let mut listed: Vec<&str> = BOOL_FLAGS.iter().chain(VALUE_FLAGS).copied().collect();
        listed.sort_unstable();
        assert_eq!(named, listed, "the usage text and the two flag lists disagree");
        // Deleted and misspelt flags are not quietly ignored.
        for gone in ["tiers", "ladder", "verbos", "job", ""] {
            assert_eq!(takes_value(gone), None, "--{gone}");
        }
        assert_eq!(takes_value("smoke"), Some(false));
        assert_eq!(takes_value("tuner"), Some(true));
    }
}
