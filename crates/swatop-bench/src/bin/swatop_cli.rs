//! `swatop_cli` — the one command line: tune an operator (`gemm`, `conv`,
//! `bwd-data`, `bwd-filter`), `profile` one schedule, journal the bench set
//! (`bench`), inspect and gate on the `journal`, and regenerate the paper's
//! `experiments`. Run it bare for the usage.
//!
//! The tune commands tune the requested operator with the
//! performance-model autotuner, report the chosen schedule and simulated
//! performance, write the generated C (`--out`) and optionally the trace
//! document (`--trace`, open in `ui.perfetto.dev`): the tuning run's spans
//! beside the winning schedule's phases and machine events.
//!
//! Every command reads the flags of its own usage groups (`COMMANDS`) and no
//! other: a flag it does not read, a flag without its value or a value that
//! does not parse exits 2 naming the flag.
//!
//! Fault tolerance: `--faults SEED` (or the `SWATOP_FAULT_SEED` env var)
//! tunes on a simulated flaky machine — transient DMA faults, SPM capacity
//! pressure and cycle-measurement jitter — exercising the retry/median
//! policy; the chosen schedule is still deterministic for a fixed seed.
//! `--checkpoint FILE` snapshots partial sweep state so an interrupted run
//! can be continued with `--resume FILE`, producing the same final answer
//! as an uninterrupted sweep.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sw26010::{FaultPlan, MachineConfig};
use swatop::observatory::Peaks;
use swatop::ops::{ConvBackwardDataOp, ConvBackwardFilterOp, MatmulOp};
use swatop::profiler::{profile_candidate, trace_json, CandidateProfile, PROFILE_TRACE_CAP};
use swatop::scheduler::{Operator, Scheduler};
use swatop::telemetry::bus::{EventBus, Subscriber};
use swatop::telemetry::{Summary, Telemetry};
use swatop::tuner::{pool, tune, CheckpointPolicy, TierPolicy, TuneOptions};
use swatop_bench::experiments::{self, Opts};
use swatop_bench::journal::{
    compare, consistency_warnings, convergence_lines, record_table, show_json, transition_lines,
    trend_lines, CompareOpts, Journal, DEFAULT_PATH,
};
use swatop_bench::report::{roofline_table, telemetry_summary, write_exports};
use swatop_bench::runner::{tune_op, ConvMethod, TunedOp};
use swtensor::ConvShape;

/// What follows a flag: nothing (a switch), any text, a non-negative integer
/// or a real. [`parse_args`] checks every value before a command runs, so a
/// command reads its flags without a failure path of its own.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Switch,
    Text,
    Int,
    Real,
}

use Kind::{Int, Real, Switch, Text};

/// A stretch of usage text and the flags it names.
struct Group {
    text: &'static str,
    flags: &'static [(&'static str, Kind)],
}

/// One command: the words that name it, how many numbers follow them, its
/// usage — a synopsis, then the help sections it shares with other
/// commands — and its body. It reads the flags its groups name and no other.
struct Command {
    name: &'static str,
    arity: usize,
    groups: &'static [&'static Group],
    run: fn(&Args),
}

const GEMM: Group =
    Group { text: "  swatop_cli gemm M N K [run flags] [tune flags] [live flags]", flags: &[] };

const CONV: Group = Group {
    text: "  swatop_cli conv B NI NO RO [--method implicit|winograd|explicit|auto] [shape flags]
             [run flags] [tune flags] [live flags]",
    flags: &[("method", Text)],
};

const BWD: Group = Group {
    text: "  swatop_cli bwd-data|bwd-filter B NI NO RO [shape flags]
             [run flags] [tune flags] [live flags]",
    flags: &[],
};

const BENCH: Group = Group {
    text: "  swatop_cli bench [--journal FILE] [--label L] [--repeats N] [--smoke] [--handicap N]
             [run flags] [live flags]
             run the canonical bench set, appending journal records",
    flags: &[
        ("journal", Text), ("label", Text), ("repeats", Int), ("smoke", Switch), ("handicap", Int),
    ],
};

const PROFILE_GEMM: Group =
    Group { text: "  swatop_cli profile gemm M N K [profile flags]", flags: &[] };

const PROFILE_CONV: Group = Group {
    text: "  swatop_cli profile conv B NI NO RO [--method implicit|winograd|explicit] [shape flags]
             [profile flags]
             cycle-resolved per-engine profile of one enumerated schedule",
    flags: &[("method", Text)],
};

const JOURNAL_VALIDATE: Group = Group {
    text: "  swatop_cli journal validate [--journal FILE]   (FILE: BENCH_swatop.json)",
    flags: &[("journal", Text)],
};

const JOURNAL_SHOW: Group = Group {
    text: "  swatop_cli journal show [--journal FILE] [--label L] [--json]
             the records with their search summaries and the per-op GFLOPS
             trend; --json prints them as one JSON document",
    flags: &[("journal", Text), ("label", Text), ("json", Switch)],
};

const JOURNAL_COMPARE: Group = Group {
    text: "  swatop_cli journal compare [--journal FILE] --baseline L1 --candidate L2
             [--wall-rel F] [--strict]
             regression gate (exit 1); median wall may grow by F (default 0.5);
             --strict also fails on mixed jobs or a throughput collapse",
    flags: &[
        ("journal", Text), ("baseline", Text), ("candidate", Text), ("wall-rel", Real),
        ("strict", Switch),
    ],
};

const EXPERIMENTS: Group = Group {
    text: "  swatop_cli experiments [--only LIST] [--smoke] [--jobs N]
             [--telemetry FILE] [--trace FILE]
             the paper's tables at paper sizes (--smoke: small samples);
             LIST is a comma-separated subset of fig5..fig7, fig9..fig11,
             table1..table3 (Fig. 8 is table1's second table); only an
             unfiltered run writes EXPERIMENTS_RESULTS.md; --trace writes the
             tuning runs' spans as a trace document",
    flags: &[
        ("only", Text), ("smoke", Switch), ("jobs", Int),
        ("telemetry", Text), ("trace", Text),
    ],
};

const SHAPE: Group = Group {
    text: "shape flags: [--kernel K] [--stride S] [--pad P]
  square kernel K (default 3), stride S (default 1), zero padding P (default 0)",
    flags: &[("kernel", Int), ("stride", Int), ("pad", Int)],
};

const RUN: Group = Group {
    text: "run flags:
  --validate        validate the winning schedule before reporting it
                    (static legality check + differential functional run
                    against the golden reference); a rejected winner is
                    quarantined and the tuner falls back to the next-best
  --strict-validate like --validate, but exit non-zero if any winner
                    was quarantined (CI gate: zero quarantined winners)
  --jobs N          tuner worker threads (0/omitted = all cores, 1 = serial;
                    the chosen schedule is identical for every value)
  --tuner model|blackbox|tiered
                    model (default; not for bench): execute only the model's top picks;
                    blackbox: execute the whole space on the scoreboard;
                    tiered (bench default): analytic screen, then adaptive
                    scoreboard top-k, then functional winner validation
  --faults SEED     tune under injected faults (DMA drops, SPM pressure,
                    measurement jitter); SWATOP_FAULT_SEED works too
  --corpus FILE     write the feature corpus: one JSONL row per measured
                    candidate (knobs, counters, cycles, bottleneck), sorted
                    by (operator, index) so bytes are the same for every --jobs",
    flags: &[
        ("validate", Switch), ("strict-validate", Switch), ("jobs", Int), ("tuner", Text),
        ("faults", Int), ("corpus", Text),
    ],
};

const TUNE: Group = Group {
    text: "tune flags:
  --out FILE        write generated C code
  --trace FILE      write the trace document (open in ui.perfetto.dev): the
                    tuning run's spans, one track per tuner worker, beside the
                    winning schedule's phases and machine events
  --checkpoint FILE periodically snapshot sweep state to FILE
  --resume FILE     load FILE before tuning and continue the sweep
                    (implies --checkpoint FILE)
  --telemetry FILE  write a JSON telemetry snapshot (per-candidate
                    predicted/measured cycles, machine counters, model accuracy)
  --verbose         print the per-run telemetry summary (counters, MAPE,
                    rank correlation) and the per-candidate roofline table
                    (bottleneck class, % of peak GFLOPS / DMA bandwidth)
  --json            machine-readable result: one JSON object on stdout
                    (result summary + full telemetry snapshot), no human text",
    flags: &[
        ("out", Text), ("trace", Text), ("checkpoint", Text), ("resume", Text), ("telemetry", Text),
        ("verbose", Switch), ("json", Switch),
    ],
};

const LIVE: Group = Group {
    text: "live flags:
  --quiet           no progress lines on stderr and no event bus
                    (results are bit-identical either way)",
    flags: &[("quiet", Switch)],
};

const PROFILE: Group = Group {
    text: "profile flags:
  --candidate N | --select SUBSTR   pick candidate A (default: tuned winner)
  --diff N | --diff-select SUBSTR   diff mode: compare A against candidate B
  --out FILE                        profile (or diff) JSON artifact
  --trace FILE                      trace document of A (and B) for ui.perfetto.dev",
    flags: &[
        ("candidate", Int), ("select", Text), ("diff", Int), ("diff-select", Text), ("out", Text),
        ("trace", Text),
    ],
};

/// Every command, in usage order.
const COMMANDS: &[Command] = &[
    Command { name: "gemm", arity: 3, groups: &[&GEMM, &RUN, &TUNE, &LIVE], run: run_tune },
    Command { name: "conv", arity: 4, groups: &[&CONV, &SHAPE, &RUN, &TUNE, &LIVE], run: run_tune },
    Command { name: "bwd-data", arity: 4, groups: &[&BWD, &SHAPE, &RUN, &TUNE, &LIVE], run: run_tune },
    Command { name: "bwd-filter", arity: 4, groups: &[&BWD, &SHAPE, &RUN, &TUNE, &LIVE], run: run_tune },
    Command { name: "bench", arity: 0, groups: &[&BENCH, &RUN, &LIVE], run: run_bench },
    Command { name: "profile gemm", arity: 3, groups: &[&PROFILE_GEMM, &PROFILE], run: run_profile },
    Command { name: "profile conv", arity: 4, groups: &[&PROFILE_CONV, &SHAPE, &PROFILE], run: run_profile },
    Command { name: "journal validate", arity: 0, groups: &[&JOURNAL_VALIDATE], run: run_journal },
    Command { name: "journal show", arity: 0, groups: &[&JOURNAL_SHOW], run: run_journal },
    Command { name: "journal compare", arity: 0, groups: &[&JOURNAL_COMPARE], run: run_journal },
    Command { name: "experiments", arity: 0, groups: &[&EXPERIMENTS], run: run_experiments },
];

impl Command {
    /// This command's synopsis and help sections.
    fn usage(&self) -> String {
        let texts: Vec<&str> = self.groups.iter().map(|g| g.text).collect();
        format!("usage:\n{}", texts.join("\n"))
    }

    /// The flag `--name` of this command, if it reads one.
    fn flag(&self, name: &str) -> Option<(&'static str, Kind)> {
        self.groups.iter().flat_map(|g| g.flags).find(|(flag, _)| *flag == name).copied()
    }

    /// A usage error: `msg`, then this command's usage.
    fn error(&self, msg: impl std::fmt::Display) -> String {
        format!("swatop_cli {}: {msg}\n{}", self.name, self.usage())
    }
}

/// Every command's synopsis, then each help section, each once.
fn usage() -> String {
    let mut texts: Vec<&str> = Vec::new();
    let synopses = COMMANDS.iter().map(|c| &c.groups[0]);
    for group in synopses.chain(COMMANDS.iter().flat_map(|c| &c.groups[1..])) {
        if !texts.contains(&group.text) {
            texts.push(group.text);
        }
    }
    format!("usage:\n{}", texts.join("\n"))
}

/// One command line, checked against its command's flags.
struct Args {
    cmd: &'static Command,
    positional: Vec<usize>,
    flags: HashMap<&'static str, String>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The value of an `Int` or `Real` flag.
    fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.text(flag).map(|v| v.parse().ok().expect("parse_args checked the value"))
    }

    /// The numbers after the command's words.
    fn dims<const N: usize>(&self) -> [usize; N] {
        self.positional[..].try_into().expect("parse_args checked the arity")
    }

    /// Exit 2 naming what is wrong with this command line.
    fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("{}", self.cmd.error(msg));
        exit(2)
    }
}

/// Read `argv` (the words after the command's name) against the flags of
/// command `cmd` alone. An error names the command, the flag or value at
/// fault, and lists the command's flags.
fn parse_args(cmd: &str, argv: &[String]) -> Result<Args, String> {
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        return Err(format!("swatop_cli: unknown command {cmd:?}\n{}", usage()));
    };
    let mut a = Args { cmd: command, positional: Vec::new(), flags: HashMap::new() };
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        let Some(name) = word.strip_prefix("--") else {
            let n = word.parse().map_err(|_| command.error(format!("`{word}` is not a number")))?;
            a.positional.push(n);
            continue;
        };
        let Some((name, kind)) = command.flag(name) else {
            return Err(command.error(format!("unknown flag --{name}")));
        };
        let value = match kind {
            Switch => "",
            _ => words.next().ok_or_else(|| command.error(format!("--{name} needs a value")))?,
        };
        let parses = match kind {
            Int => value.parse::<u64>().is_ok(),
            Real => value.parse::<f64>().is_ok(),
            Switch | Text => true,
        };
        if !parses {
            return Err(command.error(format!("--{name}: `{value}` is not a number")));
        }
        a.flags.insert(name, value.to_string());
    }
    if a.positional.len() != command.arity {
        let msg = format!("takes {} numbers, got {}", command.arity, a.positional.len());
        return Err(command.error(msg));
    }
    Ok(a)
}

/// `B NI NO RO [--kernel K] [--stride S] [--pad P]`: the convolution a
/// `conv` / `bwd-*` / `profile conv` command names.
fn conv_shape(a: &Args) -> ConvShape {
    let [b, ni, no, ro] = a.dims();
    let (kernel, stride, pad) =
        (a.num("kernel").unwrap_or(3), a.num("stride").unwrap_or(1), a.num("pad").unwrap_or(0));
    ConvShape { b, ni, no, ro, co: ro, kr: kernel, kc: kernel, stride, pad }
}

/// `--method`: the decompositions to tune, `auto` (where allowed) being all
/// three.
fn conv_methods(a: &Args, default: &str, auto: bool) -> Vec<ConvMethod> {
    match a.text("method").unwrap_or(default) {
        "auto" if auto => vec![ConvMethod::Implicit, ConvMethod::Winograd, ConvMethod::Explicit],
        name => {
            let method = ConvMethod::parse(name);
            vec![method.unwrap_or_else(|| a.fail(format!("unknown --method {name}")))]
        }
    }
}

/// What `--tuner` asks [`tune`] to measure: `model` only the analytic
/// model's top 3, `blackbox` the whole space, `tiered` the adaptive ladder.
/// `bench` runs the ladder by default and journals only the two
/// [`TierMode`](swatop::tuner::TierMode)s, so it takes no `model`.
fn tuner_policy(a: &Args, bench: bool) -> TierPolicy {
    let default = if bench { "tiered" } else { "model" };
    match a.text("tuner").unwrap_or(default) {
        "model" if !bench => TierPolicy::top_k(3),
        "blackbox" => TierPolicy::exhaustive(),
        "tiered" => TierPolicy::default(),
        name => a.fail(format!("--tuner {name} is not a {} policy", a.cmd.name)),
    }
}

/// The machine the run commands tune on: `--faults SEED`, else
/// `SWATOP_FAULT_SEED`, attaches a fault plan.
fn machine(a: &Args) -> MachineConfig {
    let fault = a.num("faults").map(FaultPlan::with_seed).or_else(FaultPlan::from_env);
    MachineConfig { fault, ..MachineConfig::default() }
}

/// Write the exports `--telemetry` and `--corpus` ask for and, unless
/// `--json`, say where each went.
fn export(a: &Args, summary: &Summary) {
    let path = |flag: &str| a.text(flag).map(Path::new);
    let written = write_exports(summary, path("telemetry"), path("corpus"));
    if !a.has("json") {
        written.iter().for_each(|line| println!("{line}"));
    }
}

/// Write the trace document `--trace` asks for: the tuner's spans of
/// `summary`, then one process per profile. A profile's trace that hit its
/// event cap is named on stderr.
fn write_trace(
    a: &Args,
    summary: Option<&Summary>,
    profiles: &[&CandidateProfile],
    clock_ghz: f64,
) {
    let Some(path) = a.text("trace") else { return };
    std::fs::write(path, trace_json(summary, profiles, clock_ghz)).expect("write trace");
    if !a.has("json") {
        println!("trace    : {path} (open in ui.perfetto.dev)");
    }
    if profiles.iter().any(|p| p.timeline.truncated) {
        eprintln!("swatop: trace {path} truncated at {PROFILE_TRACE_CAP} events");
    }
}

/// Write the line of every event buffered in `sub` to `out`, and after the
/// `last` drain how many events the ring lost, so a short stream says so.
fn print_progress(sub: &Subscriber, last: bool, out: &mut impl std::io::Write) {
    for e in sub.drain() {
        let _ = writeln!(out, "swatop: {}", e.progress_line());
    }
    if last && sub.dropped() > 0 {
        let _ = writeln!(out, "swatop: progress: {} events dropped", sub.dropped());
    }
}

/// Live observability for one CLI invocation: the event bus and the thread
/// that prints its events to **stderr** (stdout stays machine-readable
/// under `--json`). Report-only — winners, cycles and journal records are
/// bit-identical with it on or off (`--quiet`).
struct Observability {
    bus: EventBus,
    stop: Arc<AtomicBool>,
    printer: std::thread::JoinHandle<()>,
}

impl Observability {
    /// The bus and its printer, or `None` under `--quiet`.
    fn from_args(a: &Args) -> Option<Observability> {
        if a.has("quiet") {
            return None;
        }
        let bus = EventBus::new();
        let sub = bus.subscribe(4096);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let printer = std::thread::Builder::new()
            .name("swatop-progress".to_string())
            .spawn(move || loop {
                let last = stopped.load(Ordering::Acquire);
                print_progress(&sub, last, &mut std::io::stderr().lock());
                if last {
                    return;
                }
                // `finish` unparks, so the last drain does not wait out the nap.
                std::thread::park_timeout(Duration::from_millis(50));
            })
            .expect("spawn progress printer");
        Some(Observability { bus, stop, printer })
    }

    /// Print what is still buffered and stop the printer.
    fn finish(self) {
        self.stop.store(true, Ordering::Release);
        self.printer.thread().unpark();
        let _ = self.printer.join();
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

/// Print the result and write the requested artifacts.
fn report(cfg: &MachineConfig, name: &str, tuned: &TunedOp, a: &Args, summary: Option<&Summary>) {
    let TunedOp { flops, winner, outcome, .. } = tuned;
    let flops = *flops;
    let json_mode = a.has("json");
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
        if a.has("verbose") {
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
    if let Some(path) = a.text("out") {
        std::fs::write(path, winner.exe.emit_c()).expect("write C file");
        if !json_mode {
            println!("C code   : {path}");
        }
    }
    if !a.has("trace") {
        return;
    }
    // The winner's profile describes the *code*: `profile_candidate` runs it
    // on the clean machine even when tuning was fault-injected.
    let p = profile_candidate(cfg, name, outcome.best, winner).expect("trace run");
    write_trace(a, summary, &[&p], cfg.clock_ghz);
}

/// `profile gemm` / `profile conv`: re-run one enumerated candidate cost-only with
/// tracing enabled and report where its cycles go (per-engine busy spans,
/// prologue/steady/epilogue phases). With `--diff`, profile a second
/// candidate of the same operator and attribute the cycle delta to the
/// schedule knobs that changed.
fn run_profile(a: &Args) {
    use swatop::profiler::{diff, diff_json, diff_report, profile_json};

    // Profiles always run on the clean machine: they explain where a
    // schedule's cycles go, which fault jitter would only blur.
    let cfg = MachineConfig::default();
    let op: Box<dyn Operator> = if a.cmd.name == "profile gemm" {
        let [m, n, k] = a.dims();
        Box::new(MatmulOp::new(m, n, k))
    } else {
        // A profile is of *one* schedule space, so `auto` (which races
        // three decompositions) makes no sense here; default implicit.
        conv_methods(a, "implicit", false)[0].build(conv_shape(a))
    };
    let cands = Scheduler::new(cfg.clone()).enumerate(op.as_ref());
    let name = op.name();
    // Candidate selection: by enumeration index, by describe substring, or
    // (for the primary only) defaulting to the model tuner's winner.
    let select = |cand_flag: &str, select_flag: &str| -> Option<usize> {
        if let Some(i) = a.num::<usize>(cand_flag) {
            if i >= cands.len() {
                a.fail(format!("--{cand_flag} {i} out of range ({} candidates)", cands.len()));
            }
            return Some(i);
        }
        a.text(select_flag).map(|s| {
            let found = cands.iter().position(|c| c.describe.contains(s));
            found.unwrap_or_else(|| a.fail(format!("no candidate matches --{select_flag} {s:?}")))
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
        if let Some(path) = a.text("out") {
            std::fs::write(path, diff_json(&d)).expect("write diff JSON");
            println!("diff     : {path}");
        }
        write_trace(a, None, &[&pa, &pb], cfg.clock_ghz);
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
    if let Some(path) = a.text("out") {
        std::fs::write(path, profile_json(&pa)).expect("write profile JSON");
        println!("profile  : {path}");
    }
    write_trace(a, None, &[&pa], cfg.clock_ghz);
}

/// `gemm` / `conv` / `bwd-data` / `bwd-filter`: tune one operator (`conv
/// --method auto` races three) and report the fastest.
fn run_tune(a: &Args) {
    let cfg = machine(a);
    let instrument = ["telemetry", "trace", "verbose", "json", "corpus"].iter().any(|f| a.has(f));
    let strict_validate = a.has("strict-validate");
    let obs = Observability::from_args(a);
    // Validate winning schedules, with quarantine-and-fallback.
    let validate = a.has("validate") || strict_validate;
    let checkpoint = a.text("resume").or(a.text("checkpoint")).map(|path| CheckpointPolicy {
        resume: a.has("resume"),
        ..CheckpointPolicy::new(PathBuf::from(path))
    });
    let base = TuneOptions {
        jobs: pool::resolve_jobs(a.num("jobs")),
        checkpoint,
        // One recorder shared by every tuned operator; without an
        // instrumenting flag the tuning hot path stays uninstrumented.
        telemetry: instrument.then(Telemetry::new),
        tiers: tuner_policy(a, false),
        bus: obs.as_ref().map(|o| o.bus.clone()),
    };
    let ops: Vec<Box<dyn Operator>> = match a.cmd.name {
        "gemm" => {
            let [m, n, k] = a.dims();
            vec![Box::new(MatmulOp::new(m, n, k))]
        }
        "conv" => {
            let shape = conv_shape(a);
            conv_methods(a, "auto", true).iter().map(|m| m.build(shape)).collect()
        }
        "bwd-data" => vec![Box::new(ConvBackwardDataOp::new(conv_shape(a)))],
        _ => vec![Box::new(ConvBackwardFilterOp::new(conv_shape(a)))],
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
    report(&cfg, &name, &t, a, summary.as_ref());
    if let Some(summary) = &summary {
        export(a, summary);
        if a.has("verbose") && !a.has("json") {
            println!();
            telemetry_summary(summary).print();
            roofline_table(summary).print();
        }
    }
    if let Some(obs) = obs {
        obs.finish();
    }
    // The gate runs last so telemetry artifacts are still written for
    // post-mortem inspection of the quarantined schedules.
    if strict_validate && quarantined > 0 {
        eprintln!("swatop_cli: --strict-validate: {quarantined} quarantined winner(s)");
        exit(1);
    }
}

/// `bench`: run the canonical bench set `--repeats` times, appending one
/// journal record per run to `--journal`.
fn run_bench(a: &Args) {
    let obs = Observability::from_args(a);
    let bench = swatop_bench::journal::BenchOpts {
        label: a.text("label").unwrap_or("default").to_string(),
        smoke: a.has("smoke"),
        handicap: a.num("handicap").unwrap_or(1),
        faults: machine(a).fault.map(|p| p.seed),
        validate: a.has("validate") || a.has("strict-validate"),
        corpus: a.text("corpus").map(PathBuf::from),
        // Every op of the set under one policy; the run records under a
        // recorder of its own.
        tune: TuneOptions {
            jobs: pool::resolve_jobs(a.num("jobs")),
            tiers: tuner_policy(a, true),
            bus: obs.as_ref().map(|o| o.bus.clone()),
            ..TuneOptions::default()
        },
    };
    let mut bench_quarantined = 0u64;
    for _ in 0..a.num("repeats").unwrap_or(1u64) {
        let record = swatop_bench::journal::run_bench(&bench);
        bench_quarantined += record.quarantined;
        record_table(&record).print();
        if record.quarantined > 0 {
            println!("validate : {} winner(s) quarantined this run", record.quarantined);
        }
        if let Some(path) = a.text("journal") {
            Journal::append(Path::new(path), record).expect("append bench journal");
            println!("journal  : appended to {path}");
        }
    }
    if let Some(obs) = obs {
        obs.finish();
    }
    if a.has("strict-validate") && bench_quarantined > 0 {
        eprintln!("swatop_cli: --strict-validate: {bench_quarantined} quarantined winner(s)");
        exit(1);
    }
}

/// `journal validate|show|compare`: inspect and gate on the bench journal.
/// `compare` does the noise-aware regression check (median + MAD over each
/// label's repeated records) and exits 1 when any gate trips, so CI can use
/// it directly.
fn run_journal(a: &Args) {
    let path = PathBuf::from(a.text("journal").unwrap_or(DEFAULT_PATH));
    let journal = Journal::load(&path).unwrap_or_else(|e| {
        eprintln!("swatop_cli: {e}");
        exit(2)
    });

    match a.cmd.name {
        "journal validate" => {
            println!(
                "{}: valid (schema {}, {} records)",
                path.display(),
                swatop_bench::journal::SCHEMA_VERSION,
                journal.records.len()
            );
        }
        "journal show" => {
            if a.has("json") {
                println!("{}", show_json(&journal, a.text("label")));
                return;
            }
            let records: Vec<_> = match a.text("label") {
                Some(l) => journal.with_label(l),
                None => journal.records.iter().collect(),
            };
            if records.is_empty() {
                println!("{}: no matching records", path.display());
            }
            for r in &records {
                record_table(r).print();
                println!(
                    "  model: mape {} %, rank corr {}; mix: {}",
                    r.mape_pct.map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                    r.rank_correlation.map_or_else(|| "-".into(), |v| format!("{v:.3}")),
                    r.mix.summary()
                );
                // The two oldest committed records predate the throughput fields.
                if r.candidates_evaluated > 0 {
                    println!(
                        "  tuner: {} candidates evaluated at {:.0}/s \
                         (screened {} / measured {} / validated {})",
                        r.candidates_evaluated,
                        r.cands_per_sec,
                        r.tiers.screened,
                        r.tiers.measured,
                        r.tiers.validated
                    );
                }
                for line in convergence_lines(r) {
                    println!("  search: {line}");
                }
                println!();
            }
            // The cross-record trajectory: per-op GFLOPS with deltas.
            let trends = trend_lines(&records);
            if !trends.is_empty() {
                println!("GFLOPS trend across {} record(s):", records.len());
                for line in trends {
                    println!("  {line}");
                }
            }
        }
        _ => {
            let (Some(base), Some(cand)) = (a.text("baseline"), a.text("candidate")) else {
                a.fail("--baseline and --candidate are both required")
            };
            let wall_rel = a.num("wall-rel").unwrap_or(CompareOpts::default().wall_rel);
            let opts = CompareOpts { wall_rel };
            let strict = a.has("strict");
            let b = journal.with_label(base);
            let c = journal.with_label(cand);
            println!(
                "comparing {} baseline ({base:?}) vs {} candidate ({cand:?}) records",
                b.len(),
                c.len()
            );
            for line in transition_lines(&b, &c) {
                println!("{line}");
            }
            let warnings = consistency_warnings(&b, &c);
            for w in &warnings {
                println!("{}: {w}", if strict { "FAILURE" } else { "warning" });
            }
            let regressions = compare(&b, &c, &opts);
            let failures = regressions.len() + if strict { warnings.len() } else { 0 };
            if failures == 0 {
                println!("OK: no regression");
            } else {
                for r in &regressions {
                    println!("{r}");
                }
                exit(1);
            }
        }
    }
}

/// The experiment harness options an `experiments` command line asks for.
fn experiment_opts(a: &Args) -> Opts {
    Opts {
        smoke: a.has("smoke"),
        jobs: pool::resolve_jobs(a.num("jobs")),
        telemetry: (a.has("telemetry") || a.has("trace")).then(Telemetry::new),
    }
}

/// `experiments`: run the paper experiments in sequence — all of them, or
/// the ones `--only` names — and, when nothing was filtered out, write the
/// collected tables to `EXPERIMENTS_RESULTS.md` (consumed by
/// `EXPERIMENTS.md`).
fn run_experiments(a: &Args) {
    let names: Vec<&str> = experiments::ALL.iter().map(|&(name, ..)| name).collect();
    let only: Option<Vec<&str>> = a.text("only").map(|list| list.split(',').collect());
    if only.iter().flatten().any(|name| !names.contains(name)) {
        a.fail(format!("--only takes a comma-separated list of: {}", names.join(", ")));
    }
    let opts = experiment_opts(a);
    let picked = |name: &str| only.as_ref().is_none_or(|only| only.contains(&name));
    let selected: Vec<_> = experiments::ALL.iter().filter(|&&(name, ..)| picked(name)).collect();
    println!("swATOP reproduction — all experiments (opts: {opts:?})");
    let mut md = String::new();
    let _ = writeln!(md, "# swATOP reproduction — measured results\n");
    let _ = writeln!(
        md,
        "Generated by `swatop_cli experiments` with options `{opts:?}` \
         (simulated SW26010 core group, see DESIGN.md).\n"
    );

    let t0 = Instant::now();
    for (_, title, run) in &selected {
        println!("==> {title}");
        let _ = writeln!(md, "## {title}\n");
        for t in run(&opts) {
            let rendered = t.render();
            println!("{rendered}");
            let _ = writeln!(md, "{rendered}");
        }
    }

    if let Some(tel) = &opts.telemetry {
        let cfg = experiments::machine();
        let summary = tel.summary(&Peaks::of(&cfg));
        export(a, &summary);
        write_trace(a, Some(&summary), &[], cfg.clock_ghz);
        telemetry_summary(&summary).print();
    }

    if selected.len() < experiments::ALL.len() {
        println!("\n{} selected experiments done in {:?}", selected.len(), t0.elapsed());
        return;
    }
    let _ = writeln!(md, "\nTotal harness wall time: {:?}\n", t0.elapsed());
    std::fs::write("EXPERIMENTS_RESULTS.md", &md).expect("write results");
    println!(
        "\nAll experiments done in {:?}; tables written to EXPERIMENTS_RESULTS.md",
        t0.elapsed()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let words = |c: &Command| c.name.split(' ').count();
    let named = |c: &&Command| c.name.split(' ').eq(argv.iter().take(words(c)).map(String::as_str));
    let Some(cmd) = COMMANDS.iter().find(named) else {
        eprintln!("{}", usage());
        exit(2)
    };
    let a = parse_args(cmd.name, &argv[words(cmd)..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    });
    (cmd.run)(&a);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, argv: &[&str]) -> Result<Args, String> {
        parse_args(cmd, &argv.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    /// `parse_args`' error for a command line that must not run.
    fn error(cmd: &str, argv: &[&str]) -> String {
        parse(cmd, argv).err().unwrap_or_else(|| panic!("{cmd} {argv:?} was accepted"))
    }

    /// Every flag a command's usage text names, and no other, is accepted:
    /// each with a value of its kind after the command's numbers.
    #[test]
    fn every_command_accepts_exactly_the_flags_its_usage_names() {
        for cmd in COMMANDS {
            let usage = cmd.usage();
            let mut named: Vec<&str> = usage
                .split("--")
                .skip(1)
                .map(|rest| rest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).next().unwrap())
                .collect();
            named.sort_unstable();
            named.dedup();
            let flags: Vec<(&str, Kind)> = cmd.groups.iter().flat_map(|g| g.flags).copied().collect();
            let mut listed: Vec<&str> = flags.iter().map(|&(name, _)| name).collect();
            listed.sort_unstable();
            listed.dedup();
            assert_eq!(listed.len(), flags.len(), "{}: a flag is listed twice", cmd.name);
            assert_eq!(named, listed, "{}: the usage text and the flag table disagree", cmd.name);
            let dims = vec!["8"; cmd.arity];
            for (name, kind) in flags {
                let flag = format!("--{name}");
                let value = match kind {
                    Switch => None,
                    Text => Some("x"),
                    Int => Some("7"),
                    Real => Some("0.5"),
                };
                let argv: Vec<&str> = dims.iter().copied().chain([flag.as_str()]).chain(value).collect();
                let a = parse(cmd.name, &argv).unwrap_or_else(|e| panic!("{e}"));
                assert!(a.has(name), "{} {flag}", cmd.name);
            }
            assert!(error(cmd.name, &[&dims[..], &["--verbos"]].concat()).contains("unknown flag --verbos"));
        }
    }

    /// Each of these was accepted and then silently ignored when one global
    /// flag list served every command.
    #[test]
    fn a_flag_of_another_command_is_an_error_naming_it() {
        for (cmd, argv, flag) in [
            ("gemm", &["64", "64", "64", "--repeats", "3"][..], "--repeats"),
            ("bench", &["--smoke", "--telemetry", "t.json"], "--telemetry"),
            ("bench", &["--smoke", "--trace", "t.json"], "--trace"),
            ("profile gemm", &["96", "96", "96", "--jobs", "2"], "--jobs"),
            ("profile gemm", &["96", "96", "96", "--faults", "1"], "--faults"),
            ("experiments", &["--only", "fig5", "--smoke", "--faults", "1"], "--faults"),
            ("journal validate", &["--jobs", "2"], "--jobs"),
            ("journal show", &["--labl", "x"], "--labl"),
        ] {
            let err = error(cmd, argv);
            assert!(err.starts_with(&format!("swatop_cli {cmd}: unknown flag {flag}\n")), "{err}");
        }
    }

    #[test]
    fn a_value_flag_given_last_names_itself_and_lists_the_flags() {
        for cmd in COMMANDS {
            let dims = vec!["8"; cmd.arity];
            for &(name, kind) in cmd.groups.iter().flat_map(|g| g.flags) {
                if kind == Switch {
                    continue;
                }
                let flag = format!("--{name}");
                let err = error(cmd.name, &[&dims[..], &[flag.as_str()]].concat());
                let head = format!("swatop_cli {}: {flag} needs a value\n", cmd.name);
                assert!(err.starts_with(&head), "{err}");
                assert!(err.ends_with(&cmd.usage()), "no flag list: {err}");
            }
        }
    }

    #[test]
    fn a_value_or_number_that_does_not_parse_is_named() {
        let err = error("experiments", &["--jobs", "many"]);
        assert!(err.starts_with("swatop_cli experiments: --jobs: `many` is not a number"), "{err}");
        let err = error("journal compare", &["--wall-rel", "wide"]);
        assert!(err.contains("--wall-rel: `wide` is not a number"), "{err}");
        assert!(error("gemm", &["64", "x", "64"]).contains("`x` is not a number"));
        assert!(error("gemm", &["64", "64"]).contains("takes 3 numbers, got 2"));
        // The journal is a flag now, not a positional.
        assert!(error("journal validate", &["B.json"]).contains("`B.json` is not a number"));
        assert!(parse("journal", &[]).is_err() && parse("frobnicate", &[]).is_err());
    }

    /// A printer whose ring overflowed prints what it kept, then, after
    /// its last drain only, how many events it lost.
    #[test]
    fn the_printer_states_how_many_events_it_dropped() {
        use swatop::telemetry::bus::Event;
        let bus = EventBus::new();
        let sub = bus.subscribe(2);
        for done in 1..=5 {
            bus.emit(Event::CheckpointSaved { done, total: 5 });
        }
        let mut out = Vec::new();
        print_progress(&sub, false, &mut out);
        bus.emit(Event::SweepEnd { label: "s".into() });
        print_progress(&sub, true, &mut out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "swatop: checkpoint: 4/5 candidates settled\n\
             swatop: checkpoint: 5/5 candidates settled\n\
             swatop: sweep done : s\n\
             swatop: progress: 3 events dropped\n"
        );
        let mut clean = Vec::new();
        print_progress(&bus.subscribe(2), true, &mut clean);
        assert!(clean.is_empty());
    }

    #[test]
    fn values_land_in_their_fields() {
        let argv = ["--smoke", "--jobs", "3", "--trace", "t.json"];
        let o = experiment_opts(&parse("experiments", &argv).unwrap());
        assert_eq!((o.smoke, o.jobs), (true, 3));
        assert_eq!((o.spatial_cap(), o.gemm_cap(), o.blackbox_cap()), (Some(32), Some(2048), Some(16)));
        assert!(o.telemetry.is_some());
        let o = experiment_opts(&parse("experiments", &[]).unwrap());
        assert!(!o.smoke);
        assert_eq!((o.spatial_cap(), o.gemm_cap(), o.blackbox_cap()), (None, None, None));
        assert!(o.telemetry.is_none());

        let a = parse("conv", &["8", "16", "32", "14", "--kernel", "5", "--pad", "2"]).unwrap();
        let shape = conv_shape(&a);
        assert_eq!((shape.b, shape.ni, shape.no, shape.ro, shape.co), (8, 16, 32, 14, 14));
        assert_eq!((shape.kr, shape.kc, shape.stride, shape.pad), (5, 5, 1, 2));

        let a = parse("journal compare", &["--baseline", "a", "--candidate", "b", "--wall-rel", "1000"]).unwrap();
        assert_eq!((a.text("baseline"), a.text("candidate")), (Some("a"), Some("b")));
        assert_eq!(a.num::<f64>("wall-rel"), Some(1000.0));
        assert!(!a.has("strict") && a.text("journal").is_none());
    }
}
