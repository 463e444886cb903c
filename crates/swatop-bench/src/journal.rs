//! Bench journal: schema-versioned performance records in
//! `BENCH_swatop.json` at the repository root, plus a noise-aware
//! regression comparator (`swatop_cli journal compare`).
//!
//! A record captures one run of the canonical benchmark op set: harness
//! wall time, each op's tuned cycles and roofline position (achieved
//! GFLOPS, % of compute/DMA peak, bottleneck class), the model-accuracy
//! headline numbers (MAPE, Spearman rank correlation) and the run's
//! bottleneck mix, stamped with the git revision. Appends are atomic
//! (write-temp + rename) so a crashed run never corrupts the journal.
//!
//! The comparator is built for repeated runs: it takes the median over
//! each side's samples and trips only when the candidate median exceeds
//! the baseline median by more than `max(rel_tolerance, k × MAD)` — wall
//! time is noisy, so its tolerance is wide; tuned cycles come from a
//! deterministic simulation, so theirs is essentially exact.

use std::path::Path;
use std::time::Instant;

use sw26010::json::{self, Json, Value, Writer};
use sw26010::MachineConfig;
use swatop::observatory::{Bottleneck, BottleneckMix, Peaks};
use swatop::telemetry::bus::Event;
pub use swatop::telemetry::TierCounts;
use swatop::telemetry::{mape, rank_correlation, Summary, Telemetry};
use swatop::tuner::{TierMode, TuneOptions};

use crate::runner::{tune_conv, tune_gemm, ConvMethod, TunedOp};
use swtensor::ConvShape;

/// The one record schema this build writes and reads; bump on any record
/// change and rewrite the committed journal in the same PR. A file or
/// record of another version is rejected with a message naming it.
pub const SCHEMA_VERSION: u64 = 4;

/// Default journal location (relative to the workspace root, where
/// `cargo run` executes).
pub const DEFAULT_PATH: &str = "BENCH_swatop.json";

/// One benchmark operator inside a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpBench {
    pub name: String,
    /// Tuned (winning-schedule) cycles, after any handicap.
    pub cycles: u64,
    /// Achieved GFLOPS of the winning schedule.
    pub gflops: f64,
    /// Percent of the 742.5 GFLOPS/CG compute peak.
    pub pct_peak_gflops: f64,
    /// Percent of the 22.6 GB/s achievable DMA bandwidth.
    pub pct_peak_dma_bw: f64,
    /// Roofline bottleneck class of the winning schedule.
    pub bottleneck: Bottleneck,
    /// Schedule-point description (`knob=value` list) of the winning
    /// candidate; empty on the oldest committed record.
    pub schedule: String,
    /// Tuner kind that produced the winner (e.g. `"model"`); empty on the
    /// two oldest committed records.
    pub tuner: String,
    /// Convergence curve of the tuning run: `(candidates evaluated,
    /// best-so-far cycles)` at every improvement, in the tuner's
    /// deterministic evaluation order. Empty on the two oldest records.
    pub convergence: Vec<(u64, u64)>,
    /// Model MAPE over this operator's (predicted, measured) pairs; `None`
    /// when the op recorded fewer than one pair, and on the four committed
    /// records that predate the field.
    pub mape_pct: Option<f64>,
    /// Spearman rank correlation over the same per-op pairs.
    pub rank_correlation: Option<f64>,
}

/// One journal entry: a full run of the canonical benchmark set.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub schema: u64,
    /// Run label; `journal compare` groups records by it.
    pub label: String,
    /// `git rev-parse --short HEAD`, or `"unknown"`.
    pub rev: String,
    /// Unix timestamp in milliseconds.
    pub unix_ms: u64,
    /// Tuner worker threads the run used.
    pub jobs: usize,
    /// Harness wall time over the whole op set, ms (after any handicap).
    pub wall_ms: f64,
    /// Prospective winners quarantined by schedule validation across the
    /// run's ops (0 when the run tuned without `--validate`). A clean
    /// validated run must report 0 here — `journal compare` gates on it not
    /// growing.
    pub quarantined: u64,
    /// Distinct candidates whose cost any tier evaluated, summed over the
    /// run's ops (the analytic screen covers whole spaces). 0 on the two
    /// oldest committed records, which predate the tier ladder.
    pub candidates_evaluated: u64,
    /// Tuner throughput: `candidates_evaluated` per second of *tuning*
    /// wall-clock (the sum of per-op tuning walls — enumeration and
    /// lowering are excluded, and the synthetic `--handicap` factor is not
    /// applied). 0 on the two oldest committed records.
    pub cands_per_sec: f64,
    /// Per-tier evaluation counts, summed over the run's ops; all zero on
    /// the two oldest committed records.
    pub tiers: TierCounts,
    pub ops: Vec<OpBench>,
    /// Model MAPE over every (predicted, measured) pair of the run.
    pub mape_pct: Option<f64>,
    /// Spearman rank correlation over the same pairs.
    pub rank_correlation: Option<f64>,
    /// Bottleneck mix over every executed candidate of the run.
    pub mix: BottleneckMix,
}

impl Value for OpBench {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj()
            .field("name", &self.name)
            .field("cycles", self.cycles)
            .field("gflops", self.gflops)
            .field("pct_peak_gflops", self.pct_peak_gflops)
            .field("pct_peak_dma_bw", self.pct_peak_dma_bw)
            .field("bottleneck", self.bottleneck.name())
            .field("schedule", &self.schedule)
            .field("tuner", &self.tuner)
            .key("convergence")
            .begin_arr();
        for &(evaluated, cycles) in &self.convergence {
            w.begin_arr().value(evaluated).value(cycles).end_arr();
        }
        w.end_arr()
            .field("mape_pct", self.mape_pct)
            .field("rank_correlation", self.rank_correlation)
            .end_obj();
    }
}

impl Value for Record {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj()
            .field("schema", self.schema)
            .field("label", &self.label)
            .field("rev", &self.rev)
            .field("unix_ms", self.unix_ms)
            .field("jobs", self.jobs)
            .field("wall_ms", self.wall_ms)
            .field("quarantined", self.quarantined)
            .field("candidates_evaluated", self.candidates_evaluated)
            .field("cands_per_sec", self.cands_per_sec)
            .field("tiers", self.tiers)
            .field("ops", self.ops.as_slice())
            .field("mape_pct", self.mape_pct)
            .field("rank_correlation", self.rank_correlation)
            .field("mix", self.mix)
            .end_obj();
    }
}

/// `schema` must be the one version this build reads.
fn check_schema(what: &str, schema: u64) -> Result<(), String> {
    if schema == SCHEMA_VERSION {
        Ok(())
    } else {
        let reads = format!("this build reads schema {SCHEMA_VERSION}");
        Err(format!("unsupported {what} schema {schema} ({reads})"))
    }
}

impl Record {
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    pub fn from_json(v: &Json) -> Result<Record, String> {
        let schema = v.field("schema")?.as_u64("schema")?;
        check_schema("record", schema)?;
        let mut ops = Vec::new();
        for (i, o) in v.field("ops")?.as_arr("ops")?.iter().enumerate() {
            let what = |f: &str| format!("ops[{i}].{f}");
            let bname = o.field("bottleneck")?.as_str(&what("bottleneck"))?;
            let mut convergence = Vec::new();
            let curve = o.field("convergence")?.as_arr(&what("convergence"))?;
            for (j, pt) in curve.iter().enumerate() {
                let w = what(&format!("convergence[{j}]"));
                let pair = pt.as_arr(&w)?;
                if pair.len() != 2 {
                    return Err(format!("{w}: expected [evaluated, cycles]"));
                }
                convergence.push((pair[0].as_u64(&w)?, pair[1].as_u64(&w)?));
            }
            ops.push(OpBench {
                name: o.field("name")?.as_str(&what("name"))?.to_string(),
                cycles: o.field("cycles")?.as_u64(&what("cycles"))?,
                gflops: o.field("gflops")?.as_f64(&what("gflops"))?,
                pct_peak_gflops: o.field("pct_peak_gflops")?.as_f64(&what("pct_peak_gflops"))?,
                pct_peak_dma_bw: o.field("pct_peak_dma_bw")?.as_f64(&what("pct_peak_dma_bw"))?,
                bottleneck: Bottleneck::parse(bname)
                    .ok_or_else(|| format!("{}: unknown class {bname:?}", what("bottleneck")))?,
                schedule: o.field("schedule")?.as_str(&what("schedule"))?.to_string(),
                tuner: o.field("tuner")?.as_str(&what("tuner"))?.to_string(),
                convergence,
                mape_pct: o.field("mape_pct")?.as_opt_f64(&what("mape_pct"))?,
                rank_correlation: o
                    .field("rank_correlation")?
                    .as_opt_f64(&what("rank_correlation"))?,
            });
        }
        let (tiers, mix) = (v.field("tiers")?, v.field("mix")?);
        Ok(Record {
            schema,
            label: v.field("label")?.as_str("label")?.to_string(),
            rev: v.field("rev")?.as_str("rev")?.to_string(),
            unix_ms: v.field("unix_ms")?.as_u64("unix_ms")?,
            jobs: v.field("jobs")?.as_u64("jobs")? as usize,
            wall_ms: v.field("wall_ms")?.as_f64("wall_ms")?,
            quarantined: v.field("quarantined")?.as_u64("quarantined")?,
            candidates_evaluated: v
                .field("candidates_evaluated")?
                .as_u64("candidates_evaluated")?,
            cands_per_sec: v.field("cands_per_sec")?.as_f64("cands_per_sec")?,
            tiers: TierCounts {
                screened: tiers.field("screened")?.as_u64("tiers.screened")?,
                measured: tiers.field("measured")?.as_u64("tiers.measured")?,
                validated: tiers.field("validated")?.as_u64("tiers.validated")?,
            },
            ops,
            mape_pct: v.field("mape_pct")?.as_opt_f64("mape_pct")?,
            rank_correlation: v.field("rank_correlation")?.as_opt_f64("rank_correlation")?,
            mix: BottleneckMix {
                dma: mix.field("dma")?.as_u64("mix.dma")? as usize,
                compute: mix.field("compute")?.as_u64("mix.compute")? as usize,
                stall: mix.field("stall")?.as_u64("mix.stall")? as usize,
                spm_capacity: mix.field("spm_capacity")?.as_u64("mix.spm_capacity")? as usize,
            },
        })
    }
}

/// The whole journal file: `{"schema":4,"records":[...]}`, one record per
/// line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    pub records: Vec<Record>,
}

impl Journal {
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj().field("schema", SCHEMA_VERSION).key("records").begin_arr();
        for r in &self.records {
            w.line().value(r);
        }
        w.finish_lines()
    }

    /// Parse and schema-check a journal document. This is the journal's own
    /// validity checker: every field of every record must be present and
    /// parse, including bottleneck names and the mix counts.
    pub fn validate(text: &str) -> Result<Journal, String> {
        let v = json::parse(text)?;
        check_schema("journal", v.field("schema")?.as_u64("schema")?)?;
        let mut records = Vec::new();
        for (i, r) in v.field("records")?.as_arr("records")?.iter().enumerate() {
            records.push(Record::from_json(r).map_err(|e| format!("records[{i}]: {e}"))?);
        }
        Ok(Journal { records })
    }

    /// Load a journal; a missing file is an empty journal, a malformed one
    /// is an error (never silently truncated).
    pub fn load(path: &Path) -> Result<Journal, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Journal::validate(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Journal::default()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Append `record` to the journal at `path`, atomically: the new file is
    /// fully written beside the old one and renamed into place.
    pub fn append(path: &Path, record: Record) -> Result<Journal, String> {
        let mut journal = Journal::load(path)?;
        journal.records.push(record);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, journal.to_json()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))?;
        Ok(journal)
    }

    /// Records carrying the given label, in journal order.
    pub fn with_label(&self, label: &str) -> Vec<&Record> {
        self.records.iter().filter(|r| r.label == label).collect()
    }
}

/// The current `git rev-parse --short HEAD`, or `"unknown"` outside a work
/// tree (records stay writable in exported source drops).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Configuration for one canonical benchmark run.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    pub label: String,
    /// Smaller op set and shapes (CI smoke runs).
    pub smoke: bool,
    /// Multiply recorded cycles and wall time by this factor — a synthetic
    /// slowdown used to self-test the regression gate (CI injects 2).
    pub handicap: u64,
    /// Fault-injection seed for the tuning run (`None` = clean machine).
    pub faults: Option<u64>,
    /// Validate every winning schedule (static legality + differential
    /// functional check) with quarantine-and-fallback; the record's
    /// `quarantined` field counts the rejections.
    pub validate: bool,
    /// Write the feature corpus (one JSONL row per measured candidate,
    /// sorted by `(operator, index)` so bytes are `--jobs`-independent).
    pub corpus: Option<std::path::PathBuf>,
    /// How every op is tuned: workers, the evaluation ladder (`--tuner
    /// tiered|blackbox`), the live-observability bus and pool monitor. The run
    /// records under a recorder of its own, whatever `tune.telemetry` holds.
    pub tune: TuneOptions,
}

type GemmSpec = (String, usize, usize, usize);
type ConvSpec = (String, ConvMethod, ConvShape);

/// The canonical op set a journal record measures: a GEMM and one
/// convolution per decomposition, sized so a full run stays in seconds.
fn bench_ops(smoke: bool) -> (Vec<GemmSpec>, Vec<ConvSpec>) {
    if smoke {
        (
            vec![("gemm_96".into(), 96, 96, 96)],
            vec![
                ("conv_implicit_16".into(), ConvMethod::Implicit, ConvShape::square(16, 16, 16, 8)),
                ("conv_winograd_16".into(), ConvMethod::Winograd, ConvShape::square(16, 16, 16, 8)),
            ],
        )
    } else {
        (
            vec![
                ("gemm_256".into(), 256, 256, 256),
                ("gemm_512".into(), 512, 512, 512),
            ],
            vec![
                ("conv_implicit_32".into(), ConvMethod::Implicit, ConvShape::square(32, 32, 32, 16)),
                ("conv_winograd_32".into(), ConvMethod::Winograd, ConvShape::square(32, 32, 32, 16)),
                ("conv_explicit_32".into(), ConvMethod::Explicit, ConvShape::square(32, 32, 32, 16)),
            ],
        )
    }
}

/// Run the canonical benchmark set once and build its journal [`Record`].
///
/// Each op is tuned under a shared telemetry recorder; every roofline and
/// accuracy number of the record is read from the run's one [`Summary`]:
/// per op the winning candidate's attribution and the op scope's accuracy,
/// run-wide MAPE/Spearman over every pair and the bottleneck mix over every
/// executed candidate.
pub fn run_bench(opts: &BenchOpts) -> Record {
    let cfg = MachineConfig {
        fault: opts.faults.map(sw26010::FaultPlan::with_seed),
        ..MachineConfig::default()
    };
    let tel = Telemetry::new();
    let tune_opts = TuneOptions { telemetry: Some(tel.clone()), ..opts.tune.clone() };

    let (gemms, convs) = bench_ops(opts.smoke);
    let sweep_label =
        format!("bench [{}] ({} ops)", opts.label, gemms.len() + convs.len());
    if let Some(bus) = &tune_opts.bus {
        bus.emit_with(|| Event::SweepStart { label: sweep_label.clone() });
    }
    let t0 = Instant::now();
    let mut tuned: Vec<(String, TunedOp)> = Vec::new();
    for (name, m, n, k) in &gemms {
        if let Some(t) = tune_gemm(&cfg, *m, *n, *k, &tune_opts, opts.validate) {
            tuned.push((name.clone(), t));
        }
    }
    for (name, method, shape) in &convs {
        if let Some(t) = tune_conv(&cfg, *method, shape, &tune_opts, opts.validate) {
            tuned.push((name.clone(), t));
        }
    }
    if let Some(bus) = &tune_opts.bus {
        bus.emit_with(|| Event::SweepEnd { label: sweep_label.clone() });
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3 * opts.handicap as f64;
    let quarantined: u64 = tuned.iter().map(|(_, t)| t.outcome.quarantined as u64).sum();
    // Tuner throughput over the *tuning* walls (enumeration/lowering and
    // the synthetic handicap are excluded — this measures the evaluation
    // engine, not the harness).
    let candidates_evaluated: u64 =
        tuned.iter().map(|(_, t)| t.outcome.candidates_evaluated() as u64).sum();
    let tiers = TierCounts {
        screened: tuned.iter().map(|(_, t)| t.outcome.screened as u64).sum(),
        measured: tuned.iter().map(|(_, t)| t.outcome.executed as u64).sum(),
        validated: tuned.iter().map(|(_, t)| t.outcome.validated as u64).sum(),
    };
    let tune_secs: f64 = tuned.iter().map(|(_, t)| t.outcome.wall.as_secs_f64()).sum();
    let cands_per_sec =
        if tune_secs > 0.0 { candidates_evaluated as f64 / tune_secs } else { 0.0 };

    let summary = tel.summary(&Peaks::of(&cfg));
    crate::report::write_exports(&summary, None, opts.corpus.as_deref());
    let obs: Vec<(f64, f64)> =
        summary.pairs().iter().map(|p| (p.predicted, p.measured as f64)).collect();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    Record {
        schema: SCHEMA_VERSION,
        label: opts.label.clone(),
        rev: git_rev(),
        unix_ms,
        jobs: tune_opts.jobs,
        wall_ms,
        quarantined,
        candidates_evaluated,
        cands_per_sec,
        tiers,
        ops: op_rows(&summary, &tuned, opts.handicap, tune_opts.tiers.mode),
        mape_pct: mape(&obs),
        rank_correlation: rank_correlation(&obs),
        mix: summary.mix,
    }
}

/// One [`OpBench`] per tuned op: the roofline position of its winning
/// schedule and the model accuracy of its run, found in `summary` by the
/// operator scope the op was tuned under. `handicap` multiplies the
/// recorded cycles only; the roofline numbers are the real winner's.
fn op_rows(
    summary: &Summary,
    tuned: &[(String, TunedOp)],
    handicap: u64,
    tiers: TierMode,
) -> Vec<OpBench> {
    let mut ops = Vec::new();
    for (name, t) in tuned {
        let Some(op) = summary.operator(t.scope) else { continue };
        let best = summary.candidates(op).find(|(c, _)| c.index == Some(t.outcome.best));
        let Some((cycles, a)) = best.and_then(|(c, a)| c.cycles.zip(a)) else { continue };
        ops.push(OpBench {
            name: name.clone(),
            cycles: cycles * handicap,
            gflops: a.metrics.get("achieved_gflops").unwrap_or(0.0),
            pct_peak_gflops: a.metrics.get("pct_peak_gflops").unwrap_or(0.0),
            pct_peak_dma_bw: a.metrics.get("pct_peak_dma_bw").unwrap_or(0.0),
            bottleneck: a.bottleneck,
            schedule: t.winner.describe.clone(),
            tuner: match tiers {
                TierMode::Tiered => "tiered",
                TierMode::FullScoreboard => "full-scoreboard",
            }
            .to_string(),
            convergence: t.outcome.convergence.clone(),
            mape_pct: op.accuracy.as_ref().and_then(|a| a.mape_pct),
            rank_correlation: op.accuracy.as_ref().and_then(|a| a.rank_correlation),
        });
    }
    ops
}

/// Every op name of `records` in first-appearance order, each with that op's
/// entry in every record (`None` where a record lacks it) — the series the
/// trend and the comparison gate are built from.
fn op_series<'r>(records: &[&'r Record]) -> Vec<(&'r str, Vec<Option<&'r OpBench>>)> {
    let mut names: Vec<&str> = Vec::new();
    for op in records.iter().flat_map(|r| &r.ops) {
        if !names.contains(&op.name.as_str()) {
            names.push(&op.name);
        }
    }
    let find = |r: &&'r Record, name| r.ops.iter().find(|o| o.name == name);
    names.into_iter().map(|name| (name, records.iter().map(|r| find(r, name)).collect())).collect()
}

/// Render a journal (optionally filtered by label) as one machine-readable
/// JSON document: the raw records plus a per-op GFLOPS trend series in
/// first-appearance order (`journal show --json`). Built on the same
/// serializer as the journal file itself — no ad-hoc escaping.
pub fn show_json(journal: &Journal, label: Option<&str>) -> String {
    let records: Vec<&Record> = match label {
        Some(l) => journal.with_label(l),
        None => journal.records.iter().collect(),
    };
    let mut w = Writer::new();
    w.begin_obj()
        .field("schema", SCHEMA_VERSION)
        .field("count", records.len())
        .field("records", records.as_slice())
        .key("trend")
        .begin_arr();
    for (name, per_record) in op_series(&records) {
        w.begin_obj().field("op", name).key("gflops").begin_arr();
        for op in per_record.into_iter().flatten() {
            w.value(op.gflops);
        }
        w.end_arr().end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// Render a journal record as a human-readable table.
pub fn record_table(r: &Record) -> crate::report::Table {
    let throughput = if r.cands_per_sec > 0.0 {
        format!(", {:.0} cand/s over {} evaluated", r.cands_per_sec, r.candidates_evaluated)
    } else {
        String::new()
    };
    let mut t = crate::report::Table::new(
        format!(
            "bench journal — {} @ {} ({} ms wall, jobs {}{throughput})",
            r.label, r.rev, r.wall_ms as u64, r.jobs
        ),
        &["op", "cycles", "GFLOPS", "% peak", "% DMA bw", "bottleneck"],
    );
    for op in &r.ops {
        t.row(vec![
            op.name.clone(),
            op.cycles.to_string(),
            format!("{:.1}", op.gflops),
            format!("{:.1}", op.pct_peak_gflops),
            format!("{:.1}", op.pct_peak_dma_bw),
            op.bottleneck.name().to_string(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Regression comparison
// ---------------------------------------------------------------------------

/// Tolerances for [`compare`].
#[derive(Debug, Clone)]
pub struct CompareOpts {
    /// Relative wall-time growth tolerated (0.5 = candidate may be up to
    /// 50% slower before the gate trips; wall time is noisy).
    pub wall_rel: f64,
}

impl Default for CompareOpts {
    fn default() -> CompareOpts {
        CompareOpts { wall_rel: 0.5 }
    }
}

/// Noise multiplier: wall-time growth under `MAD_FACTOR × MAD(baseline)`
/// never trips, whatever the relative tolerance says.
const MAD_FACTOR: f64 = 4.0;

/// Relative tuned-cycles growth tolerated. Cycles are deterministic, so this
/// is a guard against float formatting, not noise.
const CYCLES_REL: f64 = 0.001;

/// One tripped gate.
#[derive(Debug, Clone)]
pub struct Regression {
    pub what: String,
    pub baseline: f64,
    pub candidate: f64,
    pub allowed: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "REGRESSION {}: {:.1} -> {:.1} (allowed {:.1})",
            self.what, self.baseline, self.candidate, self.allowed
        )
    }
}

fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    Some(xs[xs.len() / 2])
}

/// Median absolute deviation around `m`.
fn mad(xs: &[f64], m: f64) -> f64 {
    let mut devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&mut devs).unwrap_or(0.0)
}

/// Per-op movement summary between the latest baseline and candidate
/// records: cycles and GFLOPS deltas plus the bottleneck transition, one
/// line per op present on both sides (e.g.
/// `gemm_96: 160284 -> 42000 cycles (-73.8%), 16.0 -> 61.2 GFLOPS, dma -> compute`).
/// An unchanged bottleneck prints as the single class name.
pub fn transition_lines(base: &[&Record], cand: &[&Record]) -> Vec<String> {
    let (Some(b), Some(c)) = (base.last(), cand.last()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for ob in &b.ops {
        let Some(oc) = c.ops.iter().find(|o| o.name == ob.name) else {
            continue;
        };
        let pct = if ob.cycles > 0 {
            100.0 * (oc.cycles as f64 - ob.cycles as f64) / ob.cycles as f64
        } else {
            0.0
        };
        let shift = if ob.bottleneck == oc.bottleneck {
            ob.bottleneck.name().to_string()
        } else {
            format!("{} -> {}", ob.bottleneck, oc.bottleneck)
        };
        out.push(format!(
            "{}: {} -> {} cycles ({pct:+.1}%), {:.1} -> {:.1} GFLOPS, {shift}",
            ob.name, ob.cycles, oc.cycles, ob.gflops, oc.gflops
        ));
    }
    out
}

/// Per-op GFLOPS trend across a sequence of records (oldest first): one
/// line per op name in first-appearance order, listing each record's
/// GFLOPS with the delta vs. the previous sample — the bench trajectory at
/// a glance, no JSON spelunking (e.g.
/// `gemm_256: 16.0, 42.5 (+26.5), 61.2 (+18.7) GFLOPS`).
pub fn trend_lines(records: &[&Record]) -> Vec<String> {
    op_series(records)
        .into_iter()
        .map(|(name, per_record)| {
            let samples: Vec<f64> = per_record.into_iter().flatten().map(|o| o.gflops).collect();
            let mut parts = Vec::with_capacity(samples.len());
            for (i, g) in samples.iter().enumerate() {
                if i == 0 {
                    parts.push(format!("{g:.1}"));
                } else {
                    parts.push(format!("{g:.1} ({:+.1})", g - samples[i - 1]));
                }
            }
            format!("{name}: {} GFLOPS", parts.join(", "))
        })
        .collect()
}

/// One-line convergence summary per op of a record (none for an op without
/// a curve): how fast the search found its winner, e.g.
/// `gemm_256 [model]: best 42000 cycles after 7/31 improvements at eval 18`.
pub fn convergence_lines(r: &Record) -> Vec<String> {
    r.ops
        .iter()
        .filter(|op| !op.convergence.is_empty())
        .map(|op| {
            let (last_n, last_c) = *op.convergence.last().expect("non-empty");
            let kind = if op.tuner.is_empty() { "?" } else { &op.tuner };
            format!(
                "{} [{}]: best {} cycles after {} improvement{} (winner found at eval {})",
                op.name,
                kind,
                last_c,
                op.convergence.len(),
                if op.convergence.len() == 1 { "" } else { "s" },
                last_n
            )
        })
        .collect()
}

/// Comparability warnings between the two sides of a [`compare`]: mixed
/// tuner job counts (wall times measured under different `jobs` are not
/// comparable, though the deterministic cycles gates still hold) and a
/// collapse in tuner throughput. `journal compare` prints these as
/// warnings; `--strict` turns them into gate failures.
pub fn consistency_warnings(base: &[&Record], cand: &[&Record]) -> Vec<String> {
    let jobs = |side: &[&Record]| -> Vec<usize> {
        let mut vals: Vec<usize> = side.iter().map(|r| r.jobs).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    };
    let mut warnings = Vec::new();
    let (b, c) = (jobs(base), jobs(cand));
    if !b.is_empty() && !c.is_empty() && b != c {
        warnings.push(format!(
            "jobs mismatch: baseline {b:?} vs candidate {c:?} — records are not \
             directly comparable"
        ));
    }
    // Tuner-throughput regression: the ladder exists to evaluate more
    // candidates per second, so losing more than half of it is worth a
    // warning (the two oldest committed records report 0 and are skipped).
    let med_tp = |side: &[&Record]| {
        let mut v: Vec<f64> =
            side.iter().map(|r| r.cands_per_sec).filter(|t| *t > 0.0).collect();
        median(&mut v)
    };
    if let (Some(b), Some(c)) = (med_tp(base), med_tp(cand)) {
        if c * 2.0 < b {
            warnings.push(format!(
                "tuner throughput regressed more than 2x: {b:.0} -> {c:.0} candidates/sec"
            ));
        }
    }
    warnings
}

/// Noise-aware comparison of candidate records against baseline records.
///
/// Wall time: candidate median may exceed baseline median by
/// `max(wall_rel × baseline, MAD_FACTOR × MAD(baseline))`. Per-op tuned
/// cycles: medians compared op-by-op (ops present on only one side are
/// reported as regressions of coverage, not performance). Quarantined
/// winners: the candidate median must not exceed the baseline median at
/// all — against a clean baseline this gates on *zero* quarantined
/// winners, so a schedule-validation failure can never slip through a
/// passing comparison.
pub fn compare(base: &[&Record], cand: &[&Record], opts: &CompareOpts) -> Vec<Regression> {
    let mut regressions = Vec::new();
    if base.is_empty() || cand.is_empty() {
        regressions.push(Regression {
            what: format!(
                "coverage: {} baseline and {} candidate records",
                base.len(),
                cand.len()
            ),
            baseline: base.len() as f64,
            candidate: cand.len() as f64,
            allowed: 1.0,
        });
        return regressions;
    }

    let base_walls: Vec<f64> = base.iter().map(|r| r.wall_ms).collect();
    let base_wall = median(&mut base_walls.clone()).unwrap();
    let cand_wall = median(&mut cand.iter().map(|r| r.wall_ms).collect::<Vec<f64>>()).unwrap();
    let allowed_wall =
        base_wall + (base_wall * opts.wall_rel).max(MAD_FACTOR * mad(&base_walls, base_wall));
    if cand_wall > allowed_wall {
        regressions.push(Regression {
            what: "wall_ms".to_string(),
            baseline: base_wall,
            candidate: cand_wall,
            allowed: allowed_wall,
        });
    }

    // Quarantined winners are deterministic (the validator is a pure
    // function of the candidate), so the gate is exact: no growth allowed.
    let med = |side: &[&Record]| {
        median(&mut side.iter().map(|r| r.quarantined as f64).collect::<Vec<f64>>()).unwrap()
    };
    let (base_q, cand_q) = (med(base), med(cand));
    if cand_q > base_q {
        regressions.push(Regression {
            what: "quarantined".to_string(),
            baseline: base_q,
            candidate: cand_q,
            allowed: base_q,
        });
    }

    // Op names in baseline order (first record wins the ordering).
    for (name, per_record) in op_series(&[base, cand].concat()) {
        let cycles = |side: &[Option<&OpBench>]| -> Vec<f64> {
            side.iter().flatten().map(|o| o.cycles as f64).collect()
        };
        let (b, c) = per_record.split_at(base.len());
        match (median(&mut cycles(b)), median(&mut cycles(c))) {
            (Some(b_med), Some(c_med)) => {
                let allowed = b_med * (1.0 + CYCLES_REL);
                if c_med > allowed {
                    regressions.push(Regression {
                        what: format!("cycles[{name}]"),
                        baseline: b_med,
                        candidate: c_med,
                        allowed,
                    });
                }
            }
            (b_med, c_med) => regressions.push(Regression {
                what: format!("coverage[{name}]: op missing on one side"),
                baseline: b_med.map_or(0.0, |_| 1.0),
                candidate: c_med.map_or(0.0, |_| 1.0),
                allowed: 1.0,
            }),
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(label: &str, wall: f64, cycles: u64) -> Record {
        Record {
            schema: SCHEMA_VERSION,
            label: label.to_string(),
            rev: "abc123".to_string(),
            unix_ms: 1_700_000_000_000,
            jobs: 2,
            wall_ms: wall,
            quarantined: 0,
            candidates_evaluated: 1800,
            cands_per_sec: 5125.5,
            tiers: TierCounts { screened: 1800, measured: 9, validated: 1 },
            ops: vec![OpBench {
                name: "gemm_256".to_string(),
                cycles,
                gflops: 310.5,
                pct_peak_gflops: 41.8,
                pct_peak_dma_bw: 12.0,
                bottleneck: Bottleneck::Compute,
                schedule: "t_m=64, dbuf=true, coal=false, bcast=false".to_string(),
                tuner: "model".to_string(),
                convergence: vec![(1, 50_000), (4, cycles + 10), (9, cycles)],
                mape_pct: Some(6.5),
                rank_correlation: Some(0.91),
            }],
            mape_pct: Some(7.25),
            rank_correlation: Some(0.93),
            mix: BottleneckMix { dma: 3, compute: 5, stall: 1, spm_capacity: 0 },
        }
    }

    /// An operator that reports nothing (here: no candidate fits its scratch
    /// pad) is absent from `tuned` but keeps its operator span; the rows of
    /// the operators after it must still be their own.
    #[test]
    fn op_rows_are_found_by_operator_scope_not_by_position() {
        let cfg = MachineConfig::default();
        let cramped = MachineConfig { spm_bytes: 64, ..cfg.clone() };
        let tel = Telemetry::new();
        let opts = TuneOptions { telemetry: Some(tel.clone()), ..TuneOptions::default() };
        assert!(tune_gemm(&cramped, 32, 32, 32, &opts, false).is_none());
        let second = tune_gemm(&cfg, 32, 32, 32, &opts, false).expect("the clean machine tunes");
        let summary = tel.summary(&Peaks::of(&cfg));
        assert_eq!(summary.operators.len(), 2, "the silent operator keeps its span");
        let tuned = [("gemm_32".to_string(), second)];
        let rows = op_rows(&summary, &tuned, 1, TierMode::Tiered);
        let own = summary.operator(tuned[0].1.scope).expect("recorded under its scope");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cycles, tuned[0].1.cycles.get());
        assert_eq!(rows[0].mape_pct, own.accuracy.as_ref().and_then(|a| a.mape_pct));
        assert!(rows[0].mape_pct.is_some() && rows[0].gflops > 0.0);
    }

    /// The three serialized forms, recorded from the hand-rolled emitters
    /// before they were ported to `sw26010::json::Writer`: escapes, `null`
    /// floats, an empty curve and the trend of an op that appears late.
    #[test]
    fn serialized_bytes_equal_the_recorded_goldens() {
        let a = sample_record("run \"quoted\"/β", 123.5, 42_000);
        let mut b = sample_record("run \"quoted\"/β", 100.0, 9_000);
        b.mape_pct = None;
        b.rank_correlation = Some(f64::NAN);
        b.ops[0].mape_pct = None;
        b.ops[0].convergence.clear();
        b.ops.push(OpBench { name: "conv_new".to_string(), gflops: 5.0, ..a.ops[0].clone() });
        let other = sample_record("other", 1.0, 10);
        assert_eq!(a.to_json(), include_str!("../tests/golden/record.json"));
        let journal = Journal { records: vec![a, b, other] };
        assert_eq!(journal.to_json(), include_str!("../tests/golden/journal.json"));
        assert_eq!(
            show_json(&journal, Some("run \"quoted\"/β")),
            include_str!("../tests/golden/show.json")
        );
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut r = sample_record("run \"quoted\"/β", 123.5, 42_000);
        r.quarantined = 3;
        let back = Record::from_json(&json::parse(&r.to_json()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    /// The committed journal is in the one schema, field for field: loading
    /// and saving it is the identity, so an append never rewrites a record.
    #[test]
    fn the_committed_journal_round_trips_byte_for_byte() {
        let text = include_str!("../../../BENCH_swatop.json");
        let journal = Journal::validate(text).unwrap();
        assert!(journal.records.len() >= 4);
        assert_eq!(journal.to_json(), text);
    }

    #[test]
    fn other_schemas_and_missing_fields_are_rejected() {
        let text = Journal { records: vec![sample_record("r", 50.0, 9_000)] }.to_json();
        let old_record = text.replace("{\"schema\":4,\"label\"", "{\"schema\":1,\"label\"");
        assert_eq!(
            Journal::validate(&old_record).unwrap_err(),
            "records[0]: unsupported record schema 1 (this build reads schema 4)"
        );
        let future = text.replacen("\"schema\":4", "\"schema\":99", 1);
        assert_eq!(
            Journal::validate(&future).unwrap_err(),
            "unsupported journal schema 99 (this build reads schema 4)"
        );
        for field in ["quarantined", "cands_per_sec", "tiers", "schedule", "tuner", "convergence"] {
            let renamed = text.replace(&format!("\"{field}\":"), "\"x\":");
            let err = Journal::validate(&renamed).unwrap_err();
            assert!(err.contains(&format!("missing key \"{field}\"")), "{field}: {err}");
        }
        let no_op_mape = text.replacen("\"mape_pct\":6.5", "\"x\":6.5", 1);
        assert!(Journal::validate(&no_op_mape).unwrap_err().contains("missing key \"mape_pct\""));
    }

    #[test]
    fn show_json_carries_records_and_trend() {
        let mut a = sample_record("run", 100.0, 20_000);
        a.ops[0].gflops = 16.0;
        let mut b = sample_record("run", 100.0, 12_000);
        b.ops[0].gflops = 42.5;
        b.ops.push(OpBench { name: "conv_new".to_string(), gflops: 5.0, ..b.ops[0].clone() });
        let other = sample_record("other", 100.0, 9_000);
        let j = Journal { records: vec![a, b, other] };

        let v = json::parse(&show_json(&j, Some("run"))).unwrap();
        assert_eq!(v.field("count").unwrap().as_u64("count").unwrap(), 2);
        assert_eq!(v.field("records").unwrap().as_arr("records").unwrap().len(), 2);
        let trend = v.field("trend").unwrap().as_arr("trend").unwrap();
        assert_eq!(trend.len(), 2);
        assert_eq!(trend[0].field("op").unwrap().as_str("op").unwrap(), "gemm_256");
        let g: Vec<f64> = trend[0]
            .field("gflops")
            .unwrap()
            .as_arr("gflops")
            .unwrap()
            .iter()
            .map(|x| x.as_f64("gflops").unwrap())
            .collect();
        assert_eq!(g, vec![16.0, 42.5]);
        assert_eq!(trend[1].field("op").unwrap().as_str("op").unwrap(), "conv_new");

        // Unfiltered, every record appears.
        let v = json::parse(&show_json(&j, None)).unwrap();
        assert_eq!(v.field("count").unwrap().as_u64("count").unwrap(), 3);
    }

    #[test]
    fn trend_lines_track_gflops_deltas() {
        let mut a = sample_record("run", 100.0, 20_000);
        a.ops[0].gflops = 16.0;
        let mut b = sample_record("run", 100.0, 12_000);
        b.ops[0].gflops = 42.5;
        let mut c = sample_record("run", 100.0, 9_000);
        c.ops[0].gflops = 61.2;
        // A second op appearing later still gets its own line.
        c.ops.push(OpBench { name: "conv_new".to_string(), gflops: 5.0, ..c.ops[0].clone() });
        let lines = trend_lines(&[&a, &b, &c]);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[0], "gemm_256: 16.0, 42.5 (+26.5), 61.2 (+18.7) GFLOPS");
        assert_eq!(lines[1], "conv_new: 5.0 GFLOPS");
        assert!(trend_lines(&[]).is_empty());
    }

    #[test]
    fn convergence_lines_summarise_the_search() {
        let r = sample_record("run", 100.0, 42_000);
        let lines = convergence_lines(&r);
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0],
            "gemm_256 [model]: best 42000 cycles after 3 improvements (winner found at eval 9)"
        );
        let mut old = sample_record("run", 100.0, 42_000);
        old.ops[0].convergence.clear();
        assert!(convergence_lines(&old).is_empty(), "no curve, no line");
    }

    #[test]
    fn compare_gates_on_quarantined_growth() {
        let base = sample_record("base", 100.0, 10_000);
        let mut cand = sample_record("cand", 100.0, 10_000);
        cand.quarantined = 1;
        let regs = compare(&[&base], &[&cand], &CompareOpts::default());
        assert!(
            regs.iter().any(|r| r.what == "quarantined"),
            "quarantine growth must trip the gate: {regs:?}"
        );
        // Equal counts (both zero) pass.
        let clean = sample_record("cand", 100.0, 10_000);
        assert!(compare(&[&base], &[&clean], &CompareOpts::default()).is_empty());
    }

    #[test]
    fn consistency_warnings_flag_jobs_mixes() {
        let a = sample_record("base", 100.0, 10_000);
        let mut b = sample_record("cand", 100.0, 10_000);
        assert!(consistency_warnings(&[&a], &[&b]).is_empty());
        b.jobs = 8;
        let w = consistency_warnings(&[&a], &[&b]);
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].contains("jobs mismatch"));
    }

    #[test]
    fn consistency_warnings_flag_throughput_collapse() {
        let a = sample_record("base", 100.0, 10_000);
        let mut b = sample_record("cand", 100.0, 10_000);
        // Half the throughput is tolerated; beyond 2x trips the warning.
        b.cands_per_sec = a.cands_per_sec / 2.0;
        assert!(consistency_warnings(&[&a], &[&b]).is_empty());
        b.cands_per_sec = a.cands_per_sec / 2.5;
        let w = consistency_warnings(&[&a], &[&b]);
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].contains("throughput regressed"));
        // Records without a throughput figure (0) never warn.
        b.cands_per_sec = 0.0;
        assert!(consistency_warnings(&[&a], &[&b]).is_empty());
    }

    #[test]
    fn journal_validates_and_rejects() {
        let j = Journal { records: vec![sample_record("a", 1.0, 10), sample_record("b", 2.0, 11)] };
        let text = j.to_json();
        assert_eq!(Journal::validate(&text).unwrap(), j);
        assert!(Journal::validate("{\"schema\":99,\"records\":[]}").is_err());
        assert!(Journal::validate("{\"records\":[]}").is_err());
        let bad_class = text.replace("\"compute\"", "\"warp-divergence\"");
        assert!(Journal::validate(&bad_class).unwrap_err().contains("unknown class"));
    }

    #[test]
    fn append_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join("swatop_journal_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("BENCH_swatop.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(Journal::load(&path).unwrap(), Journal::default());
        Journal::append(&path, sample_record("x", 1.0, 10)).unwrap();
        let j = Journal::append(&path, sample_record("y", 2.0, 20)).unwrap();
        assert_eq!(j.records.len(), 2);
        assert_eq!(Journal::load(&path).unwrap(), j);
        assert_eq!(j.with_label("y").len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compare_passes_same_runs_and_trips_on_slowdown() {
        let base = [
            sample_record("base", 100.0, 10_000),
            sample_record("base", 110.0, 10_000),
            sample_record("base", 96.0, 10_000),
        ];
        let same = sample_record("cand", 118.0, 10_000);
        let opts = CompareOpts::default();
        let b: Vec<&Record> = base.iter().collect();
        assert!(compare(&b, &[&same], &opts).is_empty());

        let slow = sample_record("cand", 230.0, 21_000);
        let regs = compare(&b, &[&slow], &opts);
        let whats: Vec<&str> = regs.iter().map(|r| r.what.as_str()).collect();
        assert!(whats.contains(&"wall_ms"), "{whats:?}");
        assert!(whats.iter().any(|w| w.starts_with("cycles[gemm_256]")), "{whats:?}");
    }

    #[test]
    fn compare_flags_missing_sides_and_ops() {
        let a = sample_record("base", 100.0, 10_000);
        let mut c = sample_record("cand", 100.0, 10_000);
        c.ops[0].name = "other_op".to_string();
        let regs = compare(&[&a], &[&c], &CompareOpts::default());
        assert_eq!(regs.len(), 2, "{regs:?}"); // each op missing on one side
        assert!(compare(&[], &[&a], &CompareOpts::default()).len() == 1);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let xs = [100.0, 101.0, 99.0, 100.5, 400.0];
        let m = median(&mut xs.to_vec()).unwrap();
        assert_eq!(m, 100.5);
        assert!(mad(&xs, m) < 2.0);
    }
}
