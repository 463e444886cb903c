//! The autotuner (paper Sec. 4.6): performance-model-based and black-box.
//!
//! * [`blackbox_tune`] "runs every single schedule strategy of the schedule
//!   space to identify the optimal code" — here, executes every candidate on
//!   the simulated machine in cost-only mode and picks the fastest.
//! * [`model_tune`] "only runs the best strategy identified by the
//!   performance model": it evaluates the static model (Eq. 1 + Eq. 2 with
//!   `T_overall = max`) on every candidate analytically and executes only
//!   the winner to report its real (simulated) time.
//!
//! Both report wall-clock tuning time, which is what Tab. 3 compares; the
//! quality gap between the model's pick and the black-box optimum is what
//! Fig. 9 reports.
//!
//! Every tuner has a `_jobs` variant that fans candidate evaluation over a
//! [`pool`] of worker threads, and an `_opts` variant taking [`TuneOptions`]
//! that additionally controls fault resilience (retry/backoff, median-of-N
//! repeated measurement — see [`RetryPolicy`]) and checkpoint/resume
//! ([`CheckpointPolicy`]). Results are deterministic and identical to the
//! serial tuners for any job count: each candidate runs on a private
//! cost-only machine whose fault stream (if any) is derived from the
//! candidate's input index, results come back in input order, and the
//! winner is the minimum under the total order `(cycles, input index)`.

pub mod checkpoint;
pub mod pool;
pub mod search;

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sw26010::{
    CoreGroup, Counters, Cycles, ExecMode, MachineConfig, MachineError, MachineResult,
};
use swatop_ir::{MatDesc, SpmSlot, Stmt};
use swkernels::spm_gemm::SpmMatrix;

use self::checkpoint::CandCell;
use self::pool::PoolMonitor;
use crate::codegen::Executable;
use crate::interp::{execute, instantiate};
use crate::model::memo::MemoCache;
use crate::model::{estimate_program_memo, GemmModel};
use crate::observatory::{self, BottleneckMix, Peaks};
use crate::scheduler::Candidate;
use crate::telemetry::bus::{Event, EventBus};
use crate::telemetry::{SpanKind, Telemetry, TuneTelemetry};

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Position of the chosen candidate in the input slice.
    pub best: usize,
    /// Simulated cycles of the chosen candidate.
    pub cycles: Cycles,
    /// Host wall-clock time spent tuning (screening, measuring, picking).
    /// Calibrating the analytic [`GemmModel`] is *excluded*: it is a
    /// per-machine cost cached for the whole process, and charging it to
    /// whichever operator happens to tune first would make walls — and the
    /// candidates-per-second throughput derived from them — depend on op
    /// order rather than on the tuner.
    pub wall: Duration,
    /// Number of candidates whose code was actually *executed*.
    pub executed: usize,
    /// Simulated cycles of every executed candidate (same order as input;
    /// `None` when not executed or invalid at runtime).
    pub all_cycles: Vec<Option<Cycles>>,
    /// Worker threads used for candidate evaluation (1 = serial).
    pub jobs: usize,
    /// Aggregate per-candidate evaluation time, i.e. the serial-equivalent
    /// cost: what `wall` would roughly be at `jobs = 1`. The ratio
    /// `cpu / wall` is the realised parallel speedup.
    pub cpu: Duration,
    /// Candidates that terminally failed (pre-validation, runtime error, or
    /// retry-budget exhaustion).
    pub failed: usize,
    /// Total transient-failure retries consumed across all candidates.
    pub retried: u64,
    /// Prospective winners rejected by the [`WinnerValidator`] and
    /// quarantined; each one forced a fallback to the next-best legal
    /// candidate. Always 0 when tuning without a validator. The reasons are
    /// in [`CandReport::quarantined`].
    pub quarantined: usize,
    /// Per-candidate measurement report, index-aligned with the input.
    pub reports: Vec<CandReport>,
    /// Search-trajectory convergence curve: `(candidates evaluated,
    /// best-so-far cycles)` sampled at every improvement, in evaluation
    /// order. The evaluation order is the tuner's deterministic schedule
    /// (input order for the blackbox tuner, model-ranked wave order for the
    /// model tuner), so the curve is identical for every `jobs` value.
    pub convergence: Vec<(u64, u64)>,
    /// Candidates ranked by the tier-0 analytic screen (the whole space for
    /// the tiered and model tuners, 0 for the pure black-box tuner).
    pub screened: usize,
    /// Tier-2 winner validations performed (quarantined rejections plus the
    /// final accept). 0 when tuning without a validator.
    pub validated: usize,
    /// Condensed telemetry (counter totals, model accuracy, roofline
    /// bottleneck mix); present iff the run was instrumented via
    /// [`TuneOptions::telemetry`].
    pub telemetry: Option<TuneTelemetry>,
}

impl TuneOutcome {
    /// Distinct candidates whose cost was evaluated by *any* tier: the
    /// analytic screen covers the whole space when it ran, otherwise
    /// whatever the scoreboard executed.
    pub fn candidates_evaluated(&self) -> usize {
        self.screened.max(self.executed)
    }

    /// Evaluation throughput in candidates per second of tuning wall-clock
    /// (0 when the wall-clock is too small to resolve).
    pub fn cands_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.candidates_evaluated() as f64 / secs
        } else {
            0.0
        }
    }
}

/// What happened while measuring one candidate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandReport {
    /// Transient-failure retries consumed.
    pub retries: u32,
    /// Successful measurement samples taken (0 = never executed).
    pub samples: u32,
    /// Terminal error message, if the candidate failed.
    pub error: Option<String>,
    /// Validator verdict, if this candidate was a prospective winner that
    /// failed validation and was quarantined. Quarantine is distinct from
    /// `error`: the candidate *measured* fine but computes the wrong answer
    /// (or carries a statically illegal schedule).
    pub quarantined: Option<String>,
}

impl CandReport {
    fn from_cell(cell: &CandCell) -> CandReport {
        match cell {
            CandCell::Pending => CandReport::default(),
            CandCell::Done { retries, samples, .. } => {
                CandReport { retries: *retries, samples: *samples, ..CandReport::default() }
            }
            CandCell::Failed { error, retries } => CandReport {
                retries: *retries,
                error: Some(error.clone()),
                ..CandReport::default()
            },
        }
    }
}

/// Validates a prospective tuning winner `(input index, candidate)` before
/// it may be reported. `Err` carries the human-readable reason; the tuner
/// quarantines the candidate and falls back to the next-best one. The
/// verdict must be a *pure function of the candidate* — deterministic and
/// independent of measurement order — or quarantine decisions (and thus the
/// reported winner) would vary across runs and job counts. The standard
/// implementation is [`crate::ops::validate_candidate`] (static legality
/// check + differential functional execution on a fault-free machine).
pub type WinnerValidator<'v> = dyn Fn(usize, &Candidate) -> Result<(), String> + 'v;

/// How the engine reacts to transient failures and measurement noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts allowed per candidate, shared between
    /// retries and repeats. Exhausting it with zero successful samples
    /// marks the candidate failed.
    pub max_attempts: u32,
    /// Successful samples to take per candidate when measurement jitter is
    /// enabled; the reported figure is their median. Ignored (one sample)
    /// on a jitter-free machine. Odd values give a true median.
    pub repeats: u32,
    /// Base host-side backoff slept after a transient failure, doubled per
    /// consecutive retry and capped at 16×. Zero disables sleeping.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 8, repeats: 3, backoff: Duration::from_micros(50) }
    }
}

impl RetryPolicy {
    /// Classify a failed execution attempt: retry only errors that can
    /// plausibly go away on a fresh attempt. Deterministic failures —
    /// malformed requests, kernel-contract violations ([`MachineError::BadKernelArgs`]),
    /// out-of-bounds accesses, reply underflows — recur on every attempt
    /// and must fail fast instead of burning the retry budget. Injected
    /// [`MachineError::DmaFault`]s are always transient; an SPM overflow is
    /// transient *only* when a fault plan is active (injected capacity
    /// pressure may have caused it — the next attempt may get the scratch
    /// pad back). Validation failures never reach this path at all: the
    /// winner validator is a pure function of the candidate, so its
    /// verdict is quarantined, not retried.
    pub fn should_retry(&self, e: &MachineError, fault_active: bool) -> bool {
        match e {
            MachineError::DmaFault { .. } => true,
            MachineError::SpmOverflow { .. } => fault_active,
            _ => {
                debug_assert!(e.is_deterministic());
                false
            }
        }
    }
}

/// Periodic serialization of partial tuning state; see [`checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// File the engine writes to (atomically) and resumes from.
    pub path: PathBuf,
    /// Candidate evaluations between checkpoint writes.
    pub every: usize,
    /// Load `path` before tuning and skip already-measured candidates. A
    /// missing or mismatched file starts fresh (with a warning on stderr).
    pub resume: bool,
}

impl CheckpointPolicy {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { path: path.into(), every: 32, resume: false }
    }

    pub fn resuming(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { resume: true, ..Self::new(path) }
    }
}

/// Evaluation-ladder selection for [`tiered_tune_validated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// Three-tier ladder: analytic screen → scoreboard top-k → functional
    /// winner validation.
    #[default]
    Tiered,
    /// Reference mode: every candidate pays the full scoreboard
    /// interpreter (the PR 6 behaviour). Winners must be byte-identical to
    /// `Tiered` on a well-calibrated model — the CI throughput leg enforces
    /// exactly that.
    FullScoreboard,
}

impl TierMode {
    /// Parse a `--tiers` flag value.
    pub fn parse(s: &str) -> Option<TierMode> {
        match s {
            "tiered" => Some(TierMode::Tiered),
            "full" | "full-scoreboard" => Some(TierMode::FullScoreboard),
            _ => None,
        }
    }
}

/// Tier-ladder configuration: how much of the space the scoreboard tier
/// measures and whether the analytic tier memoizes sub-costs.
#[derive(Debug, Clone, PartialEq)]
pub struct TierPolicy {
    pub mode: TierMode,
    /// Scoreboard wave floor: tier-1 always measures at least this many of
    /// the analytic top ranks (the classic model-tuner `k`).
    pub base_k: usize,
    /// Lower bound on the model's assumed relative error band. The adaptive
    /// widening rule never trusts the analytic ranking tighter than this,
    /// even when the observed error on the measured wave is smaller. The
    /// default 0.5 mirrors the ~46% MAPE of the seed calibration.
    pub band_floor: f64,
    /// Hard cap on the scoreboard wave, bounding tier-1 cost when the
    /// analytic ranking is flat (many near-equal predictions).
    pub max_k: usize,
    /// Memoize analytic sub-costs in the shared [`MemoCache`]. Estimates
    /// are bit-identical either way; this only trades memory for speed.
    pub memo: bool,
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy {
            mode: TierMode::Tiered,
            base_k: 3,
            band_floor: 0.5,
            max_k: 64,
            memo: true,
        }
    }
}

/// Full configuration of a tuning run. `TuneOptions::default()` reproduces
/// the plain `_jobs` tuners at `jobs = 1`.
#[derive(Debug, Clone, Default)]
pub struct TuneOptions {
    /// Worker threads (0 and 1 both mean serial).
    pub jobs: usize,
    pub retry: RetryPolicy,
    pub checkpoint: Option<CheckpointPolicy>,
    /// Span/counter/accuracy recorder. `None` (the default) disables
    /// instrumentation entirely: no allocation, no locking, and tuning
    /// results bit-identical to the uninstrumented tuners. Attach a handle
    /// scoped with [`Telemetry::child_of`] to group this run's candidate
    /// spans under an operator span.
    pub telemetry: Option<Telemetry>,
    /// Tier-ladder configuration consumed by [`tiered_tune_validated`];
    /// the fixed-k `model_tune_*` and exhaustive `blackbox_tune_*` entry
    /// points only read [`TierPolicy::memo`].
    pub tiers: TierPolicy,
    /// Live lifecycle-event bus (see [`crate::telemetry::bus`]). `None`
    /// (the default) emits nothing; with a bus attached but no subscriber
    /// the cost is one relaxed load per event site. Events are report-only
    /// and never feed tuning decisions, so results are bit-identical with
    /// or without one.
    pub bus: Option<EventBus>,
    /// Heartbeat / utilization / stall-watchdog monitor for the worker
    /// pool (see [`PoolMonitor`]). `None` (the default) spawns no watchdog
    /// thread and records nothing. Report-only, like the bus.
    pub monitor: Option<Arc<PoolMonitor>>,
}

impl TuneOptions {
    pub fn with_jobs(jobs: usize) -> Self {
        TuneOptions { jobs, ..TuneOptions::default() }
    }
}

/// Why a tuning run produced no outcome at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The candidate slice was empty (or the budget sampled nothing).
    NoCandidates,
    /// Every sampled candidate failed terminally.
    AllFailed {
        /// Candidates whose measurement was attempted.
        sampled: usize,
        /// The last terminal error observed, as a representative.
        last_error: String,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::NoCandidates => write!(f, "tuning found no candidates to measure"),
            TuneError::AllFailed { sampled, last_error } => write!(
                f,
                "all {sampled} sampled candidates failed; last error: {last_error}"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

/// Execute one candidate in cost-only mode, returning its simulated cycles
/// (including the warm-start signal to the resident athread group — the
/// tuner keeps the CPE cluster spawned across candidates, so a candidate
/// pays `kernel_signal`, not the cold `kernel_launch`).
pub fn run_candidate(cfg: &MachineConfig, cand: &Candidate) -> MachineResult<Cycles> {
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
    let binding = instantiate(&mut cg, &cand.exe);
    Ok(execute(&mut cg, &cand.exe, &binding)? + cfg.kernel_signal)
}

/// Static pre-validation, run *before* any simulated execution: reject
/// candidates whose SPM footprint cannot fit the nominal scratch pad or
/// whose GEMM nodes violate the primitive's divisibility contract. Both
/// would also fail at runtime, but surfacing them as
/// [`MachineError::BadKernelArgs`] up front costs nothing and never burns
/// a retry on an error that can't go away.
pub fn prevalidate(cfg: &MachineConfig, cand: &Candidate) -> MachineResult<()> {
    if cand.exe.spm_used > cfg.spm_elems() {
        return Err(MachineError::BadKernelArgs(format!(
            "SPM footprint {} elems exceeds capacity {}",
            cand.exe.spm_used,
            cfg.spm_elems()
        )));
    }
    let mut err: Option<MachineError> = None;
    cand.exe.program.body.visit(&mut |s| {
        if err.is_none() {
            if let Stmt::Gemm(g) = s {
                let mat = |m: &MatDesc| {
                    SpmMatrix::new(slot_offset(&cand.exe, &m.slot) + m.offset, m.layout, m.ld)
                };
                if let Err(e) = swkernels::spm_gemm::validate(
                    g.m,
                    g.n,
                    g.k,
                    &mat(&g.a),
                    &mat(&g.b),
                    &mat(&g.c),
                    g.vd,
                ) {
                    err = Some(e);
                }
            }
        }
    });
    err.map_or(Ok(()), Err)
}

/// Static SPM offset of a slot (even parity for double buffers — parities
/// share a size, and [`swkernels::spm_gemm::validate`] only needs layout
/// and leading dimension anyway).
fn slot_offset(exe: &Executable, slot: &SpmSlot) -> usize {
    let id = match slot {
        SpmSlot::Single(b) => *b,
        SpmSlot::Double { even, .. } => *even,
    };
    exe.try_spm_offset(id).unwrap_or(0)
}

/// Sleep the exponential backoff for the `nth` consecutive retry.
fn backoff_sleep(retry: &RetryPolicy, nth: u32) {
    if retry.backoff.is_zero() {
        return;
    }
    std::thread::sleep(retry.backoff.saturating_mul(1 << nth.min(4)));
}

/// Measure one candidate under the retry policy, returning its cell, the
/// host time spent and the machine counters of its last successful
/// execution. The fault stream of attempt `a` is derived from `(index, a)`,
/// so the returned cell is a pure function of the candidate — never of
/// worker count or evaluation order. `tel`, when present, must be a
/// *candidate-scoped* handle: each execution attempt records an Attempt
/// span under it. The `None` path touches no telemetry state at all.
fn measure_candidate(
    cfg: &MachineConfig,
    cand: &Candidate,
    index: usize,
    retry: &RetryPolicy,
    tel: Option<&Telemetry>,
) -> (CandCell, Duration, Counters) {
    let t = Instant::now();
    let mut counters = Counters::default();
    if let Err(e) = prevalidate(cfg, cand) {
        return (CandCell::Failed { error: e.to_string(), retries: 0 }, t.elapsed(), counters);
    }
    if let Some(plan) = &cfg.fault {
        // Injected stall for watchdog tests: burns host wall-clock only,
        // before any simulated execution, so measured cycles — and hence
        // every tuning decision — are bit-identical with or without it.
        if plan.wedges(index as u64) {
            std::thread::sleep(Duration::from_millis(u64::from(plan.wedge_ms)));
        }
    }
    let fault_active = cfg.fault.is_some();
    let repeats = if cfg.fault.as_ref().is_some_and(|p| p.jitter_permille > 0) {
        retry.repeats.max(1)
    } else {
        1
    };
    let budget = retry.max_attempts.max(repeats);
    let mut samples: Vec<Cycles> = Vec::with_capacity(repeats as usize);
    let mut retries = 0u32;
    let mut attempt = 0u32;
    let mut last_transient: Option<MachineError> = None;
    while (samples.len() as u32) < repeats && attempt < budget {
        let span = tel.map(|t| t.open(SpanKind::Attempt, format!("attempt {attempt}")));
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        cg.arm_faults(index as u64, attempt);
        attempt += 1;
        let binding = instantiate(&mut cg, &cand.exe);
        match execute(&mut cg, &cand.exe, &binding) {
            Ok(c) => {
                let observed = cg.observed(c + cfg.kernel_signal);
                samples.push(observed);
                counters = cg.counters;
                if let (Some(t), Some(id)) = (tel, span) {
                    t.update(id, |s| {
                        s.cycles = Some(observed.get());
                        s.counters = counters;
                    });
                    t.close(id);
                }
            }
            // SPM overflow is permanent on a perfect machine (prevalidation
            // bounds the footprint) but transient under injected capacity
            // pressure: the next attempt may get the scratch pad back.
            Err(e) if retry.should_retry(&e, fault_active) => {
                retries += 1;
                if let (Some(t), Some(id)) = (tel, span) {
                    let msg = e.to_string();
                    t.update(id, |s| s.error = Some(msg));
                    t.close(id);
                }
                last_transient = Some(e);
                backoff_sleep(retry, retries);
            }
            Err(e) => {
                if let (Some(t), Some(id)) = (tel, span) {
                    let msg = e.to_string();
                    t.update(id, |s| s.error = Some(msg));
                    t.close(id);
                }
                return (
                    CandCell::Failed { error: e.to_string(), retries },
                    t.elapsed(),
                    counters,
                );
            }
        }
    }
    if samples.is_empty() {
        let why = last_transient.map_or_else(|| "no samples taken".to_string(), |e| e.to_string());
        let error = format!("retry budget ({budget} attempts) exhausted: {why}");
        return (CandCell::Failed { error, retries }, t.elapsed(), counters);
    }
    // Median of the achieved samples (upper median for even counts): robust
    // against jitter outliers, deterministic because samples are a pure
    // function of (index, attempt).
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let cell =
        CandCell::Done { cycles: median.get(), retries, samples: samples.len() as u32 };
    (cell, t.elapsed(), counters)
}

/// [`measure_candidate`] wrapped in a Candidate span on the worker's
/// telemetry track, recording the (predicted, measured) accuracy pair.
/// With `tel = None` this *is* `measure_candidate` — no span, no lock, no
/// allocation.
fn measure_instrumented(
    cfg: &MachineConfig,
    cand: &Candidate,
    index: usize,
    retry: &RetryPolicy,
    tel: Option<&Telemetry>,
    worker: usize,
    predicted: Option<f64>,
) -> (CandCell, Duration, Counters) {
    let Some(t) = tel else {
        return measure_candidate(cfg, cand, index, retry, None);
    };
    // Pin the span to the worker's timeline track unless the caller already
    // chose one (sweep harnesses pre-assign tracks per shape).
    let t = if t.track().is_some() { t.clone() } else { t.on_track(worker) };
    let span = t.open(SpanKind::Candidate, cand.describe.clone());
    let scoped = t.child_of(span);
    let (cell, wall, counters) = measure_candidate(cfg, cand, index, retry, Some(&scoped));
    t.update(span, |s| {
        s.index = Some(index);
        s.predicted = predicted;
        s.counters = counters;
        match &cell {
            CandCell::Done { cycles, retries, samples } => {
                s.cycles = Some(*cycles);
                s.retries = *retries;
                s.samples = *samples;
            }
            CandCell::Failed { error, retries } => {
                s.error = Some(error.clone());
                s.retries = *retries;
            }
            CandCell::Pending => {}
        }
    });
    t.close(span);
    if let (Some(p), CandCell::Done { cycles, .. }) = (predicted, &cell) {
        t.record_pair(index, p, *cycles);
    }
    (cell, wall, counters)
}

/// Argmin over executed candidates under the total order `(cycles, index)`.
/// Breaking ties by input index is what makes the parallel tuners
/// deterministic: the serial black-box loop keeps the *first* strictly
/// fastest candidate, which is exactly this minimum.
fn best_of(all: &[Option<Cycles>]) -> Option<(usize, Cycles)> {
    all.iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (i, c)))
        .min_by_key(|&(i, c)| (c, i))
}

/// The fault-aware measurement engine shared by the tuners: a cell per
/// candidate, chunked evaluation over the worker pool with panic isolation,
/// and (optionally) a checkpoint written after every chunk.
struct Engine<'a> {
    cfg: &'a MachineConfig,
    candidates: &'a [Candidate],
    jobs: usize,
    retry: RetryPolicy,
    checkpoint: Option<CheckpointPolicy>,
    fingerprint: u64,
    cells: Vec<CandCell>,
    cpu: Duration,
    telemetry: Option<Telemetry>,
    /// Model-predicted cycles per candidate (NaN = unscored). Populated via
    /// [`Engine::set_predictions`] only when telemetry is attached — the
    /// uninstrumented hot path never allocates it.
    predictions: Vec<f64>,
    /// Machine counters per measured candidate (only kept when telemetry is
    /// attached; empty otherwise).
    counters: Vec<Counters>,
    /// Prospective winners rejected by the validator: `(index, reason)` in
    /// quarantine order.
    quarantined: Vec<(usize, String)>,
    /// Candidate indices in the order the tuner asked for them (the
    /// deterministic schedule passed to [`Engine::run`], not worker
    /// completion order) — the substrate for the convergence curve.
    eval_order: Vec<usize>,
    /// Candidates covered by the tier-0 analytic screen.
    screened: usize,
    /// Winner validations performed (accepts and quarantines).
    validated: usize,
    /// Live event bus (report-only; `None` = silent).
    bus: Option<EventBus>,
    /// Pool heartbeat/stall monitor (report-only; `None` = no watchdog).
    monitor: Option<Arc<PoolMonitor>>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a MachineConfig, candidates: &'a [Candidate], opts: &TuneOptions) -> Self {
        let fingerprint = checkpoint::fingerprint(cfg, candidates.len());
        let mut cells = vec![CandCell::Pending; candidates.len()];
        if let Some(cp) = &opts.checkpoint {
            if cp.resume {
                match checkpoint::load(&cp.path) {
                    Ok(ck) if ck.fingerprint == fingerprint && ck.cells.len() == cells.len() => {
                        cells = ck.cells;
                    }
                    Ok(_) => eprintln!(
                        "swatop: checkpoint {} belongs to a different sweep; starting fresh",
                        cp.path.display()
                    ),
                    Err(e) => eprintln!(
                        "swatop: cannot resume from {}: {e}; starting fresh",
                        cp.path.display()
                    ),
                }
            }
        }
        let counters = if opts.telemetry.is_some() {
            vec![Counters::default(); candidates.len()]
        } else {
            Vec::new()
        };
        Engine {
            cfg,
            candidates,
            jobs: opts.jobs.max(1),
            retry: opts.retry.clone(),
            checkpoint: opts.checkpoint.clone(),
            fingerprint,
            cells,
            cpu: Duration::ZERO,
            telemetry: opts.telemetry.clone(),
            predictions: Vec::new(),
            counters,
            quarantined: Vec::new(),
            eval_order: Vec::new(),
            screened: 0,
            validated: 0,
            bus: opts.bus.clone(),
            monitor: opts.monitor.clone(),
        }
    }

    /// Publish a lifecycle event when a bus is attached (the `None` path
    /// never builds the event).
    fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(bus) = &self.bus {
            bus.emit_with(f);
        }
    }

    /// Run the winner validator on candidate `i`, recording a Validate span
    /// (with the rejection reason as its error) when instrumented.
    fn validate(&mut self, validator: &WinnerValidator, i: usize) -> Result<(), String> {
        self.validated += 1;
        let span = self
            .telemetry
            .as_ref()
            .map(|t| (t, t.open(SpanKind::Validate, self.candidates[i].describe.clone())));
        let res = validator(i, &self.candidates[i]);
        if let Some((t, id)) = span {
            t.update(id, |s| {
                s.index = Some(i);
                if let Err(reason) = &res {
                    s.error = Some(reason.clone());
                }
            });
            t.close(id);
        }
        res
    }

    /// Quarantine a rejected winner. The caller must also clear it from its
    /// own selection set so the fallback loop moves on.
    fn quarantine(&mut self, index: usize, reason: String) {
        self.emit(|| Event::Quarantined { index, reason: reason.clone() });
        self.quarantined.push((index, reason));
    }

    /// Remember model predictions for accuracy tracking (telemetry only;
    /// a no-op shortcut keeps the uninstrumented path allocation-free).
    fn set_predictions(&mut self, ranked: &[(usize, f64)]) {
        if self.telemetry.is_none() {
            return;
        }
        self.predictions = vec![f64::NAN; self.candidates.len()];
        for &(i, score) in ranked {
            self.predictions[i] = score;
        }
    }

    fn prediction(&self, i: usize) -> Option<f64> {
        self.predictions.get(i).copied().filter(|p| p.is_finite())
    }

    /// Measure every still-pending index of `order`, a chunk at a time; a
    /// worker panic marks only its own candidate failed.
    fn run(&mut self, order: &[usize]) {
        let todo: Vec<usize> =
            order.iter().copied().filter(|&i| self.cells[i].is_pending()).collect();
        if todo.is_empty() {
            return;
        }
        self.eval_order.extend(todo.iter().copied());
        self.emit(|| Event::WaveStart { size: todo.len() });
        let chunk = self.checkpoint.as_ref().map_or(usize::MAX, |c| c.every.max(1));
        for part in todo.chunks(chunk.min(todo.len())) {
            let results = pool::par_map_catch_ctx_watched(
                self.jobs,
                part,
                self.monitor.as_deref(),
                |_, &i| (i, self.candidates[i].describe.clone()),
                |worker, _, &i| {
                    let out = measure_instrumented(
                        self.cfg,
                        &self.candidates[i],
                        i,
                        &self.retry,
                        self.telemetry.as_ref(),
                        worker,
                        self.prediction(i),
                    );
                    self.emit(|| Event::CandidateMeasured {
                        index: i,
                        cycles: out.0.cycles().map(|c| c.get()),
                        retries: out.0.retries(),
                        worker,
                    });
                    out
                },
            );
            for (&i, r) in part.iter().zip(results) {
                self.cells[i] = match r {
                    Ok((cell, d, counters)) => {
                        self.cpu += d;
                        if let Some(slot) = self.counters.get_mut(i) {
                            *slot = counters;
                        }
                        cell
                    }
                    Err(msg) => CandCell::Failed { error: format!("panicked: {msg}"), retries: 0 },
                };
            }
            self.save();
        }
        self.emit(|| {
            let measured =
                todo.iter().filter(|&&i| matches!(self.cells[i], CandCell::Done { .. })).count();
            Event::WaveEnd { measured, failed: todo.len() - measured }
        });
        self.emit(|| {
            let (kernel_hits, kernel_misses, _) = swkernels::cost::cache_stats();
            let (memo_hits, memo_misses, _) = crate::model::memo::stats();
            Event::MemoTick { kernel_hits, kernel_misses, memo_hits, memo_misses }
        });
    }

    fn save(&self) {
        let Some(cp) = &self.checkpoint else { return };
        if let Err(e) = checkpoint::save(&cp.path, self.fingerprint, &self.cells) {
            eprintln!("swatop: failed to write checkpoint {}: {e}", cp.path.display());
        }
        self.emit(|| Event::CheckpointSaved {
            done: self.cells.iter().filter(|c| !c.is_pending()).count(),
            total: self.cells.len(),
        });
    }

    fn all_cycles(&self) -> Vec<Option<Cycles>> {
        self.cells.iter().map(CandCell::cycles).collect()
    }

    /// Best-so-far cycles vs. candidates evaluated, sampled at every
    /// improvement along [`Engine::eval_order`]. Failed evaluations count
    /// toward the x axis (they consumed search budget) but never improve
    /// the curve.
    fn convergence(&self) -> Vec<(u64, u64)> {
        let mut curve = Vec::new();
        let mut best: Option<u64> = None;
        for (n, &i) in self.eval_order.iter().enumerate() {
            if let Some(c) = self.cells[i].cycles() {
                if best.is_none_or(|b| c.get() < b) {
                    best = Some(c.get());
                    curve.push((n as u64 + 1, c.get()));
                }
            }
        }
        curve
    }

    fn outcome(&self, start: Instant, best: usize, cycles: Cycles, executed: usize) -> TuneOutcome {
        let telemetry = self.telemetry.as_ref().map(|t| {
            let peaks = Peaks::of(self.cfg);
            let mut total = Counters::default();
            let mut mix = BottleneckMix::default();
            for (cell, c) in self.cells.iter().zip(&self.counters) {
                if !cell.is_pending() {
                    total.merge(c);
                }
                // Attribute each measured candidate against the roofline;
                // pure function of (cycles, counters), so the mix is
                // identical for every worker count.
                if let Some(cycles) = cell.cycles() {
                    mix.note(observatory::classify(&peaks, cycles.get(), c));
                }
            }
            let mut summary = t.tune_summary(t.scope(), total);
            summary.mix = mix;
            summary.quarantined = self.quarantined.len();
            summary
        });
        let mut reports: Vec<CandReport> =
            self.cells.iter().map(CandReport::from_cell).collect();
        for (i, reason) in &self.quarantined {
            if let Some(r) = reports.get_mut(*i) {
                r.quarantined = Some(reason.clone());
            }
        }
        TuneOutcome {
            best,
            cycles,
            wall: start.elapsed(),
            executed,
            all_cycles: self.all_cycles(),
            jobs: self.jobs,
            cpu: self.cpu,
            failed: self.cells.iter().filter(|c| matches!(c, CandCell::Failed { .. })).count(),
            retried: self.cells.iter().map(|c| u64::from(c.retries())).sum(),
            quarantined: self.quarantined.len(),
            reports,
            telemetry,
            convergence: self.convergence(),
            screened: self.screened,
            validated: self.validated,
        }
    }
}

/// Brute-force black-box autotuner: execute everything, keep the fastest.
/// Serial (`jobs = 1`) form of [`blackbox_tune_jobs`].
pub fn blackbox_tune(cfg: &MachineConfig, candidates: &[Candidate]) -> Option<TuneOutcome> {
    blackbox_tune_jobs(cfg, candidates, 1)
}

/// Brute-force black-box autotuner over `jobs` worker threads. The result
/// is bit-identical for every `jobs` value: all candidates are executed,
/// `all_cycles` is in input order, and the winner is the `(cycles, index)`
/// minimum.
pub fn blackbox_tune_jobs(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    jobs: usize,
) -> Option<TuneOutcome> {
    blackbox_tune_opts(cfg, candidates, &TuneOptions::with_jobs(jobs))
}

/// [`blackbox_tune_jobs`] with full [`TuneOptions`] control (retry policy,
/// checkpoint/resume). Returns `None` when no candidate could be measured;
/// per-candidate errors are in [`TuneOutcome::reports`] otherwise.
pub fn blackbox_tune_opts(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
) -> Option<TuneOutcome> {
    blackbox_tune_validated(cfg, candidates, opts, None)
}

/// [`blackbox_tune_opts`] with winner validation and quarantine-and-fallback:
/// before any candidate is reported as the winner it must pass `validator`.
/// A rejected winner is quarantined (recorded in
/// [`TuneOutcome::quarantined`] / [`CandReport::quarantined`], plus a
/// telemetry Validate span) and the pick falls back to the next-best
/// measured candidate; returns `None` only when *every* measurable candidate
/// is quarantined. A validation failure is a deterministic property of the
/// candidate — it is never retried (see [`RetryPolicy::should_retry`]).
pub fn blackbox_tune_validated(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
    validator: Option<&WinnerValidator>,
) -> Option<TuneOutcome> {
    // Calibrate outside the tuning wall (see [`TuneOutcome::wall`]).
    let model = opts.telemetry.as_ref().map(|_| GemmModel::cached(cfg));
    let start = Instant::now();
    let mut eng = Engine::new(cfg, candidates, opts);
    if let Some(model) = &model {
        // Score the space so every measurement contributes a (predicted,
        // measured) accuracy pair. Pure observability: the scoring cost is
        // *not* charged to `cpu` (the black-box tuner never pays it) and
        // the pick below still depends only on measured cycles.
        let (ranked, _) = score_all(cfg, model, candidates, eng.jobs, memo_of(&opts.tiers));
        eng.set_predictions(&ranked);
    }
    let order: Vec<usize> = (0..candidates.len()).collect();
    eng.run(&order);
    let mut chosen = eng.all_cycles();
    let (best, cycles) = loop {
        let (b, c) = best_of(&chosen)?;
        let Some(v) = validator else { break (b, c) };
        match eng.validate(v, b) {
            Ok(()) => break (b, c),
            Err(reason) => {
                eng.quarantine(b, reason);
                chosen[b] = None;
            }
        }
    };
    Some(eng.outcome(start, best, cycles, candidates.len()))
}

/// The candidates whose `raw` the tier-0 screen estimates, and which of them
/// stands in for each candidate: `leaders[slot[i]]` is the first candidate
/// holding the same `raw` tree and tables as candidate `i`. Sameness is
/// *identity* of the shared parts ([`swatop_ir::Program::part_addrs`]) —
/// the scheduler hands the `dbuf` on/off siblings of a group one `raw`
/// (DESIGN.md §18) — never adjacency and never `==`: equal programs that are
/// separate allocations each lead their own group. A pure function of the
/// slice, so the screen stays `--jobs`-invariant.
pub fn screen_leaders(candidates: &[Candidate]) -> (Vec<usize>, Vec<usize>) {
    let mut slot_of_parts = std::collections::HashMap::with_capacity(candidates.len());
    let mut leaders = Vec::new();
    let slot = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            *slot_of_parts.entry(c.raw.part_addrs()).or_insert_with(|| {
                leaders.push(i);
                leaders.len() - 1
            })
        })
        .collect();
    (leaders, slot)
}

/// Score every candidate with the calibrated static model, returning
/// `(index, predicted cycles)` sorted fastest-first. The sort is stable, so
/// equal predictions keep input order regardless of `jobs`. The estimate
/// reads a program's tree and tables, never its hints, so it runs once per
/// distinct `raw` ([`screen_leaders`]) and `Estimate::overall` is applied
/// per candidate. With `memo` attached, loop-subtree sub-costs are reused
/// through the shared cache — the scores are bit-identical either way
/// ([`crate::model::estimate_program_memo`] groups its summation the same
/// whether it hits, misses or skips the cache).
fn score_all(
    cfg: &MachineConfig,
    model: &GemmModel,
    candidates: &[Candidate],
    jobs: usize,
    memo: Option<&MemoCache>,
) -> (Vec<(usize, f64)>, Duration) {
    let (leaders, slot) = screen_leaders(candidates);
    let estimates = pool::par_map(jobs, &leaders, |_, &i| {
        let t = Instant::now();
        (estimate_program_memo(cfg, model, &candidates[i].raw, memo), t.elapsed())
    });
    let cpu = estimates.iter().map(|(_, d)| *d).sum();
    let mut ranked: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| (i, estimates[slot[i]].0.overall(c.prefetched)))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    (ranked, cpu)
}

/// Performance-model-based autotuner: estimate everything analytically,
/// execute only the top-k predictions and keep the fastest — the paper's
/// "predict and pick best (or top k) implementations". Serial form of
/// [`model_tune_topk_jobs`].
pub fn model_tune_topk(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    k: usize,
) -> Option<TuneOutcome> {
    model_tune_topk_jobs(cfg, candidates, k, 1)
}

/// Model-based top-k autotuner over `jobs` worker threads.
pub fn model_tune_topk_jobs(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    k: usize,
    jobs: usize,
) -> Option<TuneOutcome> {
    model_tune_topk_opts(cfg, candidates, k, &TuneOptions::with_jobs(jobs))
}

/// Model-based top-k autotuner with full [`TuneOptions`] control. Model
/// scoring and the top-k validation wave both run on the pool; if every
/// candidate in the wave fails, validation continues down the ranking one
/// at a time (as the serial tuner does) until something executes.
pub fn model_tune_topk_opts(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    k: usize,
    opts: &TuneOptions,
) -> Option<TuneOutcome> {
    model_tune_topk_validated(cfg, candidates, k, opts, None)
}

/// [`model_tune_topk_opts`] with winner validation and
/// quarantine-and-fallback. A quarantined winner first falls back within
/// the measured top-k wave; once the wave is exhausted (every member failed
/// or was quarantined) the tuner continues *down the model ranking* one
/// candidate at a time — measure, then validate — until a legal winner
/// emerges or the ranking runs out (`None`). This unifies the all-failed
/// fallback of the serial tuner with quarantine fallback: both are "the
/// wave produced nothing reportable".
pub fn model_tune_topk_validated(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    k: usize,
    opts: &TuneOptions,
    validator: Option<&WinnerValidator>,
) -> Option<TuneOutcome> {
    // Calibrate outside the tuning wall (see [`TuneOutcome::wall`]).
    let model = GemmModel::cached(cfg);
    let start = Instant::now();
    let mut eng = Engine::new(cfg, candidates, opts);
    let (ranked, score_cpu) = score_all(cfg, &model, candidates, eng.jobs, memo_of(&opts.tiers));
    eng.cpu += score_cpu;
    eng.screened = candidates.len();
    // Predictions for the *full* ranked set, not only the winners: every
    // executed candidate — including ones rejected in the top-k wave and
    // fallback probes — then feeds the accuracy tracker, so rank
    // correlation reflects the whole validated ranking.
    eng.set_predictions(&ranked);
    let wave: Vec<usize> = ranked.iter().take(k).map(|&(i, _)| i).collect();
    eng.run(&wave);
    let mut executed = wave.len();
    // Consider only indices this run actually targeted: a resumed
    // checkpoint may hold measurements for candidates outside the wave
    // (e.g. from a black-box sweep), and those must not leak into the pick.
    let mut chosen: Vec<Option<Cycles>> = vec![None; candidates.len()];
    for &i in &wave {
        chosen[i] = eng.cells[i].cycles();
    }
    let mut rest = ranked.iter().skip(wave.len());
    let (best, cycles) = loop {
        match best_of(&chosen) {
            Some((b, c)) => {
                let Some(v) = validator else { break (b, c) };
                match eng.validate(v, b) {
                    Ok(()) => break (b, c),
                    Err(reason) => {
                        eng.quarantine(b, reason);
                        chosen[b] = None;
                    }
                }
            }
            None => {
                let &(i, _) = rest.next()?;
                eng.run(&[i]);
                executed += 1;
                chosen[i] = eng.cells[i].cycles();
            }
        }
    };
    Some(eng.outcome(start, best, cycles, executed))
}

/// [`tiered_tune_validated`] without winner validation.
pub fn tiered_tune(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
) -> Option<TuneOutcome> {
    tiered_tune_validated(cfg, candidates, opts, None)
}

/// Three-tier evaluation ladder (ROADMAP item 3).
///
/// * **Tier 0** — the closed-form analytic model (Eq. 1 DMA terms + Eq. 2
///   compute with `T_overall = max`; no scoreboard, no [`CoreGroup`])
///   cost-ranks the *entire* candidate space in one memoized batch.
/// * **Tier 1** — the scoreboard interpreter measures only an adaptive
///   analytic top-k wave. Starting from [`TierPolicy::base_k`], the wave
///   widens to every rank whose analytic cost lies within the model's
///   *observed* error band of the best measured cycles: once the analytic
///   margin of rank k exceeds that band — `predicted(k) > (1 + band) ×
///   best_measured`, with `band` the maximum relative error over the
///   measured (predicted, measured) pairs floored at
///   [`TierPolicy::band_floor`] — no deeper rank can plausibly beat the
///   winner, and the wave stops ([`TierPolicy::max_k`] bounds it when the
///   ranking is flat). Widening repeats to a fixpoint: new wave members
///   refine both the band and the best.
/// * **Tier 2** — functional execution + the differential `validator` run
///   on the final winner only, with the standard quarantine-and-fallback
///   (within the measured wave first, then down the analytic ranking).
///
/// Deterministic: analytic scores, measured cycles and hence the
/// adaptive-k trajectory are pure functions of the candidate set and the
/// machine config, so the outcome is bit-identical for every `--jobs`
/// value and across checkpoint/resume. [`TierMode::FullScoreboard`]
/// dispatches to [`blackbox_tune_validated`] instead: every candidate pays
/// the scoreboard, and on the committed op set the winners are
/// byte-identical — which is what the CI throughput leg asserts.
pub fn tiered_tune_validated(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
    validator: Option<&WinnerValidator>,
) -> Option<TuneOutcome> {
    if opts.tiers.mode == TierMode::FullScoreboard {
        return blackbox_tune_validated(cfg, candidates, opts, validator);
    }
    if candidates.is_empty() {
        return None;
    }
    let policy = &opts.tiers;
    // Calibrate outside the tuning wall (see [`TuneOutcome::wall`]).
    let model = GemmModel::cached(cfg);
    let start = Instant::now();
    let mut eng = Engine::new(cfg, candidates, opts);
    // Tier 0: batch analytic screen of the whole space.
    let screen = eng.telemetry.clone().map(|t| {
        let id = t.open(
            SpanKind::Screen,
            format!("tier0 screen: {} candidates", candidates.len()),
        );
        (t, id)
    });
    let (ranked, score_cpu) = score_all(cfg, &model, candidates, eng.jobs, memo_of(policy));
    eng.cpu += score_cpu;
    eng.screened = candidates.len();
    if let Some((t, id)) = screen {
        t.update(id, |s| s.samples = candidates.len() as u32);
        t.close(id);
    }
    eng.set_predictions(&ranked);
    // Tier 1: adaptive scoreboard wave over the analytic ranking.
    let cap = policy.max_k.max(policy.base_k).min(candidates.len()).max(1);
    let mut k = policy.base_k.clamp(1, cap);
    let mut measured = 0usize;
    while measured < k {
        let wave: Vec<usize> = ranked[measured..k].iter().map(|&(i, _)| i).collect();
        eng.run(&wave);
        measured = k;
        let mut band = policy.band_floor;
        let mut best: Option<u64> = None;
        for &(i, pred) in &ranked[..measured] {
            if let Some(c) = eng.cells[i].cycles() {
                let m = c.get();
                best = Some(best.map_or(m, |b| b.min(m)));
                if m > 0 {
                    band = band.max((pred - m as f64).abs() / m as f64);
                }
            }
        }
        match best {
            Some(b) => {
                // Ranks predicted beyond (1 + band)× the best measured
                // cycles cannot plausibly beat the winner; everything
                // closer gets measured too.
                let threshold = (1.0 + band) * b as f64;
                while k < cap && ranked[k].1 <= threshold {
                    k += 1;
                }
            }
            // The whole wave failed terminally: probe deeper.
            None => k = (k + policy.base_k.max(1)).min(cap),
        }
    }
    let mut executed = measured;
    // Consider only indices this run targeted (resumed checkpoints may
    // hold measurements outside the wave — see model_tune_topk_validated).
    let mut chosen: Vec<Option<Cycles>> = vec![None; candidates.len()];
    for &(i, _) in &ranked[..measured] {
        chosen[i] = eng.cells[i].cycles();
    }
    let mut rest = ranked.iter().skip(measured);
    let (best, cycles) = loop {
        match best_of(&chosen) {
            Some((b, c)) => {
                let Some(v) = validator else { break (b, c) };
                match eng.validate(v, b) {
                    Ok(()) => break (b, c),
                    Err(reason) => {
                        eng.quarantine(b, reason);
                        chosen[b] = None;
                    }
                }
            }
            None => {
                let &(i, _) = rest.next()?;
                eng.run(&[i]);
                executed += 1;
                chosen[i] = eng.cells[i].cycles();
            }
        }
    };
    Some(eng.outcome(start, best, cycles, executed))
}

/// Model-based autotuner with the default top-k (3) validation depth.
pub fn model_tune(cfg: &MachineConfig, candidates: &[Candidate]) -> Option<TuneOutcome> {
    model_tune_topk(cfg, candidates, 3)
}

/// [`model_tune`] over `jobs` worker threads.
pub fn model_tune_jobs(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    jobs: usize,
) -> Option<TuneOutcome> {
    model_tune_topk_jobs(cfg, candidates, 3, jobs)
}

/// [`model_tune`] with full [`TuneOptions`] control.
pub fn model_tune_opts(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
) -> Option<TuneOutcome> {
    model_tune_topk_opts(cfg, candidates, 3, opts)
}

/// Rank every candidate by the model without executing any of them
/// (used by space-exploration statistics and the Fig. 9 harness).
pub fn model_rank(cfg: &MachineConfig, candidates: &[Candidate]) -> Vec<(usize, f64)> {
    model_rank_jobs(cfg, candidates, 1)
}

/// [`model_rank`] over `jobs` worker threads; the ranking is identical for
/// every job count (scores are pure, the sort is stable).
pub fn model_rank_jobs(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    jobs: usize,
) -> Vec<(usize, f64)> {
    let model = GemmModel::cached(cfg);
    score_all(cfg, &model, candidates, jobs.max(1), Some(MemoCache::global())).0
}

/// The shared memo cache when the policy enables sub-cost memoization.
fn memo_of(tiers: &TierPolicy) -> Option<&'static MemoCache> {
    tiers.memo.then(MemoCache::global)
}

/// Optimize, plan and execute a raw program in cost-only mode (used by
/// hand-constructed baseline schedules that bypass the scheduler).
pub fn run_program(cfg: &MachineConfig, program: swatop_ir::Program) -> MachineResult<Cycles> {
    run_program_with_launches(cfg, program, 1)
}

/// Like [`run_program`] but charging `launches` CPE kernel launches —
/// baseline code that makes N library calls spawns the CPE cluster N
/// times, where fused generated code spawns once.
pub fn run_program_with_launches(
    cfg: &MachineConfig,
    program: swatop_ir::Program,
    launches: u64,
) -> MachineResult<Cycles> {
    let opt = crate::optimizer::optimize(program, true);
    let exe = crate::codegen::plan(opt, cfg)?;
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
    let binding = instantiate(&mut cg, &exe);
    Ok(execute(&mut cg, &exe, &binding)? + Cycles(cfg.kernel_launch.get() * launches))
}
