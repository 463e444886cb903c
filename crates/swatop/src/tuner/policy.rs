//! What a tuning run is told and what it reports: [`TuneOptions`] and the
//! policies it carries ([`TierPolicy`], [`CheckpointPolicy`]), the
//! [`TuneOutcome`] / [`CandReport`] a run returns, the [`TuneError`] it
//! returns instead when nothing can be reported, and which failed attempts
//! are worth another ([`should_retry`]).

use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use sw26010::{Cycles, MachineError};

use super::checkpoint::CandCell;
use crate::scheduler::Candidate;
use crate::telemetry::bus::EventBus;
use crate::telemetry::Telemetry;

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Position of the chosen candidate in the input slice.
    pub best: usize,
    /// Simulated cycles of the chosen candidate.
    pub cycles: Cycles,
    /// Host wall-clock time spent tuning (screening, measuring, picking).
    /// Calibrating the analytic [`crate::model::GemmModel`] is *excluded*: it is a
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
    /// (input order under [`TierPolicy::exhaustive`], model-ranked wave
    /// order otherwise), so the curve is identical for every `jobs` value.
    pub convergence: Vec<(u64, u64)>,
    /// Candidates ranked by the tier-0 analytic screen: the whole space,
    /// or 0 under [`TierPolicy::exhaustive`], which picks without it.
    pub screened: usize,
    /// Tier-2 winner validations performed (quarantined rejections plus the
    /// final accept). 0 when tuning without a validator.
    pub validated: usize,
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
    pub(crate) fn from_cell(cell: &CandCell) -> CandReport {
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

/// Classify a failed execution attempt: retry only errors that can
/// plausibly go away on a fresh attempt. Deterministic failures — malformed
/// requests, kernel-contract violations ([`MachineError::BadKernelArgs`]),
/// out-of-bounds accesses, reply underflows — recur on every attempt and
/// must fail fast instead of burning the retry budget. Injected
/// [`MachineError::DmaFault`]s are always transient; an SPM overflow is
/// transient *only* when a fault plan is active (injected capacity pressure
/// may have caused it — the next attempt may get the scratch pad back).
/// Validation failures never reach this path at all: the winner validator is
/// a pure function of the candidate, so its verdict is quarantined, not
/// retried.
pub fn should_retry(e: &MachineError, fault_active: bool) -> bool {
    match e {
        MachineError::DmaFault { .. } => true,
        MachineError::SpmOverflow { .. } => fault_active,
        _ => {
            debug_assert!(e.is_deterministic());
            false
        }
    }
}

/// Periodic serialization of partial tuning state; see [`super::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// File the engine writes to (atomically, every 32 evaluations) and
    /// resumes from.
    pub path: PathBuf,
    /// Load `path` before tuning and skip already-measured candidates. A
    /// missing or mismatched file starts fresh (with a warning on stderr).
    pub resume: bool,
}

impl CheckpointPolicy {
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { path: path.into(), resume: false }
    }

    pub fn resuming(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { resume: true, ..Self::new(path) }
    }
}

/// Which candidates [`super::tune`] sends to the scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierMode {
    /// Three-tier ladder: analytic screen → scoreboard top-k → functional
    /// winner validation.
    #[default]
    Tiered,
    /// Brute force, the paper's black-box yardstick (Fig. 9 / Table 3):
    /// every candidate pays the full scoreboard interpreter, in input
    /// order, and the analytic model decides nothing. Winners must be
    /// byte-identical to `Tiered` on a well-calibrated model — the CI
    /// throughput leg enforces exactly that.
    FullScoreboard,
}

/// Tier-ladder configuration: how much of the space the scoreboard tier
/// measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierPolicy {
    pub mode: TierMode,
    /// Scoreboard wave floor: tier-1 always measures at least this many of
    /// the analytic top ranks (the classic model-tuner `k`).
    pub base_k: usize,
    /// Hard cap on the scoreboard wave, bounding tier-1 cost when the
    /// analytic ranking is flat (many near-equal predictions).
    pub max_k: usize,
}

impl TierPolicy {
    /// Brute force: measure the whole space ([`TierMode::FullScoreboard`]).
    pub fn exhaustive() -> Self {
        TierPolicy { mode: TierMode::FullScoreboard, ..TierPolicy::default() }
    }

    /// The paper's "predict and pick the best (or top k)": the ladder with
    /// widening switched off, so the scoreboard measures exactly the `k`
    /// best analytic ranks (and walks further down the ranking only while
    /// none of them yields a reportable winner).
    pub fn top_k(k: usize) -> Self {
        TierPolicy { base_k: k, max_k: k, ..TierPolicy::default() }
    }
}

impl Default for TierPolicy {
    fn default() -> Self {
        TierPolicy { mode: TierMode::Tiered, base_k: 3, max_k: 64 }
    }
}

/// Full configuration of a tuning run. `TuneOptions::default()` is the
/// serial adaptive ladder on a machine trusted not to fault: no
/// checkpoint, no instrumentation, no bus.
#[derive(Debug, Clone, Default)]
pub struct TuneOptions {
    /// Worker threads (0 and 1 both mean serial).
    pub jobs: usize,
    pub checkpoint: Option<CheckpointPolicy>,
    /// Span/counter/accuracy recorder. `None` (the default) disables
    /// instrumentation entirely: no allocation, no locking, and tuning
    /// results bit-identical to the uninstrumented tuners. Attach a handle
    /// scoped with [`Telemetry::child_of`] to group this run's candidate
    /// spans under an operator span.
    pub telemetry: Option<Telemetry>,
    /// The strategy: which candidates the scoreboard measures (adaptive
    /// ladder by default, [`TierPolicy::top_k`], [`TierPolicy::exhaustive`]).
    pub tiers: TierPolicy,
    /// Live lifecycle-event bus (see [`crate::telemetry::bus`]). `None`
    /// (the default) emits nothing; with a bus attached but no subscriber
    /// the cost is one relaxed load per event site. Events are report-only
    /// and never feed tuning decisions, so results are bit-identical with
    /// or without one.
    pub bus: Option<EventBus>,
}

impl TuneOptions {
    pub fn with_jobs(jobs: usize) -> Self {
        TuneOptions { jobs, ..TuneOptions::default() }
    }
}

/// Why a tuning run produced no outcome at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The candidate slice was empty.
    NoCandidates,
    /// Every sampled candidate failed terminally or, having measured, was
    /// rejected by the winner validator.
    AllFailed {
        /// Candidates whose measurement was attempted.
        sampled: usize,
        /// A representative: the last quarantine reason when any candidate
        /// measured (each was then rejected), else the last terminal error.
        last_error: String,
    },
}

impl TuneError {
    /// The representative error of an all-failed run: the terminal error of
    /// the last failed cell of `cells`, given in evaluation order.
    pub(super) fn last_of<'c>(cells: impl DoubleEndedIterator<Item = &'c CandCell>) -> String {
        cells
            .rev()
            .find_map(|c| match c {
                CandCell::Failed { error, .. } => Some(error.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "no error recorded".to_string())
    }
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
