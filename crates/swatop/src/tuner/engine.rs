//! The fault-aware measurement engine under [`super::tune`]: one cost-only
//! execution ([`run_candidate`]), static pre-validation ([`prevalidate`]),
//! the retry / median-of-N measurement of one candidate, and the [`Engine`]
//! that fans waves of them over the worker [`pool`] with panic isolation,
//! checkpointing, telemetry spans and bus events.

use std::time::{Duration, Instant};

use sw26010::{
    CoreGroup, Counters, Cycles, ExecMode, MachineConfig, MachineError, MachineResult,
};
use swatop_ir::{MatDesc, SpmSlot, Stmt};
use swkernels::spm_gemm::SpmMatrix;

use super::checkpoint::{self, CandCell};
use super::pool;
use super::{should_retry, CandReport, TuneOptions, TuneOutcome, WinnerValidator};
use crate::codegen::Planned;
use crate::interp::{execute, instantiate};
use crate::scheduler::Candidate;
use crate::telemetry::bus::Event;
use crate::telemetry::{SpanKind, Telemetry};

/// Execute one candidate in cost-only mode, returning its simulated cycles
/// (including the warm-start signal to the resident athread group — the
/// tuner keeps the CPE cluster spawned across candidates, so a candidate
/// pays `kernel_signal`, not the cold `kernel_launch`).
pub fn run_candidate(cfg: &MachineConfig, cand: &Candidate) -> MachineResult<Cycles> {
    run_on(&mut CoreGroup::new(cfg.clone(), ExecMode::CostOnly), &cand.exe)
}

/// One execution of `exe` on `cg`, warm-start signal included: the body of
/// [`run_candidate`] and of every measurement attempt.
fn run_on(cg: &mut CoreGroup, exe: &Planned) -> MachineResult<Cycles> {
    let binding = instantiate(cg, exe);
    Ok(execute(cg, exe, &binding)? + cg.cfg.kernel_signal)
}

/// Static pre-validation, run *before* any simulated execution: reject
/// candidates whose SPM footprint cannot fit the nominal scratch pad or
/// whose GEMM nodes violate the primitive's divisibility contract. Both
/// would also fail at runtime, but surfacing them as
/// [`MachineError::BadKernelArgs`] up front costs nothing and never burns
/// a retry on an error that can't go away.
pub fn prevalidate(cfg: &MachineConfig, exe: &Planned) -> MachineResult<()> {
    if exe.spm_used > cfg.spm_elems() {
        return Err(MachineError::BadKernelArgs(format!(
            "SPM footprint {} elems exceeds capacity {}",
            exe.spm_used,
            cfg.spm_elems()
        )));
    }
    let mut err: Option<MachineError> = None;
    exe.program.body.visit(&mut |s| {
        if err.is_none() {
            if let Stmt::Gemm(g) = s {
                let mat = |m: &MatDesc| {
                    SpmMatrix::new(slot_offset(exe, &m.slot) + m.offset, m.layout, m.ld)
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
fn slot_offset(exe: &Planned, slot: &SpmSlot) -> usize {
    let id = match slot {
        SpmSlot::Single(b) => *b,
        SpmSlot::Double { even, .. } => *even,
    };
    exe.try_spm_offset(id).unwrap_or(0)
}

/// Execution attempts allowed per candidate, shared between retries and
/// repeats; exhausting them with no successful sample fails the candidate.
const MAX_ATTEMPTS: u32 = 8;

/// Successful samples taken per candidate when measurement jitter is
/// injected (one otherwise); the reported figure is their median.
const REPEATS: u32 = 3;

/// Candidate evaluations between checkpoint writes.
const CHECKPOINT_EVERY: usize = 32;

/// Measure one candidate — retried while [`should_retry`] says so, median
/// of [`REPEATS`] under jitter — returning its cell, the host time spent
/// and the machine counters of its last successful execution. The fault
/// stream of attempt `a` is derived from `(index, a)`, so the returned cell
/// is a pure function of the candidate — never of worker count or
/// evaluation order. `tel`, when present, must be a
/// *candidate-scoped* handle: each execution attempt records an Attempt
/// span under it. The `None` path touches no telemetry state at all.
fn measure_candidate(
    cfg: &MachineConfig,
    exe: &Planned,
    index: usize,
    tel: Option<&Telemetry>,
) -> (CandCell, Duration, Counters) {
    let t = Instant::now();
    let mut counters = Counters::default();
    if let Err(e) = prevalidate(cfg, exe) {
        return (CandCell::Failed { error: e.to_string(), retries: 0 }, t.elapsed(), counters);
    }
    let fault_active = cfg.fault.is_some();
    let jitter = cfg.fault.as_ref().is_some_and(|p| p.jitter_permille > 0);
    let repeats = if jitter { REPEATS } else { 1 };
    let mut samples: Vec<Cycles> = Vec::with_capacity(repeats as usize);
    let mut retries = 0u32;
    let mut attempt = 0u32;
    let mut last_transient: Option<MachineError> = None;
    while (samples.len() as u32) < repeats && attempt < MAX_ATTEMPTS {
        let span = tel.map(|t| t.open(SpanKind::Attempt, format!("attempt {attempt}")));
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        cg.arm_faults(index as u64, attempt);
        attempt += 1;
        let run = run_on(&mut cg, exe).map(|c| cg.observed(c));
        if let (Some(t), Some(id)) = (tel, span) {
            t.update(id, |s| match &run {
                Ok(observed) => {
                    s.cycles = Some(observed.get());
                    s.counters = cg.counters;
                }
                Err(e) => s.error = Some(e.to_string()),
            });
            t.close(id);
        }
        match run {
            Ok(observed) => {
                samples.push(observed);
                counters = cg.counters;
            }
            // SPM overflow is permanent on a perfect machine (prevalidation
            // bounds the footprint) but transient under injected capacity
            // pressure: the next attempt may get the scratch pad back.
            Err(e) if should_retry(&e, fault_active) => {
                retries += 1;
                last_transient = Some(e);
            }
            Err(e) => {
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
        let error = format!("retry budget ({MAX_ATTEMPTS} attempts) exhausted: {why}");
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
/// telemetry track; the span carries the prediction beside the measurement,
/// which is what makes it an accuracy pair. With `tel = None` this *is*
/// `measure_candidate` — no span, no lock, no allocation.
fn measure_instrumented(
    cfg: &MachineConfig,
    cand: &Candidate,
    exe: &Planned,
    index: usize,
    tel: Option<&Telemetry>,
    worker: usize,
    predicted: Option<f64>,
) -> (CandCell, Duration) {
    let Some(t) = tel else {
        let (cell, wall, _) = measure_candidate(cfg, exe, index, None);
        return (cell, wall);
    };
    // Pin the span to the worker's timeline track unless the caller already
    // chose one (sweep harnesses pre-assign tracks per shape).
    let t = if t.track().is_some() { t.clone() } else { t.on_track(worker) };
    let span = t.open(SpanKind::Candidate, cand.describe.clone());
    let scoped = t.child_of(span);
    let (cell, wall, counters) = measure_candidate(cfg, exe, index, Some(&scoped));
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
    (cell, wall)
}

/// The fault-aware measurement engine under [`super::tune`]: a cell per
/// candidate, chunked evaluation over the worker pool with panic isolation,
/// and (optionally) a checkpoint written after every chunk.
pub(super) struct Engine<'a> {
    cfg: &'a MachineConfig,
    candidates: &'a [Candidate],
    /// Workers, tier and checkpoint policy, and the report-only telemetry
    /// recorder and event bus (`None` = silent).
    opts: &'a TuneOptions,
    /// [`checkpoint::fingerprint`] of the run, taken only under a
    /// checkpoint policy (0 without one).
    fingerprint: u64,
    pub(super) cells: Vec<CandCell>,
    pub(super) cpu: Duration,
    /// Model-predicted cycles per candidate (NaN = unscored). Populated via
    /// [`Engine::set_predictions`] only when telemetry is attached — the
    /// uninstrumented hot path never allocates it.
    predictions: Vec<f64>,
    /// Prospective winners rejected by the validator: `(index, reason)` in
    /// quarantine order.
    pub(super) quarantined: Vec<(usize, String)>,
    /// Candidate indices in the order the tuner asked for them (the
    /// deterministic schedule passed to [`Engine::run`], not worker
    /// completion order) — the substrate for the convergence curve.
    eval_order: Vec<usize>,
    /// Candidates covered by the tier-0 analytic screen.
    pub(super) screened: usize,
    /// Winner validations performed (accepts and quarantines).
    validated: usize,
}

impl<'a> Engine<'a> {
    pub(super) fn new(
        cfg: &'a MachineConfig,
        candidates: &'a [Candidate],
        opts: &'a TuneOptions,
    ) -> Self {
        let fingerprint =
            opts.checkpoint.as_ref().map_or(0, |_| checkpoint::fingerprint(cfg, candidates));
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
        Engine {
            cfg,
            candidates,
            opts,
            fingerprint,
            cells,
            cpu: Duration::ZERO,
            predictions: Vec::new(),
            quarantined: Vec::new(),
            eval_order: Vec::new(),
            screened: 0,
            validated: 0,
        }
    }

    /// Publish a lifecycle event when a bus is attached (the `None` path
    /// never builds the event).
    fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(bus) = &self.opts.bus {
            bus.emit_with(f);
        }
    }

    /// Run the winner validator on candidate `i`, recording a Validate span
    /// (with the rejection reason as its error) when instrumented.
    pub(super) fn validate(&mut self, validator: &WinnerValidator, i: usize) -> Result<(), String> {
        self.validated += 1;
        let label = &self.candidates[i].describe;
        let tel = self.opts.telemetry.as_ref();
        let span = tel.map(|t| (t, t.open(SpanKind::Validate, label.clone())));
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
    pub(super) fn quarantine(&mut self, index: usize, reason: String) {
        self.emit(|| Event::Quarantined { index, reason: reason.clone() });
        self.quarantined.push((index, reason));
    }

    /// Remember model predictions for accuracy tracking (telemetry only;
    /// a no-op shortcut keeps the uninstrumented path allocation-free).
    pub(super) fn set_predictions(&mut self, ranked: &[(usize, f64)]) {
        if self.opts.telemetry.is_none() {
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
    pub(super) fn run(&mut self, order: &[usize]) {
        let todo: Vec<usize> =
            order.iter().copied().filter(|&i| self.cells[i].is_pending()).collect();
        if todo.is_empty() {
            return;
        }
        self.eval_order.extend(todo.iter().copied());
        let chunk = if self.opts.checkpoint.is_some() { CHECKPOINT_EVERY } else { usize::MAX };
        for part in todo.chunks(chunk.min(todo.len())) {
            let results = pool::par_map_watched(self.opts.jobs, part, |worker, _, &i| {
                // Build (outside the span and `cpu`), measure, drop.
                let exe = self.candidates[i].exe.transient();
                measure_instrumented(
                    self.cfg,
                    &self.candidates[i],
                    &exe,
                    i,
                    self.opts.telemetry.as_ref(),
                    worker,
                    self.prediction(i),
                )
            });
            for (&i, r) in part.iter().zip(results) {
                self.cells[i] = match r {
                    Ok((cell, d)) => {
                        self.cpu += d;
                        cell
                    }
                    Err(msg) => CandCell::Failed { error: format!("panicked: {msg}"), retries: 0 },
                };
            }
            self.save();
        }
    }

    fn save(&self) {
        let Some(cp) = &self.opts.checkpoint else { return };
        if let Err(e) = checkpoint::save(&cp.path, self.fingerprint, &self.cells) {
            eprintln!("swatop: failed to write checkpoint {}: {e}", cp.path.display());
        }
        self.emit(|| Event::CheckpointSaved {
            done: self.cells.iter().filter(|c| !c.is_pending()).count(),
            total: self.cells.len(),
        });
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

    pub(super) fn outcome(
        &self,
        start: Instant,
        best: usize,
        cycles: Cycles,
        executed: usize,
    ) -> TuneOutcome {
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
            all_cycles: self.cells.iter().map(CandCell::cycles).collect(),
            jobs: self.opts.jobs.max(1),
            cpu: self.cpu,
            failed: self.cells.iter().filter(|c| matches!(c, CandCell::Failed { .. })).count(),
            retried: self.cells.iter().map(|c| u64::from(c.retries())).sum(),
            quarantined: self.quarantined.len(),
            reports,
            convergence: self.convergence(),
            screened: self.screened,
            validated: self.validated,
        }
    }
}

/// Optimize, plan and execute a raw program in cost-only mode (used by
/// hand-constructed baseline schedules that bypass the scheduler). The
/// program runs single-buffered, as the libraries those baselines model do.
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
    let opt = crate::optimizer::optimize(program, false);
    let exe = crate::codegen::plan(opt, cfg)?;
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
    let binding = instantiate(&mut cg, &exe);
    Ok(execute(&mut cg, &exe, &binding)? + Cycles(cfg.kernel_launch.get() * launches))
}
