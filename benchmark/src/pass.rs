//! One pass over a workload's op list: every op goes from operator
//! description to validated winner and emitted C, through the product's
//! public functions only. [`tune_op`] is the timed path; [`trace_op`] does
//! the same work with a span around every layer and then replays the layers
//! the tuner hides (screen, CostOnly runs, the validator's parts) in
//! isolation.

use std::cell::RefCell;
use std::time::Instant;

use sw26010::{CoreGroup, ExecMode, MachineConfig, MachineResult};
use swatop::codegen::plan;
use swatop::interp::{execute, instantiate};
use swatop::model::memo::MemoCache;
use swatop::model::{estimate_program_memo, GemmModel};
use swatop::observatory::{attribute, Bottleneck, Peaks};
use swatop::ops::{validate_candidate, verify_tolerance};
use swatop::optimizer::{optimize, verify::verify_message};
use swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop::telemetry::{mape, rank_correlation};
use swatop::tuner::{
    run_candidate, tiered_tune_validated, TierMode, TierPolicy, TuneOptions, TuneOutcome,
};
use swatop_ir::{MemRole, SpmSlot, Stmt};

use crate::oplist::{OpSpec, Validation, Workload};
use crate::trace::{Slices, Trace};

/// Size of the reference set `winner_vs_ref_pct` compares against on the
/// tiered workloads: the analytic top ranks, half as many again as the
/// ladder's scoreboard wave may hold (`TierPolicy::max_k` = 64).
const REF_WAVE: usize = 96;

#[derive(Debug, Clone, PartialEq)]
pub struct Winner {
    /// Position in the enumerated candidate list.
    pub index: usize,
    pub cycles: u64,
    pub schedule: String,
    pub c_bytes: usize,
}

/// What tuning one op produced. Two results of the same op must be equal
/// in every field, whichever pass or process produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    pub canon: usize,
    pub candidates: usize,
    pub winner: Result<Winner, String>,
}

pub fn tune_options(w: &Workload) -> TuneOptions {
    TuneOptions {
        jobs: w.jobs,
        tiers: TierPolicy { mode: w.mode, ..TierPolicy::default() },
        ..TuneOptions::default()
    }
}

fn validate(
    cfg: &MachineConfig,
    w: &Workload,
    op: &dyn Operator,
    cand: &Candidate,
) -> Result<(), String> {
    match w.validation {
        Validation::Functional => validate_candidate(cfg, op, cand),
        Validation::Static => verify_message(&cand.exe, cfg),
    }
}

/// The verdict on one tuning: an op fails when it has no candidate, the
/// tuner returns nothing, or a prospective winner was quarantined.
fn judge(
    cands: &[Candidate],
    out: Option<&TuneOutcome>,
    c_src: Option<&str>,
) -> Result<Winner, String> {
    if cands.is_empty() {
        return Err("no candidate".into());
    }
    let out = out.ok_or("tuner returned no outcome")?;
    if out.quarantined > 0 {
        let reasons: Vec<&str> =
            out.reports.iter().filter_map(|r| r.quarantined.as_deref()).collect();
        return Err(format!("{} winner(s) quarantined: {}", out.quarantined, reasons.join("; ")));
    }
    let c_src = c_src.unwrap_or_default();
    if !c_src.contains("spm_gemm(") {
        return Err("emitted C has no spm_gemm call".into());
    }
    Ok(Winner {
        index: out.best,
        cycles: out.cycles.get(),
        schedule: cands[out.best].describe.clone(),
        c_bytes: c_src.len(),
    })
}

/// What [`tune_op`] calls between the tuning and the drop.
pub type AfterTune<'a> = dyn FnMut(&dyn Operator, &[Candidate], &TuneOutcome) + 'a;

/// Tune one op: enumerate → tune with winner validation → emit C. Returns
/// the result and the seconds it took, dropping the candidates included
/// (a CLI user pays that too). `after` runs between the tuning and the
/// drop, outside the timed sections, with the candidates still alive.
pub fn tune_op(
    cfg: &MachineConfig,
    w: &Workload,
    spec: &OpSpec,
    opts: &TuneOptions,
    after: &mut AfterTune,
) -> (OpResult, f64) {
    let t = Instant::now();
    let op = spec.build();
    let cands = Scheduler::new(cfg.clone()).enumerate(op.as_ref());
    let validator = |_: usize, c: &Candidate| validate(cfg, w, op.as_ref(), c);
    let out = tiered_tune_validated(cfg, &cands, opts, Some(&validator));
    let c_src = out.as_ref().map(|o| cands[o.best].exe.emit_c());
    let winner = judge(&cands, out.as_ref(), c_src.as_deref());
    let mut secs = t.elapsed().as_secs_f64();
    if let (Ok(_), Some(out)) = (&winner, &out) {
        after(op.as_ref(), &cands, out);
    }
    let result = OpResult { canon: spec.canon, candidates: cands.len(), winner };
    let t = Instant::now();
    drop((cands, out, c_src));
    secs += t.elapsed().as_secs_f64();
    (result, secs)
}

/// Best simulated cycles in the reference set of `winner_vs_ref_pct`. On a
/// brute-force workload, whose own winner is the whole-space optimum, that
/// is the tiered ladder's pick. Elsewhere it is the best CostOnly run among
/// the `REF_WAVE` candidates the analytic model ranks first — a wave wider
/// than the ladder measures, so a tuner made faster by measuring less shows
/// as a winner worse than the reference. (A random sample of the space was
/// tried first: its points simulate ~100× slower than ranked ones, and its
/// minimum jumps with any change to the space.)
pub fn reference_cycles(
    cfg: &MachineConfig,
    w: &Workload,
    op: &dyn Operator,
    cands: &[Candidate],
) -> Result<u64, String> {
    if w.mode == TierMode::FullScoreboard {
        let tiered = TuneOptions { jobs: w.jobs, ..TuneOptions::default() };
        let validator = |_: usize, c: &Candidate| validate(cfg, w, op, c);
        return tiered_tune_validated(cfg, cands, &tiered, Some(&validator))
            .map(|o| o.cycles.get())
            .ok_or_else(|| "tiered reference run returned no outcome".into());
    }
    let mut ranked: Vec<(usize, f64)> = screen(cfg, cands).into_iter().enumerate().collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked
        .iter()
        .take(REF_WAVE)
        .filter_map(|&(i, _)| run_candidate(cfg, &cands[i]).ok())
        .map(|c| c.get())
        .min()
        .ok_or_else(|| "no reference candidate ran".into())
}

/// Tier 0 from outside: the analytic model's predicted cycles of every
/// candidate, computed as the tuner's screen computes them.
fn screen(cfg: &MachineConfig, cands: &[Candidate]) -> Vec<f64> {
    let (model, memo) = (GemmModel::cached(cfg), Some(MemoCache::global()));
    cands
        .iter()
        .map(|c| estimate_program_memo(cfg, &model, &c.raw, memo).overall(c.prefetched))
        .collect()
}

/// Functional execution of a candidate on the operator's deterministic
/// inputs: simulated cycles (warm-start signal included, as the tuner
/// reports them), the output buffer and the inputs.
pub fn run_functional(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
) -> MachineResult<(u64, Vec<f32>, Vec<Vec<f32>>)> {
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    let binding = instantiate(&mut cg, &cand.exe);
    let inputs = op.input_data(&cand.exe.program);
    let input_ids = cand.exe.program.bufs_with_role(MemRole::Input);
    for (id, data) in input_ids.iter().zip(&inputs) {
        cg.mem.write(binding.bufs[id.0], 0, data)?;
    }
    let cycles = execute(&mut cg, &cand.exe, &binding)? + cfg.kernel_signal;
    let out_id = cand.exe.program.bufs_with_role(MemRole::Output)[0];
    Ok((cycles.get(), cg.mem.buffer(binding.bufs[out_id.0]).to_vec(), inputs))
}

/// The CostOnly and the Functional clock must agree on a winner.
pub fn check_clocks_agree(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
    cycles: u64,
) -> Result<(), String> {
    match run_functional(cfg, op, cand) {
        Ok((f, _, _)) if f == cycles => Ok(()),
        Ok((f, _, _)) => Err(format!("CostOnly {cycles} != Functional {f} cycles")),
        Err(e) => Err(format!("functional run failed: {e}")),
    }
}

/// Counts and per-op statistics the traced pass gathers next to its spans.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub points: u64,
    pub lowered: u64,
    pub lowered_stmts: u64,
    pub plans: u64,
    pub plan_rejects: u64,
    pub candidates: u64,
    pub candidate_stmts: u64,
    pub dbuf_applied: u64,
    pub c_bytes: u64,
    pub memo_hits: u64,
    pub memo_lookups: u64,
    /// `swkernels::cost` cache traffic over the whole traced pass.
    pub cost_cache_hits: u64,
    pub cost_cache_lookups: u64,
    /// Per op (canonical index first, like every per-op list here: see
    /// [`LayerCounts::sort_canonical`]).
    pub mape_pct: Vec<(usize, f64)>,
    pub rank_corr: Vec<(usize, f64)>,
    pub screened: u64,
    pub measured: u64,
    pub validated: u64,
    pub quarantined: u64,
    pub failed: u64,
    pub retried: u64,
    pub costonly_runs: u64,
    pub costonly_sim_cycles: u64,
    pub cycle_mismatches: u64,
    pub functional_flops: u64,
    pub reference_flops: u64,
    /// Per winner: % of peak GFLOPS, % of peak DMA bandwidth, DMA-bound.
    pub rooflines: Vec<(usize, f64, f64, bool)>,
    /// Per op with a library baseline: baseline cycles / winner cycles.
    pub speedups: Vec<(usize, f64)>,
    /// Problems only the replays can see (clock or output mismatches).
    pub failures: Vec<(usize, String)>,
}

impl LayerCounts {
    /// Put every per-op list in canonical op order, so that statistics over
    /// them do not depend on the seed.
    pub fn sort_canonical(&mut self) {
        self.mape_pct.sort_by_key(|x| x.0);
        self.rank_corr.sort_by_key(|x| x.0);
        self.rooflines.sort_by_key(|x| x.0);
        self.speedups.sort_by_key(|x| x.0);
    }
}

fn stmt_count(body: &Stmt) -> u64 {
    body.count(|_| true) as u64
}

/// `Scheduler::lower_point`'s private double-buffer test, for the replay.
fn has_double_slot(body: &Stmt) -> bool {
    let double = |slot: &SpmSlot| matches!(slot, SpmSlot::Double { .. });
    body.count(|s| match s {
        Stmt::DmaCpe(d) => double(&d.spm),
        Stmt::Gemm(g) => double(&g.a.slot) || double(&g.b.slot) || double(&g.c.slot),
        _ => false,
    }) > 0
}

/// `Scheduler::enumerate` replayed step by step from outside, with the same
/// early exits as `Scheduler::lower_point`, one aggregate span per stage.
fn replay_enumerate(
    cfg: &MachineConfig,
    op: &dyn Operator,
    canon: usize,
    trace: &mut Trace,
    n: &mut LayerCounts,
) -> Vec<Candidate> {
    let [mut points, mut lower, mut raw_opt, mut prefetch, mut planning] = [Slices::default(); 5];
    let space = op.space();
    let mut out = Vec::new();
    let mut iter = space.points();
    while let Some(point) = points.time(|| iter.next()) {
        let Some(program) = lower.time(|| op.lower(&space, &point)) else {
            continue;
        };
        n.lowered += 1;
        n.lowered_stmts += stmt_count(&program.body);
        let unoptimized = program.clone();
        let raw = raw_opt.time(|| optimize(unoptimized, false));
        let raw_copy = raw.clone();
        if planning.time(|| plan(raw_copy, cfg)).is_err() {
            n.plan_rejects += 1;
            continue;
        }
        let opt = prefetch.time(|| optimize(program, true));
        let exe = match planning.time(|| plan(opt, cfg)) {
            Ok(exe) => exe,
            Err(_) => {
                n.plan_rejects += 1;
                let raw_copy = raw.clone();
                match planning.time(|| plan(raw_copy, cfg)) {
                    Ok(exe) => exe,
                    Err(_) => continue,
                }
            }
        };
        let prefetched = has_double_slot(&exe.program.body);
        n.candidate_stmts += stmt_count(&exe.program.body);
        n.dbuf_applied += prefetched as u64;
        out.push(Candidate {
            point_index: point.index(&space),
            describe: point.describe(&space),
            raw,
            exe,
            prefetched,
        });
    }
    // The last `next()` returned `None`: not a point.
    n.points += points.count() - 1;
    n.plans += planning.count();
    n.candidates += out.len() as u64;
    let op_id = Some(canon);
    trace.aggregate("swatop-dsl.points", op_id, &points);
    trace.aggregate("ops.lower", op_id, &lower);
    trace.aggregate("optimizer.raw", op_id, &raw_opt);
    trace.aggregate("optimizer.prefetch", op_id, &prefetch);
    trace.aggregate("codegen.plan", op_id, &planning);
    out
}

/// [`tune_op`] with a span around every layer, then the hidden layers
/// replayed on the same candidates.
pub fn trace_op(
    cfg: &MachineConfig,
    w: &Workload,
    spec: &OpSpec,
    opts: &TuneOptions,
    trace: &mut Trace,
    n: &mut LayerCounts,
) -> OpResult {
    let id = Some(spec.canon);
    trace.span("harness.op", id, |trace| {
        let op = spec.build();
        let op = op.as_ref();
        let cands =
            trace.span("scheduler.enumerate", id, |t| replay_enumerate(cfg, op, spec.canon, t, n));

        let out = trace.span("tuner.tune", id, |t| {
            let validations = RefCell::new(Slices::default());
            let validator =
                |_: usize, c: &Candidate| validations.borrow_mut().time(|| validate(cfg, w, op, c));
            let out = tiered_tune_validated(cfg, &cands, opts, Some(&validator));
            t.aggregate("ops.validate", id, &validations.borrow());
            out
        });
        let c_src =
            trace.span("codegen.emit", id, |_| out.as_ref().map(|o| cands[o.best].exe.emit_c()));
        let winner = judge(&cands, out.as_ref(), c_src.as_deref());
        let result = OpResult { canon: spec.canon, candidates: cands.len(), winner };

        if let (Ok(win), Some(out)) = (&result.winner, &out) {
            n.c_bytes += win.c_bytes as u64;
            n.screened += out.screened as u64;
            n.measured += out.executed as u64;
            n.validated += out.validated as u64;
            n.quarantined += out.quarantined as u64;
            n.failed += out.failed as u64;
            n.retried += out.retried;
            replay_hidden_layers(cfg, w, spec, op, &cands, out, trace, n);
        }
        trace.span("scheduler.drop", id, |_| drop((cands, out, c_src)));
        result
    })
}

/// The work `tiered_tune_validated` and `validate_candidate` do inside,
/// redone from outside one layer at a time on the same candidates.
#[allow(clippy::too_many_arguments)]
fn replay_hidden_layers(
    cfg: &MachineConfig,
    w: &Workload,
    spec: &OpSpec,
    op: &dyn Operator,
    cands: &[Candidate],
    out: &TuneOutcome,
    trace: &mut Trace,
    n: &mut LayerCounts,
) {
    let id = Some(spec.canon);
    let best = &cands[out.best];
    let fail = |n: &mut LayerCounts, msg: String| n.failures.push((spec.canon, msg));

    // Tier 0 against the process-global memo, as warm as the tuner saw it.
    let (hits0, misses0) = (MemoCache::global().hits(), MemoCache::global().misses());
    let predicted = trace.span("model.screen", id, |_| screen(cfg, cands));
    let (hits, misses) =
        (MemoCache::global().hits() - hits0, MemoCache::global().misses() - misses0);
    n.memo_hits += hits;
    n.memo_lookups += hits + misses;

    // Tier 1: exactly the candidates the tuner measured.
    let mut pairs = Vec::new();
    trace.span("interp.costonly", id, |_| {
        for (i, measured) in out.all_cycles.iter().enumerate() {
            let Some(measured) = measured else { continue };
            n.costonly_runs += 1;
            match run_candidate(cfg, &cands[i]) {
                Ok(c) if c == *measured => {
                    n.costonly_sim_cycles += c.get();
                    pairs.push((predicted[i], c.get() as f64));
                }
                _ => n.cycle_mismatches += 1,
            }
        }
    });
    n.mape_pct.push((spec.canon, mape(&pairs).unwrap_or(0.0)));
    n.rank_corr.push((spec.canon, rank_correlation(&pairs).unwrap_or(0.0)));

    // Tier 2: the validator's parts, on the winner.
    if let Err(msg) = trace.span("optimizer.verify", id, |_| verify_message(&best.exe, cfg)) {
        fail(n, format!("static verification of the winner: {msg}"));
    }
    if w.validation == Validation::Functional {
        match trace.span("interp.functional", id, |_| run_functional(cfg, op, best)) {
            Ok((cycles, got, inputs)) => {
                n.functional_flops += op.flops();
                if cycles != out.cycles.get() {
                    n.cycle_mismatches += 1;
                    fail(n, format!("CostOnly {} != Functional {cycles} cycles", out.cycles.get()));
                }
                let expect = trace.span("swtensor.reference", id, |_| op.reference_output(&inputs));
                n.reference_flops += op.flops();
                let diff = swtensor::max_abs_diff(&got, &expect);
                let tol = verify_tolerance(op.flops());
                if !diff.is_finite() || diff > tol {
                    fail(n, format!("winner output off by {diff:.3e} (tolerance {tol:.3e})"));
                }
            }
            Err(e) => fail(n, format!("functional run of the winner failed: {e}")),
        }
    }
    if w.mode == TierMode::FullScoreboard {
        if let Err(msg) =
            trace.span("tuner.tiered_ref", id, |_| reference_cycles(cfg, w, op, cands))
        {
            fail(n, msg);
        }
    }

    // Roofline of the winner, from the counters of one more CostOnly run.
    trace.span("observatory.attribute", id, |_| {
        let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        let binding = instantiate(&mut cg, &best.exe);
        if execute(&mut cg, &best.exe, &binding).is_ok() {
            let a = attribute(&Peaks::of(cfg), out.cycles.get(), &cg.counters);
            n.rooflines.push((
                spec.canon,
                a.metrics.get("pct_peak_gflops").unwrap_or(0.0),
                a.metrics.get("pct_peak_dma_bw").unwrap_or(0.0),
                a.bottleneck == Bottleneck::Dma,
            ));
        }
    });
    if let Some(base) = trace.span("baselines.eval", id, |_| spec.baseline_cycles(cfg)) {
        n.speedups.push((spec.canon, base as f64 / out.cycles.get() as f64));
    }
}
