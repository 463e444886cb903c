//! The autotuner (paper Sec. 4.6): "predict and pick the best (or top-k)
//! implementations", with brute force as its yardstick (Fig. 9 / Table 3).
//!
//! One entry point, [`tune`], whose strategy is the [`TierPolicy`] carried
//! by [`TuneOptions::tiers`]:
//!
//! | policy | tier 0 screens | the scoreboard measures | `executed` / `screened` |
//! |---|---|---|---|
//! | [`TierPolicy::default`] (adaptive ladder) | whole space | `base_k` ranks, widened ≤ `max_k` | ranks measured / space |
//! | [`TierPolicy::top_k`] (fixed top-k) | whole space | the `k` best ranks | `k` / space |
//! | [`TierPolicy::exhaustive`] (brute force) | nothing | every candidate, input order | space / 0 |
//!
//! The ladder widens its wave to every rank the model puts within its
//! *observed* error band of the best measured cycles; `top_k(k)` is the
//! ladder with `base_k = max_k = k`, i.e. widening switched off. Brute force
//! lets the model score the space only to give attached telemetry its
//! predictions: the scores decide nothing and are not charged to `cpu`.
//!
//! [`TuneOutcome::wall`] is what Tab. 3 compares; the gap between a
//! ladder's pick and the exhaustive optimum is what Fig. 9 reports.
//!
//! Results are deterministic and identical for any [`TuneOptions::jobs`]:
//! each candidate runs on a private cost-only machine whose fault stream
//! (if any) is derived from the candidate's input index, results come back
//! in input order, and the winner is the minimum under the total order
//! `(cycles, input index)`. On a faulty machine a candidate is retried
//! while [`should_retry`] allows and measured as a median of three;
//! [`CheckpointPolicy`] governs checkpoint/resume.

pub mod checkpoint;
mod engine;
mod policy;
pub mod pool;

use std::time::{Duration, Instant};

use sw26010::{Cycles, MachineConfig};

use self::engine::Engine;
use crate::model::{estimate, GemmModel};
use crate::scheduler::Candidate;
use crate::telemetry::SpanKind;

pub use self::engine::{prevalidate, run_candidate, run_program, run_program_with_launches};
pub use self::policy::{
    should_retry, CandReport, CheckpointPolicy, TierMode, TierPolicy, TuneError, TuneOptions,
    TuneOutcome, WinnerValidator,
};

/// Tune one schedule space: measure what `opts.tiers` says to measure
/// (table in the [module docs](self)) and report the fastest candidate that
/// `validator`, if any, accepts.
///
/// * **Tier 0** — the closed-form analytic model (Eq. 1 DMA terms + Eq. 2
///   compute with `T_overall = max`; no scoreboard, no
///   [`sw26010::CoreGroup`]) cost-ranks the *entire* candidate space in one
///   batch, once per distinct program tree.
/// * **Tier 1** — the scoreboard interpreter measures only an adaptive
///   analytic top-k wave. Starting from [`TierPolicy::base_k`], the wave
///   widens to every rank whose analytic cost lies within the model's
///   *observed* error band of the best measured cycles: once the analytic
///   margin of rank k exceeds that band — `predicted(k) > (1 + band) ×
///   best_measured`, with `band` the maximum relative error over the
///   measured (predicted, measured) pairs floored at [`BAND_FLOOR`] — no
///   deeper rank can plausibly beat the winner, and the wave stops
///   ([`TierPolicy::max_k`] bounds it when the ranking is flat). Widening
///   repeats to a fixpoint: new wave members refine both the band and the
///   best.
/// * **Tier 2** — `validator` (functional execution + the differential
///   check, see [`crate::ops::validate_candidate`]) runs on the prospective
///   winner only. A rejected winner is quarantined
///   ([`TuneOutcome::quarantined`] / [`CandReport::quarantined`], plus a
///   telemetry Validate span) and the pick falls back: within the measured
///   wave first, then *down the evaluation order* one candidate at a time —
///   measure, then validate — until a legal winner emerges. A wave whose
///   every member failed terminally falls back the same way: both are "the
///   wave produced nothing reportable". A validation failure is a
///   deterministic property of the candidate — it is never retried (see
///   [`should_retry`]).
///
/// [`TierMode::FullScoreboard`] skips tier 0: the one wave is the whole
/// space in input order, so there is nothing further down to fall back to.
/// Analytic scores, measured cycles and hence the adaptive-k trajectory are
/// pure functions of the candidate set and the machine config, so the
/// outcome is bit-identical for every `jobs` value and across
/// checkpoint/resume.
///
/// Errors with [`TuneError::NoCandidates`] on an empty slice and with
/// [`TuneError::AllFailed`] when every candidate was measured and none
/// survives; per-candidate errors are in [`TuneOutcome::reports`] otherwise.
pub fn tune(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
    validator: Option<&WinnerValidator>,
) -> Result<TuneOutcome, TuneError> {
    if candidates.is_empty() {
        return Err(TuneError::NoCandidates);
    }
    let policy = &opts.tiers;
    let exhaustive = policy.mode == TierMode::FullScoreboard;
    // Calibrate outside the tuning wall (see [`TuneOutcome::wall`]).
    let model = (!exhaustive || opts.telemetry.is_some()).then(|| GemmModel::cached(cfg));
    let start = Instant::now();
    let mut eng = Engine::new(cfg, candidates, opts);
    // Tier 0: batch analytic screen of the whole space.
    let screen = opts.telemetry.as_ref().filter(|_| !exhaustive).map(|t| {
        (t, t.open(SpanKind::Screen, format!("tier0 screen: {} candidates", candidates.len())))
    });
    let scored = model.map(|m| score_all(cfg, &m, candidates, opts.jobs));
    if let Some((t, id)) = screen {
        t.update(id, |s| s.samples = candidates.len() as u32);
        t.close(id);
    }
    if let Some((ranked, _)) = &scored {
        // Predictions for the *full* ranked set, not only the winners: every
        // executed candidate — including ones rejected in the wave and
        // fallback probes — then feeds the accuracy tracker, so rank
        // correlation reflects the whole validated ranking.
        eng.set_predictions(ranked);
    }
    // Tier 1. `order` is the evaluation schedule; its first `measured`
    // entries have been through the scoreboard.
    let (order, mut measured): (Vec<usize>, usize) = match scored {
        Some((ranked, score_cpu)) if !exhaustive => {
            eng.cpu += score_cpu;
            eng.screened = candidates.len();
            let measured = measure_waves(&mut eng, &ranked, policy);
            (ranked.iter().map(|&(i, _)| i).collect(), measured)
        }
        // Brute force. When it scored the space at all, that was pure
        // observability: every measurement then contributes a (predicted,
        // measured) accuracy pair, but the scoring cost is *not* charged to
        // `cpu` (brute force never pays it), nothing counts as screened and
        // the pick below still depends only on measured cycles.
        _ => {
            let order: Vec<usize> = (0..candidates.len()).collect();
            eng.run(&order);
            (order, candidates.len())
        }
    };
    // Consider only indices this run targeted: a resumed checkpoint may hold
    // measurements for candidates outside the waves (e.g. from an exhaustive
    // sweep), and those must not leak into the pick.
    let mut chosen: Vec<Option<Cycles>> = vec![None; candidates.len()];
    for &i in &order[..measured] {
        chosen[i] = eng.cells[i].cycles();
    }
    let (best, cycles) = loop {
        match best_of(&chosen) {
            Some((b, c)) => match validator.map(|v| eng.validate(v, b)) {
                None | Some(Ok(())) => break (b, c),
                Some(Err(reason)) => {
                    eng.quarantine(b, reason);
                    chosen[b] = None;
                }
            },
            None => {
                let Some(&i) = order.get(measured) else {
                    return Err(all_failed(&eng, &order));
                };
                eng.run(&[i]);
                measured += 1;
                chosen[i] = eng.cells[i].cycles();
            }
        }
    };
    Ok(eng.outcome(start, best, cycles, measured))
}

/// Lower bound on the model's assumed relative error band. The adaptive
/// widening rule never trusts the analytic ranking tighter than this, even
/// when the observed error on the measured wave is smaller: the top of the
/// ranking is a plateau the model orders poorly (rank correlation ≈ 0.5 on
/// measured waves, ROADMAP item 5), so a first wave of three that happens to
/// agree with its predictions must not close the search. 0.5 is the value
/// the CI throughput leg's ladder-equals-brute-force winners were pinned
/// with.
pub const BAND_FLOOR: f64 = 0.5;

/// The adaptive scoreboard waves over the analytic ranking; returns how many
/// leading ranks were measured.
fn measure_waves(eng: &mut Engine, ranked: &[(usize, f64)], policy: &TierPolicy) -> usize {
    let cap = policy.max_k.max(policy.base_k).min(ranked.len()).max(1);
    let mut k = policy.base_k.clamp(1, cap);
    let mut measured = 0usize;
    while measured < k {
        let wave: Vec<usize> = ranked[measured..k].iter().map(|&(i, _)| i).collect();
        eng.run(&wave);
        measured = k;
        let mut band = BAND_FLOOR;
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
        // Equal predictions carry no order, so the ladder's cap never
        // splits a tie: it runs on through every rank predicted like the
        // last. `top_k` (no widening) keeps its exact count.
        if policy.base_k < policy.max_k && k == cap {
            while k < ranked.len() && ranked[k].1 == ranked[k - 1].1 {
                k += 1;
            }
        }
    }
    measured
}

/// Every candidate of `tried` was measured and none survives: the reason is
/// the last quarantine when any of them measured (every measured winner was
/// then rejected), otherwise the last terminal error in evaluation order.
fn all_failed(eng: &Engine, tried: &[usize]) -> TuneError {
    let last_error = match eng.quarantined.last() {
        Some((_, reason)) => reason.clone(),
        None => TuneError::last_of(tried.iter().map(|&i| &eng.cells[i])),
    };
    TuneError::AllFailed { sampled: tried.len(), last_error }
}

/// The frozen `benchmark/` package compiles against exactly this name and
/// shape (`BENCHMARK.json` forbids editing it in a product PR); it is
/// [`tune`] with the error dropped. Nothing else calls it, and the
/// benchmark's next revision removes it.
#[doc(hidden)]
pub fn tiered_tune_validated(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    opts: &TuneOptions,
    validator: Option<&WinnerValidator>,
) -> Option<TuneOutcome> {
    tune(cfg, candidates, opts, validator).ok()
}

/// Argmin over executed candidates under the total order `(cycles, index)`.
/// Breaking ties by input index is what makes the pick independent of
/// `jobs`: a serial sweep in input order keeps the *first* strictly fastest
/// candidate, which is exactly this minimum.
fn best_of(all: &[Option<Cycles>]) -> Option<(usize, Cycles)> {
    all.iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (i, c)))
        .min_by_key(|&(i, c)| (c, i))
}

/// The candidates whose `raw` the tier-0 screen estimates, and which of them
/// stands in for each candidate: `leaders[slot[i]]` is the first candidate
/// holding the same `raw` tree and tables as candidate `i`, with the same
/// `hints.bcast` (the one hint the estimate reads). Sameness is *identity*
/// of the shared parts ([`swatop_ir::Program::part_addrs`]) — the scheduler
/// hands the `dbuf` and `bcast` siblings of a group one `raw` (DESIGN.md
/// §18) — never adjacency and never `==`: equal programs that are separate
/// allocations each lead their own group. A pure function of the slice, so
/// the screen stays `--jobs`-invariant.
pub fn screen_leaders(candidates: &[Candidate]) -> (Vec<usize>, Vec<usize>) {
    let mut slot_of_parts = std::collections::HashMap::with_capacity(candidates.len());
    let mut leaders = Vec::new();
    let slot = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            *slot_of_parts.entry((c.raw.part_addrs(), c.raw.hints.bcast)).or_insert_with(|| {
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
/// reads a program's tree, tables and `hints.bcast`, so it runs once per
/// distinct (`raw`, `bcast`) ([`screen_leaders`]) and `Estimate::overall`
/// is applied per candidate.
fn score_all(
    cfg: &MachineConfig,
    model: &GemmModel,
    candidates: &[Candidate],
    jobs: usize,
) -> (Vec<(usize, f64)>, Duration) {
    let (leaders, slot) = screen_leaders(candidates);
    let estimates = pool::par_map(jobs, &leaders, |_, _, &i| {
        let t = Instant::now();
        (estimate(cfg, model, &candidates[i].raw), t.elapsed())
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

/// Rank every candidate by the model without executing any of them (used by
/// space-exploration statistics and the Fig. 9 harness). The ranking is
/// identical for every `jobs` (scores are pure, the sort is stable).
pub fn model_rank(cfg: &MachineConfig, candidates: &[Candidate], jobs: usize) -> Vec<(usize, f64)> {
    let model = GemmModel::cached(cfg);
    score_all(cfg, &model, candidates, jobs).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MatmulOp;
    use crate::scheduler::Scheduler;

    #[test]
    fn a_cap_inside_a_tie_measures_the_whole_tie() {
        let cfg = MachineConfig::default();
        let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(32, 32, 32));
        // Predictions far below any measured cycles, so every wave widens
        // to the cap; ranks 1–3 tie, and so do ranks 4–5.
        let preds = [1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0];
        let ranked: Vec<(usize, f64)> = preds.into_iter().enumerate().collect();
        let measured = |tiers: TierPolicy| {
            let opts = TuneOptions { tiers, ..TuneOptions::default() };
            let mut eng = Engine::new(&cfg, &cands, &opts);
            measure_waves(&mut eng, &ranked, &opts.tiers)
        };
        let ladder = |max_k| TierPolicy { base_k: 1, max_k, ..TierPolicy::default() };
        assert_eq!([2, 4, 5, 7].map(|k| measured(ladder(k))), [4, 4, 6, 7]);
        // A fixed top-k measures exactly k, tie or not.
        assert_eq!(measured(TierPolicy::top_k(2)), 2);
    }

    #[test]
    fn nothing_to_report_is_an_error_that_says_why() {
        let cfg = MachineConfig::default();
        let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(32, 32, 32));
        let cands = &cands[..7];
        // No scratch pad to speak of: every candidate fails pre-validation.
        let cramped = MachineConfig { spm_bytes: 64, ..cfg.clone() };
        let reject = |i: usize, _: &Candidate| Err(format!("rejected {i}"));
        let sweep = TuneOptions { tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
        // Picks go by (cycles, index), so the slowest is rejected last.
        let cycles = tune(&cfg, cands, &sweep, None).unwrap().all_cycles;
        let slowest = (0..cands.len()).max_by_key(|&i| (cycles[i], i)).unwrap();
        for tiers in [TierPolicy::exhaustive(), TierPolicy::top_k(2), TierPolicy::default()] {
            let opts = TuneOptions { tiers, ..TuneOptions::default() };
            assert_eq!(tune(&cfg, &[], &opts, None).unwrap_err(), TuneError::NoCandidates);
            // The whole evaluation order is walked before giving up.
            let TuneError::AllFailed { sampled, last_error } =
                tune(&cramped, cands, &opts, None).unwrap_err()
            else {
                panic!("{:?}: not AllFailed", opts.tiers)
            };
            assert_eq!(sampled, cands.len(), "{:?}", opts.tiers);
            assert!(last_error.contains("SPM footprint"), "{last_error}");
            // Everything measures and every winner is rejected; which one
            // last is the sweep's to say (a ladder rejects in rank order).
            let TuneError::AllFailed { sampled, last_error } =
                tune(&cfg, cands, &opts, Some(&reject)).unwrap_err()
            else {
                panic!("{:?}: not AllFailed", opts.tiers)
            };
            assert_eq!(sampled, cands.len(), "{:?}", opts.tiers);
            assert!(last_error.starts_with("rejected "), "{last_error}");
            if opts.tiers.mode == TierMode::FullScoreboard {
                assert_eq!(last_error, format!("rejected {slowest}"));
            }
        }
    }
}
