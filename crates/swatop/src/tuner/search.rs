//! Alternative black-box search strategies (ablations).
//!
//! The paper's related work surveys autotuners built on sampling searches —
//! ATLAS (exhaustive + pruning), SPIRAL (evolutionary), TVM (learned cost
//! models over measured samples). This module provides two sampling tuners
//! so the trade-off triangle can be measured on the same candidates:
//!
//! * [`random_search`] — measure a random subset, keep the best;
//! * [`greedy_search`] — an evolutionary-style loop: measure a seed sample,
//!   then repeatedly mutate the best-known point one knob at a time.
//!
//! Both lie between brute force ([`super::TierPolicy::exhaustive`]: best
//! quality, highest cost) and the model's top-k ([`super::TierPolicy::top_k`]:
//! lowest cost); the paper's claim is
//! that on a latency-oriented machine with discrete tensorized primitives,
//! the *model* end of the triangle is the right one.
//!
//! Both searches measure through the same fault-aware path as
//! [`super::tune`] ([`super::RetryPolicy`] retries, median-of-N under
//! jitter) but in their own serial loop (each draw depends on what was
//! already measured, so `opts.jobs`, `opts.checkpoint` and `opts.tiers` are
//! ignored; `opts.retry` and `opts.telemetry` apply). They count
//! failed candidates against the budget — a real machine burns tuning time
//! on a candidate whether or not it faults — and report them in the
//! outcome instead of silently dropping them.

use std::time::{Duration, Instant};

use sw26010::{Counters, Cycles, MachineConfig};
use swtensor::init::XorShift;

use super::checkpoint::CandCell;
use super::engine::measure_instrumented;
use super::{CandReport, RetryPolicy, TuneError, TuneOptions, TuneOutcome};
use crate::scheduler::Candidate;
use crate::telemetry::Telemetry;

/// Serial sampling loop shared by both searches: measures not-yet-tried
/// indices through the fault-aware path and accumulates per-candidate
/// reports.
struct Sampler<'a> {
    cfg: &'a MachineConfig,
    candidates: &'a [Candidate],
    retry: RetryPolicy,
    tel: Option<Telemetry>,
    counters: Counters,
    cells: Vec<CandCell>,
    best: Option<(usize, Cycles)>,
    executed: usize,
    cpu: Duration,
    /// `(evaluations, best-so-far cycles)` at every improvement, in the
    /// sampler's (serial, seeded, deterministic) visit order.
    convergence: Vec<(u64, u64)>,
}

impl<'a> Sampler<'a> {
    fn new(cfg: &'a MachineConfig, candidates: &'a [Candidate], opts: &TuneOptions) -> Self {
        Sampler {
            cfg,
            candidates,
            retry: opts.retry.clone(),
            tel: opts.telemetry.clone(),
            counters: Counters::default(),
            cells: vec![CandCell::Pending; candidates.len()],
            best: None,
            executed: 0,
            cpu: Duration::ZERO,
            convergence: Vec::new(),
        }
    }

    /// Measure candidate `i` unless it was already tried. Failures still
    /// count as executed: the budget models machine time, and a faulting
    /// candidate consumes it.
    fn measure(&mut self, i: usize) {
        if !self.cells[i].is_pending() {
            return;
        }
        self.executed += 1;
        // Sampling searches have no model score for the candidate, so no
        // (predicted, measured) pair is recorded — spans and counters only.
        let (cell, d, counters) = measure_instrumented(
            self.cfg,
            &self.candidates[i],
            i,
            &self.retry,
            self.tel.as_ref(),
            0,
            None,
        );
        self.cpu += d;
        if self.tel.is_some() && !matches!(cell, CandCell::Pending) {
            self.counters.merge(&counters);
        }
        if let Some(c) = cell.cycles() {
            if self.best.is_none_or(|(_, b)| c < b) {
                self.best = Some((i, c));
                self.convergence.push((self.executed as u64, c.get()));
            }
        }
        self.cells[i] = cell;
    }

    fn finish(self, start: Instant) -> Result<TuneOutcome, TuneError> {
        let failed = self.cells.iter().filter(|c| matches!(c, CandCell::Failed { .. })).count();
        let Some((best, cycles)) = self.best else {
            if self.executed == 0 {
                return Err(TuneError::NoCandidates);
            }
            let last_error = TuneError::last_of(self.cells.iter());
            return Err(TuneError::AllFailed { sampled: self.executed, last_error });
        };
        Ok(TuneOutcome {
            best,
            cycles,
            wall: start.elapsed(),
            executed: self.executed,
            all_cycles: self.cells.iter().map(CandCell::cycles).collect(),
            jobs: 1,
            cpu: self.cpu,
            failed,
            retried: self.cells.iter().map(|c| u64::from(c.retries())).sum(),
            quarantined: 0,
            reports: self.cells.iter().map(CandReport::from_cell).collect(),
            telemetry: self
                .tel
                .as_ref()
                .map(|t| t.tune_summary(t.scope(), self.counters)),
            convergence: self.convergence,
            screened: 0,
            validated: 0,
        })
    }
}

/// Measure `budget` uniformly random candidates, keep the fastest.
///
/// Errors with [`TuneError::AllFailed`] when every sampled candidate failed
/// terminally (the per-candidate errors are lost in that case only to the
/// extent that one representative is kept).
pub fn random_search(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    budget: usize,
    seed: u64,
    opts: &TuneOptions,
) -> Result<TuneOutcome, TuneError> {
    let start = Instant::now();
    if candidates.is_empty() {
        return Err(TuneError::NoCandidates);
    }
    let mut rng = XorShift::new(seed);
    let mut s = Sampler::new(cfg, candidates, opts);
    for _ in 0..budget.min(candidates.len() * 4) {
        let i = (rng.next_u64() % candidates.len() as u64) as usize;
        s.measure(i);
    }
    s.finish(start)
}

/// Evolutionary-style greedy search: random seeds, then local mutations of
/// the incumbent (neighbouring candidate indices stand in for single-knob
/// mutations, since the space enumerates knobs in mixed-radix order).
pub fn greedy_search(
    cfg: &MachineConfig,
    candidates: &[Candidate],
    budget: usize,
    seed: u64,
    opts: &TuneOptions,
) -> Result<TuneOutcome, TuneError> {
    let start = Instant::now();
    let n = candidates.len();
    if n == 0 {
        return Err(TuneError::NoCandidates);
    }
    let mut rng = XorShift::new(seed);
    let mut s = Sampler::new(cfg, candidates, opts);
    // Seed phase: a third of the budget at random.
    for _ in 0..(budget / 3).max(1) {
        let i = (rng.next_u64() % n as u64) as usize;
        s.measure(i);
    }
    // Mutation phase: explore around the incumbent with varying radius.
    // Attempts are bounded: once the incumbent's neighbourhood is fully
    // measured, mutations stop producing new points and the search ends.
    let mut attempts = 0usize;
    while s.executed < budget && attempts < 16 * budget {
        attempts += 1;
        let Some((inc, _)) = s.best else { break };
        // Widen the radius as attempts accumulate so a saturated local
        // neighbourhood spills outward instead of re-sampling itself.
        let max_radius = 8 + attempts / 4;
        let radius = 1 + (rng.next_u64() as usize) % max_radius;
        let dir = if rng.next_u64().is_multiple_of(2) { 1i64 } else { -1 };
        let j = (inc as i64 + dir * radius as i64).rem_euclid(n as i64) as usize;
        s.measure(j);
    }
    s.finish(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MatmulOp;
    use crate::scheduler::Scheduler;
    use crate::tuner::{tune, TierPolicy};

    fn candidates() -> (MachineConfig, Vec<Candidate>) {
        let cfg = MachineConfig::default();
        let op = MatmulOp::new(96, 96, 48);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        (cfg, cands)
    }

    fn tune_with(cfg: &MachineConfig, cands: &[Candidate], tiers: TierPolicy) -> TuneOutcome {
        tune(cfg, cands, &TuneOptions { tiers, ..TuneOptions::default() }, None).unwrap()
    }

    #[test]
    fn random_search_finds_something_reasonable() {
        let (cfg, cands) = candidates();
        let bb = tune_with(&cfg, &cands, TierPolicy::exhaustive());
        let rs = random_search(&cfg, &cands, cands.len() / 4, 7, &TuneOptions::default()).unwrap();
        assert!(rs.cycles >= bb.cycles, "cannot beat brute force");
        assert!(
            rs.cycles.get() < 3 * bb.cycles.get(),
            "random sample should land within 3x of optimum"
        );
        assert!(rs.executed <= cands.len());
        assert_eq!(rs.failed, 0, "perfect machine: nothing should fail");
        assert_eq!(rs.reports.len(), cands.len());
    }

    #[test]
    fn greedy_improves_on_equal_budget_random_usually() {
        let (cfg, cands) = candidates();
        let budget = (cands.len() / 5).max(8);
        let rs = random_search(&cfg, &cands, budget, 3, &TuneOptions::default()).unwrap();
        let gs = greedy_search(&cfg, &cands, budget, 3, &TuneOptions::default()).unwrap();
        // Not a strict guarantee, but both must be valid outcomes.
        assert!(gs.cycles.get() > 0 && rs.cycles.get() > 0);
    }

    #[test]
    fn top_k_dominates_sampling_at_a_fraction_of_the_cost() {
        // The paper's argument in one assertion: the static model finds a
        // schedule at least as good as a 25%-budget random search while
        // executing only its top-3.
        let (cfg, cands) = candidates();
        let model = tune_with(&cfg, &cands, TierPolicy::top_k(3));
        let rs = random_search(&cfg, &cands, cands.len() / 4, 11, &TuneOptions::default()).unwrap();
        assert!(model.cycles <= rs.cycles, "model {} vs random {}", model.cycles, rs.cycles);
        assert!(model.executed < rs.executed);
    }

    #[test]
    fn deterministic_given_seed() {
        let (cfg, cands) = candidates();
        let a = random_search(&cfg, &cands, 10, 42, &TuneOptions::default()).unwrap();
        let b = random_search(&cfg, &cands, 10, 42, &TuneOptions::default()).unwrap();
        assert_eq!(a.best, b.best);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn empty_space_is_a_clear_error() {
        let cfg = MachineConfig::default();
        let opts = TuneOptions::default();
        assert!(matches!(random_search(&cfg, &[], 10, 1, &opts), Err(TuneError::NoCandidates)));
        assert!(matches!(greedy_search(&cfg, &[], 10, 1, &opts), Err(TuneError::NoCandidates)));
    }
}
