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
//! Both searches measure on the engine under [`super::tune`], one
//! single-candidate wave per draw (each draw depends on what was already
//! measured), so retries, median-of-N under jitter, telemetry, bus events
//! and the pool monitor apply as they do there; `opts.tiers` is ignored
//! (the search *is* the strategy) and `opts.checkpoint` is not honoured (a
//! resumed cell would skip a draw's measurement and shift the budget). They
//! count failed candidates against the budget — a real machine burns tuning
//! time on a candidate whether or not it faults — and report them in the
//! outcome instead of silently dropping them.

use std::time::Instant;

use sw26010::{Cycles, MachineConfig};
use swtensor::init::XorShift;

use super::engine::Engine;
use super::{all_failed, TuneError, TuneOptions, TuneOutcome};
use crate::scheduler::Candidate;

/// What a sampling search owns on top of the engine: which candidate leads
/// and how much budget is spent.
struct Sampler<'a> {
    eng: Engine<'a>,
    /// The first strictly fastest candidate in *visit* order — a sampling
    /// search has no input order to break ties by.
    best: Option<(usize, Cycles)>,
    executed: usize,
}

impl<'a> Sampler<'a> {
    fn new(cfg: &'a MachineConfig, candidates: &'a [Candidate], opts: &'a TuneOptions) -> Self {
        Sampler { eng: Engine::new(cfg, candidates, opts), best: None, executed: 0 }
    }

    /// Measure candidate `i` unless it was already tried. Failures still
    /// count as executed: the budget models machine time, and a faulting
    /// candidate consumes it.
    fn measure(&mut self, i: usize) {
        if !self.eng.cells[i].is_pending() {
            return;
        }
        self.executed += 1;
        self.eng.run(&[i]);
        if let Some(c) = self.eng.cells[i].cycles() {
            if self.best.is_none_or(|(_, b)| c < b) {
                self.best = Some((i, c));
            }
        }
    }

    fn finish(self, start: Instant) -> Result<TuneOutcome, TuneError> {
        match self.best {
            Some((best, cycles)) => Ok(self.eng.outcome(start, best, cycles, self.executed)),
            None if self.executed == 0 => Err(TuneError::NoCandidates),
            None => Err(all_failed(&self.eng, &self.eng.eval_order)),
        }
    }
}

/// `opts` as a search runs under them: without the checkpoint.
fn unresumed(opts: &TuneOptions) -> TuneOptions {
    TuneOptions { checkpoint: None, ..opts.clone() }
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
    let opts = unresumed(opts);
    let mut s = Sampler::new(cfg, candidates, &opts);
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
    let opts = unresumed(opts);
    let mut s = Sampler::new(cfg, candidates, &opts);
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
