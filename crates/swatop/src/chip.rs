//! Whole-chip (4 core-group) data-parallel execution.
//!
//! The SW26010 packages four core groups; swDNN/swCaffe run convolutions
//! data-parallel across them by splitting the batch. The paper's TFLOPS
//! numbers are chip-level (3.06 TFLOPS peak = 4 × 742.4 GFLOPS single
//! precision). This module models that deployment: the batch is split into
//! four shards, each shard's operator is tuned once (shards are
//! identical), and chip time is the slowest shard — each CG has its own
//! DMA engine and memory controller, so shards do not contend.

use std::collections::HashMap;

use sw26010::{Cycles, MachineConfig};
use swtensor::ConvShape;

use crate::scheduler::{Operator, Scheduler};
use crate::telemetry::SpanKind;
use crate::tuner::{tune, TuneOptions};

/// Number of core groups on the chip.
pub const N_CG: usize = 4;

/// Result of a chip-level data-parallel run.
#[derive(Debug, Clone, Copy)]
pub struct ChipRun {
    /// Batch shard sizes per CG (sums to the full batch).
    pub shards: [usize; N_CG],
    /// Chip time = the slowest shard's simulated cycles.
    pub cycles: Cycles,
    /// Aggregate FLOPs across all shards.
    pub flops: u64,
}

impl ChipRun {
    /// Aggregate chip throughput in GFLOPS.
    pub fn gflops(&self, cfg: &MachineConfig) -> f64 {
        sw26010::clock::gflops(self.flops, self.cycles, cfg.clock_ghz)
    }

    /// Fraction of the 4-CG peak.
    pub fn efficiency(&self, cfg: &MachineConfig) -> f64 {
        self.gflops(cfg) / (N_CG as f64 * cfg.peak_flops() / 1e9)
    }
}

/// Split `batch` as evenly as possible across the four CGs.
pub fn split_batch(batch: usize) -> [usize; N_CG] {
    let base = batch / N_CG;
    let extra = batch % N_CG;
    let mut out = [base; N_CG];
    for s in out.iter_mut().take(extra) {
        *s += 1;
    }
    out
}

/// Tune and run a convolution data-parallel across the chip. The operator
/// for each distinct shard size is tuned independently under `opts` (at
/// most two distinct sizes exist); chip time is the slowest shard. When a
/// telemetry recorder is attached, each distinct shard size tunes under its
/// own operator span (`conv shard b=<n>`), so a chip run shows up as one
/// span group per shard in the timeline.
pub fn run_conv_data_parallel(
    cfg: &MachineConfig,
    shape: &ConvShape,
    build: impl Fn(ConvShape) -> Box<dyn Operator>,
    opts: &TuneOptions,
) -> Option<ChipRun> {
    let shards = split_batch(shape.b);
    let mut worst = Cycles::ZERO;
    let mut flops = 0u64;
    let mut cache: HashMap<usize, (Cycles, u64)> = HashMap::new();
    for &b in shards.iter().filter(|&&b| b > 0) {
        let (cycles, f) = match cache.get(&b) {
            Some(&hit) => hit,
            None => {
                let shard_shape = ConvShape { b, ..*shape };
                let op = build(shard_shape);
                let sched = Scheduler::new(cfg.clone());
                let cands = sched.enumerate(op.as_ref());
                let mut shard_opts = opts.clone();
                let span = opts.telemetry.as_ref().map(|t| {
                    let id = t.open(SpanKind::Operator, format!("conv shard b={b}"));
                    shard_opts.telemetry = Some(t.child_of(id));
                    (t.clone(), id)
                });
                let outcome = tune(cfg, &cands, &shard_opts, None).ok();
                if let Some((t, id)) = span {
                    t.close(id);
                }
                let outcome = outcome?;
                cache.insert(b, (outcome.cycles, op.flops()));
                (outcome.cycles, op.flops())
            }
        };
        worst = worst.max(cycles);
        flops += f;
    }
    Some(ChipRun { shards, cycles: worst, flops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ImplicitConvOp;
    use crate::tuner::TierPolicy;

    fn top3() -> TuneOptions {
        TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() }
    }

    #[test]
    fn split_is_even_and_complete() {
        assert_eq!(split_batch(128), [32; 4]);
        assert_eq!(split_batch(6), [2, 2, 1, 1]);
        assert_eq!(split_batch(1), [1, 0, 0, 0]);
        for b in 1..40 {
            assert_eq!(split_batch(b).iter().sum::<usize>(), b);
        }
    }

    #[test]
    fn chip_run_aggregates_four_ways() {
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(32, 16, 16, 8);
        let chip =
            run_conv_data_parallel(&cfg, &shape, |s| Box::new(ImplicitConvOp::new(s)), &top3())
                .expect("tunable");
        assert_eq!(chip.shards, [8; 4]);
        assert_eq!(chip.flops, shape.flops());
        // One CG running the same shard must achieve ≈ chip/4 throughput.
        let op = ImplicitConvOp::new(ConvShape { b: 8, ..shape });
        let sched = Scheduler::new(cfg.clone());
        let cands = sched.enumerate(&op);
        let single = tune(&cfg, &cands, &top3(), None).unwrap();
        assert_eq!(chip.cycles, single.cycles);
        let chip_g = chip.gflops(&cfg);
        let single_g =
            sw26010::clock::gflops(op.flops(), single.cycles, cfg.clock_ghz);
        assert!((chip_g / single_g - 4.0).abs() < 1e-9);
        assert!(chip.efficiency(&cfg) > 0.0 && chip.efficiency(&cfg) <= 1.0);
    }

    #[test]
    fn uneven_batch_takes_slowest_shard() {
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(5, 16, 16, 8); // shards 2,1,1,1
        let build = |s| Box::new(crate::ops::ExplicitConvOp::new(s)) as Box<dyn Operator>;
        let chip = run_conv_data_parallel(&cfg, &shape, build, &top3()).expect("tunable");
        assert_eq!(chip.shards, [2, 1, 1, 1]);
        // The 2-batch shard bounds the chip time.
        let op = crate::ops::ExplicitConvOp::new(ConvShape { b: 2, ..shape });
        let sched = Scheduler::new(cfg.clone());
        let big = tune(&cfg, &sched.enumerate(&op), &top3(), None).unwrap();
        assert_eq!(chip.cycles, big.cycles);
    }
}
