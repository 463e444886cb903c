//! Figure 10: automatic memory-latency hiding — auto-prefetching (double
//! buffering) vs a baseline without software prefetching.
//!
//! Following the paper, we pick configurations where the *baseline*
//! performs best (its best schedule by brute force) and then measure how
//! much the auto-prefetch pass improves the same search. Paper shape:
//! average improvement ≈65% even on the baseline's best cases.

use workloads::conv_sweep;

use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::{tune, TierPolicy, TuneOptions};

use crate::report::{mean, Table};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let exhaustive = TuneOptions { tiers: TierPolicy::exhaustive(), ..opts.tune_options() };
    let batch = 32;
    // Every Listing-1 configuration at paper size (the paper selects 8);
    // 3 on the black-box feature-map cap under `--smoke`.
    let sweep = opts.sample(conv_sweep(batch, opts.blackbox_cap()), 3);
    let mut t = Table::new(
        "Fig. 10 — auto-prefetching vs no-prefetch baseline (implicit CONV, batch 32)",
        &["config (Ni,No,Ro)", "baseline best", "prefetch best", "improvement"],
    );
    let mut gains = Vec::new();
    for shape in &sweep {
        if !ImplicitConvOp::applicable(shape) {
            continue;
        }
        let op = ImplicitConvOp::new(*shape);
        let mut no_pf = Scheduler::new(cfg.clone());
        no_pf.enable_prefetch = false;
        let with_pf = Scheduler::new(cfg.clone());
        let base_cands = no_pf.enumerate(&op);
        let pf_cands = with_pf.enumerate(&op);
        let (Ok(base), Ok(pf)) = (
            tune(&cfg, &base_cands, &exhaustive, None),
            tune(&cfg, &pf_cands, &exhaustive, None),
        ) else {
            continue;
        };
        let gain = base.cycles.get() as f64 / pf.cycles.get() as f64 - 1.0;
        gains.push(gain);
        t.row(vec![
            format!("({},{},{})", shape.ni, shape.no, shape.ro),
            base.cycles.get().to_string(),
            pf.cycles.get().to_string(),
            format!("{:+.1}%", 100.0 * gain),
        ]);
    }
    let mut summary = Table::new(
        "Fig. 10 summary",
        &["configs", "avg improvement", "min", "max"],
    );
    if !gains.is_empty() {
        summary.row(vec![
            gains.len().to_string(),
            format!("{:+.1}%", 100.0 * mean(&gains)),
            format!("{:+.1}%", 100.0 * gains.iter().cloned().fold(f64::MAX, f64::min)),
            format!("{:+.1}%", 100.0 * gains.iter().cloned().fold(f64::MIN, f64::max)),
        ]);
    }
    vec![t, summary]
}
