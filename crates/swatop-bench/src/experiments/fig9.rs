//! Figure 9: quality of the performance-model-based autotuner — the ratio
//! of the model-picked schedule's performance to the true (brute-force)
//! best, over the Listing-1 configurations.
//!
//! Paper shape: average loss <2%, worst case <8% — the static model is a
//! good-enough ranker even though it cannot see pipeline drains, exact
//! transaction waste or descriptor overheads.

use workloads::conv_sweep;

use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::{tune, TierPolicy, TuneOptions};

use crate::report::{mean, Table};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let base = opts.tune_options();
    let with = |tiers| TuneOptions { tiers, ..base.clone() };
    let batch = 32;
    // Fig. 9 executes the whole space per configuration; sample the sweep
    // and shrink the feature maps to keep brute force affordable
    // (`--full` runs all 75 configurations at paper sizes).
    let sweep = opts.sample(conv_sweep(batch, opts.blackbox_cap()), 4, 12);
    let mut t = Table::new(
        "Fig. 9 — model-picked vs brute-force best (implicit CONV, batch 32)",
        &["config (Ni,No,Ro)", "space", "best cycles", "model pick", "ratio"],
    );
    let mut ratios = Vec::new();
    for shape in &sweep {
        if !ImplicitConvOp::applicable(shape) {
            continue;
        }
        let op = ImplicitConvOp::new(*shape);
        let sched = Scheduler::new(cfg.clone());
        let cands = sched.enumerate(&op);
        if cands.is_empty() {
            continue;
        }
        let Ok(bb) = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None) else { continue };
        let Ok(model) = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None) else { continue };
        let ratio = bb.cycles.get() as f64 / model.cycles.get() as f64;
        ratios.push(ratio);
        t.row(vec![
            format!("({},{},{})", shape.ni, shape.no, shape.ro),
            cands.len().to_string(),
            bb.cycles.get().to_string(),
            model.cycles.get().to_string(),
            format!("{ratio:.3}"),
        ]);
    }
    let mut summary = Table::new(
        "Fig. 9 summary — performance retained by the model's pick",
        &["configs", "avg ratio", "worst ratio", "avg loss", "worst loss"],
    );
    if !ratios.is_empty() {
        let worst = ratios.iter().cloned().fold(f64::MAX, f64::min);
        summary.row(vec![
            ratios.len().to_string(),
            format!("{:.3}", mean(&ratios)),
            format!("{worst:.3}"),
            format!("{:.1}%", 100.0 * (1.0 - mean(&ratios))),
            format!("{:.1}%", 100.0 * (1.0 - worst)),
        ]);
    }
    vec![t, summary]
}
