//! Tuner ablation (extension beyond the paper): the quality/cost triangle
//! between the static-model autotuner, sampling searches (random,
//! evolutionary-greedy — the ATLAS/SPIRAL-style methods of the related
//! work) and brute force, measured on identical candidate sets.
//!
//! The paper's thesis in one table: the static model reaches brute-force
//! quality while executing ~3 candidates; sampling searches need 10% of the
//! space for (usually) worse quality.

use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::search::{greedy_search, random_search};
use swatop::tuner::{tune, TierPolicy, TuneOptions};
use workloads::conv_sweep;

use crate::report::{mean, Table};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let sweep = opts.sample(conv_sweep(32, opts.blackbox_cap()), 3, 8);
    // Every run tunes under the harness's workers and recorder.
    let base = opts.tune_options();
    let with = |tiers| TuneOptions { tiers, ..base.clone() };

    let mut t = Table::new(
        "Tuner ablation — quality (vs brute-force best) and executed candidates",
        &["tuner", "configs", "avg quality", "worst quality", "avg executed"],
    );
    // quality = best_cycles / tuner_cycles ∈ (0, 1].
    let mut rows: Vec<(&str, Vec<f64>, Vec<f64>)> = vec![
        ("model top-1", Vec::new(), Vec::new()),
        ("model top-3", Vec::new(), Vec::new()),
        ("random 10%", Vec::new(), Vec::new()),
        ("greedy 10%", Vec::new(), Vec::new()),
        ("brute force", Vec::new(), Vec::new()),
    ];
    for shape in &sweep {
        if !ImplicitConvOp::applicable(shape) {
            continue;
        }
        let op = ImplicitConvOp::new(*shape);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        if cands.is_empty() {
            continue;
        }
        let Ok(bb) = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None) else { continue };
        let budget = (cands.len() / 10).max(4);
        // The sampling searches measure one candidate at a time whatever
        // `jobs` is: each step depends on the previous measurement, so they
        // are the one tuner family that does not parallelise.
        let outcomes = [
            tune(&cfg, &cands, &with(TierPolicy::top_k(1)), None).ok(),
            tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).ok(),
            random_search(&cfg, &cands, budget, 42, &base).ok(),
            greedy_search(&cfg, &cands, budget, 42, &base).ok(),
            Some(bb.clone()),
        ];
        for ((_, quality, executed), outcome) in rows.iter_mut().zip(outcomes) {
            if let Some(o) = outcome {
                quality.push(bb.cycles.get() as f64 / o.cycles.get() as f64);
                executed.push(o.executed as f64);
            }
        }
    }
    for (name, quality, executed) in &rows {
        if quality.is_empty() {
            continue;
        }
        t.row(vec![
            name.to_string(),
            quality.len().to_string(),
            format!("{:.3}", mean(quality)),
            format!("{:.3}", quality.iter().cloned().fold(f64::MAX, f64::min)),
            format!("{:.0}", mean(executed)),
        ]);
    }
    vec![t]
}
