//! The per-layer metrics, derived from the spans and counts of one traced
//! pass.

use swatop::tuner::TierMode;

use crate::oplist::Workload;
use crate::pass::LayerCounts;
use crate::report::Values;
use crate::stats::{geomean, ratio};
use crate::trace::Trace;

/// Walls of the untraced passes a traced run makes around its traced one.
pub struct PassWalls {
    pub cold_s: f64,
    pub untraced_s: f64,
    /// The pass with `Telemetry` and an `EventBus` subscriber attached.
    pub observed_s: f64,
}

/// Every `PER_LAYER` metric; prints the layer split of one product pass.
pub fn layer_values(
    w: &Workload,
    trace: &Trace,
    n: &LayerCounts,
    calibrate_s: f64,
    walls: PassWalls,
) -> Values {
    let PassWalls { cold_s, untraced_s, observed_s } = walls;
    let b = |name: &str| trace.busy(name);
    let pass_s = b("harness.pass");
    let layers = trace.layer_self_times();
    let named_s: f64 = layers.iter().filter(|(l, _)| **l != "harness").map(|(_, s)| s).sum();
    let coverage = 100.0 * ratio(named_s, pass_s);
    if coverage < 90.0 {
        eprintln!("warning: only {coverage:.1} % of the traced pass is attributed to named layers");
    }

    // The part of the traced pass that the untraced pass also does.
    let product_s =
        b("scheduler.enumerate") + b("tuner.tune") + b("codegen.emit") + b("scheduler.drop");
    // What the tuner does between its screen, its CostOnly runs and the
    // validator is not visible from outside: subtract the replays (the
    // brute-force tuner does not screen; CostOnly runs spread over `jobs`).
    let screen_in_tuner_s = if w.mode == TierMode::Tiered { b("model.screen") } else { 0.0 };
    let costonly_in_tuner_s = b("interp.costonly") / w.jobs as f64;
    let tuner_net_s = b("tuner.tune") - b("ops.validate");
    let tuner_self_s = (tuner_net_s - screen_in_tuner_s - costonly_in_tuner_s).max(0.0);
    let mean = |v: &[(usize, f64)]| ratio(v.iter().map(|x| x.1).sum(), v.len() as f64);

    let mut v = Values::new();
    v.insert("dsl.points", n.points as f64);
    v.insert("dsl.points_s", b("swatop-dsl.points"));
    v.insert("ops.lower_s", b("ops.lower"));
    v.insert("ops.lowered", n.lowered as f64);
    v.insert("ops.lower_valid_ratio", ratio(n.lowered as f64, n.points as f64));
    v.insert("ops.ir_stmts_mean", ratio(n.lowered_stmts as f64, n.lowered as f64));
    v.insert("optimizer.raw_s", b("optimizer.raw"));
    v.insert("optimizer.prefetch_s", b("optimizer.prefetch"));
    v.insert("optimizer.ir_stmts_mean", ratio(n.candidate_stmts as f64, n.candidates as f64));
    v.insert("optimizer.dbuf_applied_ratio", ratio(n.dbuf_applied as f64, n.candidates as f64));
    v.insert("optimizer.verify_s", b("optimizer.verify"));
    v.insert("codegen.plan_s", b("codegen.plan"));
    v.insert("codegen.plan_reject_ratio", ratio(n.plan_rejects as f64, n.plans as f64));
    v.insert("codegen.emit_s", b("codegen.emit"));
    v.insert("codegen.c_bytes", n.c_bytes as f64);
    v.insert("scheduler.enumerate_s", b("scheduler.enumerate"));
    v.insert("scheduler.candidates", n.candidates as f64);
    v.insert("scheduler.cands_per_s", ratio(n.candidates as f64, b("scheduler.enumerate")));
    v.insert("scheduler.self_s", trace.self_time("scheduler.enumerate") + b("scheduler.drop"));
    v.insert("model.calibrate_s", calibrate_s);
    v.insert("model.screen_s", b("model.screen"));
    v.insert("model.screen_cands_per_s", ratio(n.candidates as f64, b("model.screen")));
    v.insert("model.memo_hit_ratio", ratio(n.memo_hits as f64, n.memo_lookups as f64));
    v.insert("model.mape_pct", mean(&n.mape_pct));
    v.insert("model.rank_corr", mean(&n.rank_corr));
    v.insert("tuner.tune_s", b("tuner.tune"));
    v.insert("tuner.self_s", tuner_self_s);
    v.insert("tuner.screened", n.screened as f64);
    v.insert("tuner.measured", n.measured as f64);
    v.insert("tuner.measured_ratio", ratio(n.measured as f64, n.candidates as f64));
    v.insert("tuner.validated", n.validated as f64);
    v.insert("tuner.quarantined", n.quarantined as f64);
    v.insert("tuner.failed", n.failed as f64);
    v.insert("tuner.retried", n.retried as f64);
    v.insert(
        "tuner.parallel_efficiency",
        ratio(screen_in_tuner_s + costonly_in_tuner_s, tuner_net_s).min(1.0),
    );
    v.insert("tuner.full_over_tiered_wall", ratio(b("tuner.tune"), b("tuner.tiered_ref")));
    v.insert("interp.costonly_s", b("interp.costonly"));
    v.insert("interp.costonly_runs", n.costonly_runs as f64);
    v.insert(
        "interp.sim_mcycles_per_s",
        ratio(n.costonly_sim_cycles as f64 / 1e6, b("interp.costonly")),
    );
    v.insert("interp.functional_s", b("interp.functional"));
    v.insert(
        "interp.functional_mflops_per_s",
        ratio(n.functional_flops as f64 / 1e6, b("interp.functional")),
    );
    v.insert("interp.cycle_mismatches", n.cycle_mismatches as f64);
    v.insert(
        "swkernels.cost_cache_hit_ratio",
        ratio(n.cost_cache_hits as f64, n.cost_cache_lookups as f64),
    );
    v.insert("swtensor.reference_s", b("swtensor.reference"));
    v.insert(
        "swtensor.reference_mflops_per_s",
        ratio(n.reference_flops as f64 / 1e6, b("swtensor.reference")),
    );
    v.insert(
        "observatory.pct_peak_gflops_geomean",
        geomean(&n.rooflines.iter().map(|r| r.1).collect::<Vec<_>>()),
    );
    v.insert(
        "observatory.pct_peak_dma_bw_geomean",
        geomean(&n.rooflines.iter().map(|r| r.2).collect::<Vec<_>>()),
    );
    v.insert(
        "observatory.dma_bound_share",
        ratio(n.rooflines.iter().filter(|r| r.3).count() as f64, n.rooflines.len() as f64),
    );
    v.insert("baselines.eval_s", b("baselines.eval"));
    v.insert(
        "baselines.speedup_geomean",
        geomean(&n.speedups.iter().map(|x| x.1).collect::<Vec<_>>()),
    );
    v.insert("telemetry.overhead_pct", 100.0 * (observed_s / untraced_s - 1.0));
    v.insert("harness.cold_pass_s", cold_s);
    v.insert("harness.trace_overhead_pct", 100.0 * (product_s / untraced_s - 1.0));
    v.insert("harness.trace_coverage_pct", coverage);

    // Where one pass of the product goes: its own spans, the tuner's split
    // by the replays of what it hides.
    let split = [
        ("swatop-dsl", v["dsl.points_s"]),
        ("ops", v["ops.lower_s"]),
        ("optimizer", v["optimizer.raw_s"] + v["optimizer.prefetch_s"] + v["optimizer.verify_s"]),
        ("codegen", v["codegen.plan_s"] + v["codegen.emit_s"]),
        ("scheduler", v["scheduler.self_s"]),
        ("model", screen_in_tuner_s),
        ("interp", costonly_in_tuner_s + v["interp.functional_s"]),
        ("swtensor", v["swtensor.reference_s"]),
        ("tuner", tuner_self_s),
    ];
    println!(
        "# untraced pass {untraced_s:.3} s, the same calls traced {product_s:.3} s, with replays {pass_s:.3} s"
    );
    for (layer, secs) in split {
        println!(
            "# layer {layer:10} {secs:7.4} s {:5.1} % of the pass",
            100.0 * ratio(secs, product_s)
        );
    }
    let split_s: f64 = split.iter().map(|(_, s)| s).sum();
    println!("# layers together {:5.1} % of the pass", 100.0 * ratio(split_s, product_s));
    v
}
