//! The metric registry (names and units, as `BENCHMARK.json` lists them)
//! and the JSON the benchmark prints and writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sw26010::json::{escape_json, fmt_f64};

use crate::oplist::OpSpec;
use crate::pass::OpResult;

/// Seconds a run measures for unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 12.0;

/// End-to-end metrics, reported by a `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tune_wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("winner_cycles_geomean", "cycles"),
    ("winner_vs_ref_pct", "%"),
];

/// Per-layer metrics, reported by a `--trace 1` run. A metric whose layer
/// does not run on a workload (Functional execution on a statically
/// verified one, the brute-force/tiered ratio on a tiered one) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dsl.points", "count"),
    ("dsl.points_s", "s"),
    ("ops.lower_s", "s"),
    ("ops.lowered", "count"),
    ("ops.lower_valid_ratio", "ratio"),
    ("ops.ir_stmts_mean", "count"),
    ("optimizer.raw_s", "s"),
    ("optimizer.prefetch_s", "s"),
    ("optimizer.ir_stmts_mean", "count"),
    ("optimizer.dbuf_applied_ratio", "ratio"),
    ("optimizer.verify_s", "s"),
    ("codegen.plan_s", "s"),
    ("codegen.plan_reject_ratio", "ratio"),
    ("codegen.emit_s", "s"),
    ("codegen.c_bytes", "bytes"),
    ("scheduler.enumerate_s", "s"),
    ("scheduler.candidates", "count"),
    ("scheduler.cands_per_s", "1/s"),
    ("scheduler.self_s", "s"),
    ("model.calibrate_s", "s"),
    ("model.screen_s", "s"),
    ("model.screen_cands_per_s", "1/s"),
    ("model.memo_hit_ratio", "ratio"),
    ("model.mape_pct", "%"),
    ("model.rank_corr", "ratio"),
    ("tuner.tune_s", "s"),
    ("tuner.self_s", "s"),
    ("tuner.screened", "count"),
    ("tuner.measured", "count"),
    ("tuner.measured_ratio", "ratio"),
    ("tuner.validated", "count"),
    ("tuner.quarantined", "count"),
    ("tuner.failed", "count"),
    ("tuner.retried", "count"),
    ("tuner.parallel_efficiency", "ratio"),
    ("tuner.full_over_tiered_wall", "ratio"),
    ("interp.costonly_s", "s"),
    ("interp.costonly_runs", "count"),
    ("interp.sim_mcycles_per_s", "Mcycles/s"),
    ("interp.functional_s", "s"),
    ("interp.functional_mflops_per_s", "MFLOP/s"),
    ("interp.cycle_mismatches", "count"),
    ("swkernels.cost_cache_hit_ratio", "ratio"),
    ("swtensor.reference_s", "s"),
    ("swtensor.reference_mflops_per_s", "MFLOP/s"),
    ("observatory.pct_peak_gflops_geomean", "%"),
    ("observatory.pct_peak_dma_bw_geomean", "%"),
    ("observatory.dma_bound_share", "ratio"),
    ("baselines.eval_s", "s"),
    ("baselines.speedup_geomean", "ratio"),
    ("telemetry.overhead_pct", "%"),
    ("harness.cold_pass_s", "s"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.trace_coverage_pct", "%"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": "u"}, …}` for every metric of
/// `registry`, in registry order. A registered metric that was not
/// measured is a bug in the harness.
fn metrics_json(registry: &[(&'static str, &str)], values: &Values) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in registry.iter().enumerate() {
        let v = values.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(v.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_f64(*v));
    }
    out.push('}');
    out
}

/// The result object the contract asks for on the last line of stdout.
pub fn result_line(
    registry: &[(&'static str, &str)],
    values: &Values,
    attempted: usize,
    failed: usize,
) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(registry, values)
    )
}

/// One `name value unit` line per metric.
pub fn metric_lines(registry: &[(&'static str, &str)], values: &Values) -> String {
    let mut out = String::new();
    for (name, unit) in registry {
        let _ = writeln!(out, "{name} {} {unit}", fmt_f64(values[name]));
    }
    out
}

/// What a run measured.
pub struct Run {
    pub values: Values,
    /// Op tunings attempted (ops × passes).
    pub attempted: usize,
    /// One message per failed op tuning or failed cross-check.
    pub failures: Vec<String>,
    pub pass_walls_s: Vec<f64>,
    /// Median seconds per op over the timed passes, in canonical op order
    /// (empty for a traced run, whose trace file has them).
    pub op_median_s: Vec<f64>,
    /// Results of the first pass, the one every later pass must reproduce,
    /// in canonical op order.
    pub results: Vec<OpResult>,
}

/// The per-workload result file: the result object plus what it was
/// computed from (pass walls, per-op winners, failure messages).
pub fn result_file(
    workload: &str,
    seed: u64,
    result_line: &str,
    ops: &[OpSpec],
    run: &Run,
) -> String {
    let Run { pass_walls_s, op_median_s, results, failures, .. } = run;
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"result\": {result_line},\n\"pass_walls_s\": [{}],\n\"ops\": [",
        pass_walls_s.iter().map(|w| fmt_f64(*w)).collect::<Vec<_>>().join(", ")
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = &ops.iter().find(|o| o.canon == r.canon).expect("result of a listed op").name;
        let _ = write!(
            out,
            "\n{{\"name\": \"{}\", \"candidates\": {}, ",
            escape_json(name),
            r.candidates
        );
        if let Some(s) = op_median_s.get(i) {
            let _ = write!(out, "\"median_s\": {}, ", fmt_f64(*s));
        }
        match &r.winner {
            Ok(w) => {
                let _ = write!(
                    out,
                    "\"winner\": {}, \"cycles\": {}, \"c_bytes\": {}, \"schedule\": \"{}\"}}",
                    w.index,
                    w.cycles,
                    w.c_bytes,
                    escape_json(&w.schedule)
                );
            }
            Err(e) => {
                let _ = write!(out, "\"error\": \"{}\"}}", escape_json(e));
            }
        }
    }
    out.push_str("\n],\n\"failures\": [");
    out.push_str(
        &failures.iter().map(|f| format!("\"{}\"", escape_json(f))).collect::<Vec<_>>().join(", "),
    );
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::Winner;
    use sw26010::json::{parse, Json};

    fn values(registry: &[(&'static str, &str)]) -> Values {
        registry.iter().enumerate().map(|(i, (n, _))| (*n, i as f64 + 0.25)).collect()
    }

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let line = result_line(END_TO_END, &values(END_TO_END), 12, 0);
        let Json::Obj(fields) = parse(&line).expect("result line parses") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(fields[0].1, Json::Bool(true));
        let Json::Obj(metrics) = &fields[3].1 else { panic!("metrics is not an object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[1].0, "tune_wall_s");
        assert_eq!(metrics[1].1.field("value").and_then(|v| v.as_f64("value")), Ok(1.25));
        assert_eq!(metrics[1].1.field("unit").and_then(|v| v.as_str("unit")), Ok("s"));
        assert!(
            result_line(END_TO_END, &values(END_TO_END), 12, 1).starts_with("{\"correct\": false")
        );
    }

    #[test]
    fn result_file_parses_with_winners_and_errors() {
        let ops = vec![
            OpSpec {
                canon: 0,
                name: "a\"quoted".into(),
                kind: crate::oplist::OpKind::Matmul(8, 8, 8),
            },
            OpSpec { canon: 1, name: "b".into(), kind: crate::oplist::OpKind::Matmul(8, 8, 8) },
        ];
        let results = vec![
            OpResult {
                canon: 1,
                candidates: 3,
                winner: Ok(Winner {
                    index: 2,
                    cycles: 99,
                    schedule: "tm=8, dbuf=on".into(),
                    c_bytes: 10,
                }),
            },
            OpResult { canon: 0, candidates: 0, winner: Err("no candidate".into()) },
        ];
        let line = result_line(END_TO_END, &values(END_TO_END), 2, 1);
        let run = Run {
            values: values(END_TO_END),
            attempted: 2,
            failures: vec!["a: no candidate".into()],
            pass_walls_s: vec![1.5, 2.5],
            op_median_s: vec![0.5, 1.0],
            results,
        };
        let text = result_file("w", 7, &line, &ops, &run);
        let doc = parse(&text).expect("result file parses");
        let listed = doc.field("ops").and_then(|o| o.as_arr("ops")).expect("ops");
        assert_eq!(listed[0].field("cycles").and_then(|c| c.as_u64("cycles")), Ok(99));
        assert_eq!(listed[1].field("median_s").and_then(|c| c.as_f64("median_s")), Ok(1.0));
        assert_eq!(listed[1].field("name").and_then(|c| c.as_str("name")), Ok("a\"quoted"));
        assert_eq!(doc.field("pass_walls_s").and_then(|p| p.as_arr("p")).map(|p| p.len()), Ok(2));
    }

    /// `BENCHMARK.json` and the registry must list the same metrics with
    /// the same units, and the workloads must be the ones the binary knows.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.field(key)
                .and_then(|a| a.as_arr(key))
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.field(k).and_then(|v| v.as_str(k)).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |r: &[(&str, &str)]| -> Vec<(String, String)> {
            r.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .field("workloads")
            .and_then(|a| a.as_arr("workloads"))
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(|v| v.as_str("name")).expect("name").to_string())
            .collect();
        let known: Vec<String> =
            crate::oplist::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, known);
        assert_eq!(doc.field("run_seconds").and_then(|s| s.as_f64("run_seconds")), Ok(RUN_SECONDS));
    }
}
