//! Integration tests for the candidate microscope: profile artifacts are
//! deterministic and `--jobs`-independent, and tracing never perturbs the
//! measured cycles. The trace document's well-formedness is pinned by the
//! workspace's `tests/export_golden.rs`.

use sw26010::json::parse;
use sw26010::trace::Trace;
use sw26010::{CoreGroup, ExecMode, MachineConfig};
use swatop::interp::{execute, instantiate};
use swatop::observatory::Peaks;
use swatop::ops::MatmulOp;
use swatop::profiler::{corpus_text, feature_rows, profile_candidate, profile_json, trace_json};
use swatop::scheduler::{Candidate, Scheduler};
use swatop::telemetry::Telemetry;
use swatop::tuner::{tune, TierPolicy, TuneOptions};

fn space() -> (MachineConfig, Vec<Candidate>) {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(96, 96, 48);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    (cfg, cands)
}

/// The corpus is a deterministic artifact: an instrumented sweep at
/// `--jobs 1` and `--jobs 4` yields byte-identical corpus text even though
/// candidate spans are recorded in racy worker-completion order.
#[test]
fn corpus_bytes_are_jobs_independent() {
    let (cfg, cands) = space();
    let peaks = Peaks::of(&cfg);
    let mut texts = Vec::new();
    for jobs in [1usize, 4] {
        let tel = Telemetry::new();
        let opts = TuneOptions {
            jobs,
            telemetry: Some(tel.clone()),
            tiers: TierPolicy::top_k(3),
            ..TuneOptions::default()
        };
        let outcome = tune(&cfg, &cands, &opts, None).unwrap();
        let rows = feature_rows(&tel.summary(&peaks));
        assert_eq!(
            rows.len(),
            outcome.executed,
            "one corpus row per evaluated candidate (jobs {jobs})"
        );
        texts.push(corpus_text(&rows));
    }
    assert_eq!(texts[0], texts[1], "corpus bytes must not depend on --jobs");
    // Every line of the artifact is standalone-parseable JSON.
    for line in texts[0].lines() {
        parse(line).unwrap();
    }
}

/// Enabling the trace must never move the clock: the cost model is the
/// same whether or not events are being recorded.
#[test]
fn tracing_does_not_perturb_measured_cycles() {
    let (cfg, cands) = space();
    for cand in cands.iter().step_by(cands.len() / 7) {
        let mut plain = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        let binding = instantiate(&mut plain, &cand.exe);
        let untraced = execute(&mut plain, &cand.exe, &binding).unwrap();

        let mut traced = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
        traced.trace = Trace::enabled(1_000_000);
        let binding = instantiate(&mut traced, &cand.exe);
        let with_trace = execute(&mut traced, &cand.exe, &binding).unwrap();

        assert_eq!(untraced, with_trace, "tracing perturbed {}", cand.describe);
    }
}

/// Profiling the same candidate twice yields byte-identical JSON and trace
/// documents, and the phases always partition the traced horizon.
#[test]
fn profile_artifact_is_deterministic() {
    let (cfg, cands) = space();
    let p1 = profile_candidate(&cfg, "mm96", 0, &cands[0]).unwrap();
    let p2 = profile_candidate(&cfg, "mm96", 0, &cands[0]).unwrap();
    assert_eq!(profile_json(&p1), profile_json(&p2));
    parse(&profile_json(&p1)).unwrap();
    let trace = trace_json(None, &[&p1], cfg.clock_ghz);
    assert_eq!(trace, trace_json(None, &[&p2], cfg.clock_ghz));
    parse(&trace).unwrap();
    let phase_sum: u64 = p1.timeline.phases.iter().map(|p| p.cycles()).sum();
    assert_eq!(phase_sum, p1.timeline.total, "phases partition the timeline");
}
