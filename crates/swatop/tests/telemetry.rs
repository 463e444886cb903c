//! Tier-1 guarantees of the telemetry layer:
//!
//! * **disabled = free** — without a recorder the tuners return results
//!   bit-identical to the instrumented run, whose candidates the summary
//!   holds under the run's scope;
//! * **span determinism** — the *set* of simulation-derived span facts
//!   (kind, label, candidate index, measured cycles, prediction, counters)
//!   is identical for any `--jobs` value; only wall-clock and worker-track
//!   assignment may differ;
//! * **accuracy coverage** — every executed candidate of a top-k run
//!   contributes one (predicted, measured) pair, including wave members
//!   that lost the pick;
//! * **exporters** — the snapshot and the trace document are structurally
//!   valid and the trace names one thread per worker track.

use sw26010::json::parse;
use sw26010::MachineConfig;
use swatop::ops::ImplicitConvOp;
use swatop::profiler::trace_json;
use swatop::scheduler::{Candidate, Scheduler};
use swatop::observatory::Peaks;
use swatop::telemetry::{SpanKind, Telemetry};
use swatop::tuner::{tune, TierPolicy, TuneOptions, TuneOutcome};
use swtensor::ConvShape;

fn space(cfg: &MachineConfig) -> Vec<Candidate> {
    let shape = ConvShape::square(32, 64, 64, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&ImplicitConvOp::new(shape));
    assert!(cands.len() >= 200, "need a nontrivial space, got {}", cands.len());
    cands
}

fn opts(tiers: TierPolicy, jobs: usize, tel: Option<&Telemetry>) -> TuneOptions {
    TuneOptions { jobs, telemetry: tel.cloned(), tiers, ..TuneOptions::default() }
}

fn top_k(k: usize, jobs: usize, tel: Option<&Telemetry>) -> TuneOptions {
    opts(TierPolicy::top_k(k), jobs, tel)
}

/// The deterministic projection of a candidate span: everything except
/// wall-clock timing and worker-track assignment.
fn span_facts(tel: &Telemetry) -> Vec<String> {
    let mut facts: Vec<String> = tel
        .spans()
        .iter()
        .map(|s| {
            format!(
                "{:?}|{}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
                s.kind, s.label, s.index, s.cycles, s.predicted, s.retries, s.samples, s.error,
                s.counters
            )
        })
        .collect();
    facts.sort();
    facts
}

fn same_outcome(a: &TuneOutcome, b: &TuneOutcome) {
    assert_eq!(a.best, b.best);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.all_cycles, b.all_cycles);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.retried, b.retried);
    assert_eq!(a.reports, b.reports);
}

#[test]
fn disabled_telemetry_is_bit_identical_and_absent() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    for jobs in [1, 4] {
        let tel = Telemetry::new();
        let plain = tune(&cfg, &cands, &top_k(5, jobs, None), None).unwrap();
        let inst = tune(&cfg, &cands, &top_k(5, jobs, Some(&tel)), None).unwrap();
        same_outcome(&plain, &inst);
        let summary = tel.summary(&Peaks::of(&cfg));
        let own = summary.operator(None).expect("recorder => the run's scope in the summary");
        assert_eq!(own.candidates.len(), inst.executed);
    }
}

#[test]
fn span_set_is_identical_for_any_job_count() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let run = |jobs: usize| {
        let tel = Telemetry::new();
        tune(&cfg, &cands, &top_k(8, jobs, Some(&tel)), None).unwrap();
        (span_facts(&tel), tel)
    };
    let (serial, serial_tel) = run(1);
    assert!(!serial.is_empty());
    for jobs in [2, 8] {
        let (par, _) = run(jobs);
        assert_eq!(par, serial, "jobs={jobs}");
    }
    // Serial runs place every candidate span on worker track 0.
    assert!(serial_tel
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Candidate)
        .all(|s| s.track == Some(0)));
}

#[test]
fn every_executed_candidate_feeds_the_accuracy_tracker() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    for k in [1, 3, 8] {
        let tel = Telemetry::new();
        let outcome = tune(&cfg, &cands, &top_k(k, 2, Some(&tel)), None).unwrap();
        let summary = tel.summary(&Peaks::of(&cfg));
        let pairs = summary.pairs();
        // On the fault-free machine nothing fails, so pair count == executed
        // — including top-k wave members that lost the final pick.
        assert_eq!(pairs.len(), outcome.executed, "k={k}");
        let own = summary.operator(None).and_then(|o| o.accuracy.as_ref()).expect("instrumented");
        assert_eq!(own.pairs.len(), outcome.executed, "k={k}");
        // The winner's measured cycles must appear among the pairs.
        assert!(pairs.iter().any(|p| p.index == outcome.best
            && p.measured == outcome.cycles.get()));
    }
}

#[test]
fn blackbox_records_a_pair_for_the_whole_space() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let tel = Telemetry::new();
    let outcome = tune(&cfg, &cands, &opts(TierPolicy::exhaustive(), 4, Some(&tel)), None).unwrap();
    assert_eq!(outcome.executed, cands.len());
    let summary = tel.summary(&Peaks::of(&cfg));
    assert_eq!(summary.pairs().len(), cands.len());
    let own = summary.operator(None).expect("instrumented");
    assert!(own.counters.dma_payload_bytes > 0);
    assert!(own.counters.kernel_calls > 0);
    // With the whole space measured, rank correlation is well-defined.
    assert!(own.accuracy.as_ref().and_then(|a| a.rank_correlation).is_some());
}

#[test]
fn exporters_are_valid_json_with_one_thread_per_worker() {
    let cfg = MachineConfig::default();
    let cands = space(&cfg);
    let tel = Telemetry::new();
    let sweep = tel.open(SpanKind::Sweep, "test sweep");
    let op_handle = tel.child_of(sweep);
    let op = op_handle.open(SpanKind::Operator, "implicit conv");
    tune(&cfg, &cands, &top_k(6, 3, Some(&op_handle.child_of(op))), None).unwrap();
    op_handle.close(op);
    tel.close(sweep);

    let (snapshot, timeline) = {
        let summary = tel.summary(&Peaks::of(&cfg));
        (summary.snapshot_json(), trace_json(Some(&summary), &[], cfg.clock_ghz))
    };
    parse(&snapshot).expect("snapshot JSON well-formed");
    assert!(snapshot.contains("\"predicted\""));
    assert!(snapshot.contains("\"dma_payload_bytes\""));

    parse(&timeline).expect("timeline JSON well-formed");
    assert!(timeline.contains("\"traceEvents\""));
    assert!(timeline.contains("\"orchestrator\""));
    // Every worker track that recorded a span gets a thread_name entry.
    let tracks: std::collections::BTreeSet<usize> =
        tel.spans().iter().filter_map(|s| s.track).collect();
    assert!(!tracks.is_empty());
    for w in tracks {
        assert!(
            timeline.contains(&format!("\"worker {w}\"")),
            "missing thread name for worker {w}"
        );
    }
}
