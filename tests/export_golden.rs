//! The export oracle: every artifact the reporting layer writes, from one
//! deterministic run, against `tests/golden/exports/`. The files were
//! recorded from the hand-rolled emitters before they were ported to
//! `sw26010::json::Writer`, so a port that moves a byte fails here.
//!
//! The run: gemm 40×24×16, `TierPolicy::top_k(3)`, jobs 1, a validator that
//! rejects one candidate in seven, `Telemetry` and an event bus attached;
//! then the profile of the winner, its diff against candidate 0, and a
//! checkpoint whose `Failed` error holds every character class the string
//! escaper distinguishes.
//!
//! Artifacts without a host clock are compared **byte for byte**. The
//! telemetry snapshot and run timeline carry wall-clock and process-global
//! values; there the volatile values are masked in the text and the
//! documents compared as parsed values (`json::parse` keeps number text and
//! key order). `/metrics` is compared line by line with the values of the
//! clock- and process-global series blanked.
//!
//! A second run — two operators under one recorder, one with a quarantined
//! winner and one where nothing fits the scratch pad, at `jobs` 1 and 4 —
//! pins as text every number the reports read from the span fold
//! (`Telemetry::summary`): `tests/golden/summary_two_operators.txt`,
//! recorded from the separate scans (`pairs` / `rollups` / `totals` /
//! `bottleneck_mix` / `tier_counts`) before the fold replaced them.
//!
//! On a mismatch the new text is written under `target/tmp/export_golden/`
//! and the test names the files; copy them over the goldens only when the
//! move is meant.

use std::path::PathBuf;
use std::sync::Arc;

use swatop_repro::sw26010::chrome_trace::to_chrome_json;
use swatop_repro::sw26010::json::parse;
use swatop_repro::sw26010::trace::Trace;
use swatop_repro::sw26010::{CoreGroup, ExecMode, MachineConfig};
use swatop_repro::swatop::interp::{execute, instantiate};
use swatop_repro::swatop::observatory::{attribute, Peaks};
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::profiler::{
    corpus_text, diff, diff_json, diff_report, feature_rows, profile_candidate, profile_json,
    profile_perfetto,
};
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::telemetry::bus::EventBus;
use swatop_repro::swatop::telemetry::metrics::MetricsHub;
use swatop_repro::swatop::telemetry::{SpanKind, Telemetry};
use swatop_repro::swatop::tuner::checkpoint::{fingerprint, render, CandCell};
use swatop_repro::swatop::tuner::pool::{MonitorConfig, PoolMonitor};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};

/// How an artifact is held against its golden file.
#[derive(Clone, Copy)]
enum Check {
    Bytes,
    /// Mask the volatile values, then compare as parsed JSON.
    MaskedJson,
    /// Blank the values of clock- and process-global series.
    Prometheus,
}

/// Every artifact of the run as `(golden file, text, check)`.
fn artifacts() -> Vec<(&'static str, String, Check)> {
    let cfg = MachineConfig::default();
    let peaks = Peaks::of(&cfg);
    let op = MatmulOp::new(40, 24, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);

    let tel = Telemetry::new();
    let bus = EventBus::new();
    // The monitor feeds the per-worker families; it is given to the hub only,
    // so they hold this one item and not whatever workers the tune used.
    let monitor = Arc::new(PoolMonitor::new(MonitorConfig::default(), None));
    monitor.begin(0, 3, "dbuf=true");
    monitor.finish(0);
    let hub = MetricsHub::new(&bus, Some(monitor), 1 << 14);
    let op_span = tel.open(SpanKind::Operator, op.name());
    let opts = TuneOptions {
        jobs: 1,
        telemetry: Some(tel.child_of(op_span)),
        tiers: TierPolicy::top_k(3),
        bus: Some(bus.clone()),
        ..TuneOptions::default()
    };
    // Pure in the index; rejects the model's first pick (398) and accepts
    // the second (414), so the run holds one quarantine with its reason.
    let sevenths = |i: usize, _: &Candidate| {
        if i % 7 == 6 {
            Err(format!("candidate {i} is \"unlucky\""))
        } else {
            Ok(())
        }
    };
    let outcome = tune(&cfg, &cands, &opts, Some(&sevenths)).expect("the space tunes");
    assert_eq!((outcome.best, outcome.quarantined), (414, 1));
    tel.close(op_span);
    hub.note_truncated("trace.json");

    let winner = profile_candidate(&cfg, &op.name(), outcome.best, &cands[outcome.best]).unwrap();
    let first = profile_candidate(&cfg, &op.name(), 0, &cands[0]).unwrap();
    let d = diff(&winner, &first);

    // The CLI's `--trace` artifact: the winner re-run cost-only, traced.
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
    cg.trace = Trace::enabled(1_000_000);
    let exe = &cands[outcome.best].exe;
    let binding = instantiate(&mut cg, exe);
    execute(&mut cg, exe, &binding).expect("trace run");

    let cells = [
        CandCell::Pending,
        CandCell::Done { cycles: 123_456, retries: 2, samples: 3 },
        CandCell::Failed { error: "q\" b\\ n\n c\u{1} é 中 \u{1F600}".into(), retries: 7 },
        CandCell::Done { cycles: u64::MAX, retries: 0, samples: 1 },
    ];

    let summary = tel.summary(&peaks);
    use Check::*;
    vec![
        ("corpus.jsonl", corpus_text(&feature_rows(&summary)), Bytes),
        ("profile.json", profile_json(&winner), Bytes),
        ("profile.perfetto.json", profile_perfetto(&winner, cfg.clock_ghz), Bytes),
        ("timeline.json", winner.timeline.to_json(), Bytes),
        ("chrome_trace.json", to_chrome_json(&cg.trace, cfg.clock_ghz), Bytes),
        ("diff.json", diff_json(&d), Bytes),
        ("diff_report.txt", diff_report(&d), Bytes),
        (
            "metric_set.json",
            attribute(&peaks, winner.cycles.get(), &winner.counters).metrics.to_json(),
            Bytes,
        ),
        ("checkpoint.json", render(fingerprint(&cfg, cells.len()), &cells), Bytes),
        ("snapshot_peaks.json", summary.snapshot_json(), MaskedJson),
        ("run_timeline_peaks.json", summary.perfetto_json(), MaskedJson),
        ("metrics.prom", hub.prometheus_text(), Prometheus),
    ]
}

/// Keys whose values depend on the host clock, the worker a span landed on,
/// or process-global cache counters.
const VOLATILE_KEYS: [&str; 6] = ["wall_us", "ts", "dur", "tid", "track", "caches"];

/// `text` with the value after every volatile key replaced by `0` (an object
/// by `{}`). Everything else, whitespace included, is kept.
fn mask_json(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    'scan: while !rest.is_empty() {
        for key in VOLATILE_KEYS {
            let Some(after) = rest.strip_prefix('"').and_then(|r| r.strip_prefix(key)) else {
                continue;
            };
            let Some(value) = after.strip_prefix("\":") else { continue };
            out.push_str(&rest[..rest.len() - value.len()]);
            let len = if value.starts_with('{') {
                let mut depth = 0usize;
                let close = value.bytes().position(|b| {
                    depth = match b {
                        b'{' => depth + 1,
                        b'}' => depth - 1,
                        _ => depth,
                    };
                    depth == 0
                });
                out.push_str("{}");
                close.expect("balanced object") + 1
            } else {
                out.push('0');
                value.find([',', '}', ']']).expect("a value ends")
            };
            rest = &value[len..];
            continue 'scan;
        }
        let ch = rest.chars().next().expect("non-empty");
        out.push(ch);
        rest = &rest[ch.len_utf8()..];
    }
    out
}

/// Families whose sample values move with the host clock or with whatever
/// else this process has tuned so far.
const VOLATILE_SERIES: [&str; 7] = [
    "swatop_cache_hits_total",
    "swatop_cache_misses_total",
    "swatop_cache_entries",
    "swatop_candidates_per_sec",
    "swatop_eta_seconds",
    "swatop_memo_hit_rate",
    "swatop_worker_utilization",
];

/// The exposition with the value of every volatile sample replaced by `_`.
fn blank_prometheus(text: &str) -> String {
    text.lines()
        .map(|line| {
            let family = line.split(['{', ' ']).next().unwrap_or("");
            match line.rsplit_once(' ') {
                Some((series, _)) if VOLATILE_SERIES.contains(&family) => format!("{series} _\n"),
                _ => format!("{line}\n"),
            }
        })
        .collect()
}

#[test]
fn every_export_equals_its_recorded_golden() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exports");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("export_golden");
    let mut moved = Vec::new();
    for (name, text, check) in artifacts() {
        let got = match check {
            Check::Bytes => text,
            Check::MaskedJson => mask_json(&text),
            Check::Prometheus => blank_prometheus(&text),
        };
        let want = std::fs::read_to_string(golden_dir.join(name)).unwrap_or_default();
        let same = match check {
            Check::MaskedJson => Some(parse(&got).expect("export parses")) == parse(&want).ok(),
            _ => got == want,
        };
        if !same {
            std::fs::create_dir_all(&scratch).expect("scratch dir");
            std::fs::write(scratch.join(name), &got).expect("write the new text");
            moved.push(name);
        }
    }
    assert!(
        moved.is_empty(),
        "exports moved: {moved:?} (recorded: {}, new text: {})",
        golden_dir.display(),
        scratch.display()
    );
}

#[test]
fn masking_touches_only_the_volatile_values() {
    let text = "{\"wall_us\":12,\"a\":[{\"ts\":1.5,\"dur\":3}],\"track\":null,\n\
                \"caches\":{\"k\":{\"hits\":1},\"m\":{}},\"label\":\"ts\",\"tid\":7}";
    assert_eq!(
        mask_json(text),
        "{\"wall_us\":0,\"a\":[{\"ts\":0,\"dur\":0}],\"track\":0,\n\
         \"caches\":{},\"label\":\"ts\",\"tid\":0}"
    );
    assert_eq!(
        blank_prometheus("# TYPE swatop_eta_seconds gauge\nswatop_eta_seconds 0.2\nswatop_waves_total 2\n"),
        "# TYPE swatop_eta_seconds gauge\nswatop_eta_seconds _\nswatop_waves_total 2\n"
    );
}

/// Every number the post-hoc reports derive from the recorder, for a run of
/// two operators under one recorder: a gemm whose first pick the validator
/// quarantines, then seven candidates on a scratch pad none of them fits
/// (the tune reports nothing; the operator span stays, with failed
/// candidates only).
fn two_operator_numbers(jobs: usize) -> String {
    use std::fmt::Write as _;

    let cfg = MachineConfig::default();
    let peaks = Peaks::of(&cfg);
    let op = MatmulOp::new(40, 24, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let tel = Telemetry::new();
    let under = |label: &str| {
        let span = tel.open(SpanKind::Operator, label);
        (span, TuneOptions { jobs, telemetry: Some(tel.child_of(span)), ..TuneOptions::default() })
    };

    let unchecked = tune(&cfg, &cands, &TuneOptions::default(), None).expect("the space tunes");
    let reject_first_pick = |i: usize, _: &Candidate| {
        if i == unchecked.best {
            Err(format!("candidate {i} is the unchecked winner"))
        } else {
            Ok(())
        }
    };
    let (span, opts) = under("gemm, first pick quarantined");
    let tuned = tune(&cfg, &cands, &opts, Some(&reject_first_pick)).expect("a second pick");
    tel.close(span);
    assert_eq!(tuned.quarantined, 1);

    let cramped = MachineConfig { spm_bytes: 64, ..cfg.clone() };
    let (span, opts) = under("gemm, nothing fits");
    tune(&cramped, &cands[..7], &opts, None).expect_err("every candidate fails");
    tel.close(span);

    let summary = tel.summary(&peaks);
    let mut out = String::new();
    for g in &summary.operators {
        let _ = writeln!(out, "operator {:?} {:?}: {} candidates", g.scope, g.label, g.candidates.len());
        let _ = writeln!(out, "  counters {:?}", g.counters);
        match &g.accuracy {
            Some(a) => {
                let _ = writeln!(
                    out,
                    "  accuracy pairs={} mape={:?} rank={:?} misranked={:?} threshold={}",
                    a.pairs.len(),
                    a.mape_pct,
                    a.rank_correlation,
                    a.misranked,
                    a.rank_threshold
                );
            }
            None => out.push_str("  accuracy none\n"),
        }
        for (c, attribution) in summary.candidates(g) {
            let class = attribution.map_or("-", |a| a.bottleneck.name());
            let _ = writeln!(
                out,
                "  cand {} predicted={:?} measured={:?} retries={} samples={} error={:?} bottleneck={class}",
                c.index.expect("indexed"),
                c.predicted,
                c.cycles,
                c.retries,
                c.samples,
                c.error
            );
        }
    }
    for p in summary.pairs() {
        let _ = writeln!(
            out,
            "pair scope={:?} index={} predicted={:?} measured={}",
            p.scope, p.index, p.predicted, p.measured
        );
    }
    let _ = writeln!(out, "totals {:?}", summary.totals);
    let _ = writeln!(out, "tiers {:?}", summary.tiers);
    let _ = writeln!(out, "mix {:?}", summary.mix);
    let _ = writeln!(out, "quarantines {}", summary.quarantines);
    let _ = writeln!(out, "outcome of the first operator: {:?}", tuned.telemetry.expect("instrumented"));
    out
}

#[test]
fn the_numbers_of_a_two_operator_run_equal_the_recorded_ones() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/summary_two_operators.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    for jobs in [1, 4] {
        let got = two_operator_numbers(jobs);
        if got != want {
            let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("export_golden");
            std::fs::create_dir_all(&scratch).expect("scratch dir");
            let new = scratch.join("summary_two_operators.txt");
            std::fs::write(&new, &got).expect("write the new text");
            panic!("jobs={jobs}: summary moved (recorded: {}, new text: {})", golden.display(), new.display());
        }
    }
}
