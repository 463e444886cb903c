//! The export oracle: every artifact the reporting layer writes, from one
//! deterministic run, against `tests/golden/exports/`. The files were
//! recorded from the hand-rolled emitters before they were ported to
//! `sw26010::json::Writer`, so a port that moves a byte fails here.
//!
//! The run: gemm 40×24×16, `TierPolicy::top_k(3)`, jobs 1, a validator that
//! rejects one candidate in seven, `Telemetry` attached;
//! then the profile of the winner, its diff against candidate 0, and a
//! checkpoint whose `Failed` error holds every character class the string
//! escaper distinguishes.
//!
//! Artifacts without a host clock are compared **byte for byte**; the
//! trace of the winner and candidate 0 pins their simulated timings. The
//! telemetry snapshot and the run's trace carry wall-clock and
//! process-global values; there the volatile values are masked in the text
//! and the documents compared as parsed values (`json::parse` keeps number
//! text and key order). Every trace document is
//! also held to the trace-event rules per thread: no timestamp goes back,
//! slices nest or are disjoint, and every `B` has its `E`.
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

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use swatop_repro::sw26010::json::{parse, Json};
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::observatory::{attribute, Peaks};
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::profiler::{
    corpus_text, diff, diff_json, diff_report, feature_rows, profile_candidate, profile_json,
    trace_json,
};
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::telemetry::{SpanKind, Telemetry};
use swatop_repro::swatop::tuner::checkpoint::{fingerprint, render, CandCell};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};

/// How an artifact is held against its golden file.
#[derive(Clone, Copy)]
enum Check {
    Bytes,
    /// Mask the volatile values, then compare as parsed JSON.
    MaskedJson,
}

/// Every artifact of the run as `(golden file, text, check)`.
fn artifacts() -> Vec<(&'static str, String, Check)> {
    let cfg = MachineConfig::default();
    let peaks = Peaks::of(&cfg);
    let op = MatmulOp::new(40, 24, 16);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);

    let tel = Telemetry::new();
    let op_span = tel.open(SpanKind::Operator, op.name());
    let opts = TuneOptions {
        jobs: 1,
        telemetry: Some(tel.child_of(op_span)),
        tiers: TierPolicy::top_k(3),
        ..TuneOptions::default()
    };
    // Pure in the index; rejects the model's first pick (50) and accepts
    // the second (58), so the run holds one quarantine with its reason. (Every
    // seventh while the space held `MatmulOp`'s levels without `dbuf`: the
    // first pick was 98, the second 102.)
    let fifths = |i: usize, _: &Candidate| {
        if i.is_multiple_of(5) {
            Err(format!("candidate {i} is \"unlucky\""))
        } else {
            Ok(())
        }
    };
    let outcome = tune(&cfg, &cands, &opts, Some(&fifths)).expect("the space tunes");
    assert_eq!((outcome.best, outcome.quarantined), (58, 1));
    tel.close(op_span);

    let winner = profile_candidate(&cfg, &op.name(), outcome.best, &cands[outcome.best]).unwrap();
    let first = profile_candidate(&cfg, &op.name(), 0, &cands[0]).unwrap();
    let d = diff(&winner, &first);

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
        ("trace_profile.json", trace_json(None, &[&winner, &first], cfg.clock_ghz), Bytes),
        ("diff.json", diff_json(&d), Bytes),
        ("diff_report.txt", diff_report(&d), Bytes),
        (
            "metric_set.json",
            attribute(&peaks, winner.cycles.get(), &winner.counters).metrics.to_json(),
            Bytes,
        ),
        ("checkpoint.json", render(fingerprint(&cfg, &cands[..cells.len()]), &cells), Bytes),
        ("snapshot_peaks.json", summary.snapshot_json(), MaskedJson),
        ("trace_run.json", trace_json(Some(&summary), &[&winner], cfg.clock_ghz), MaskedJson),
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

#[test]
fn every_export_equals_its_recorded_golden() {
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exports");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("export_golden");
    let mut moved = Vec::new();
    for (name, text, check) in artifacts() {
        let got = match check {
            Check::Bytes => text,
            Check::MaskedJson => mask_json(&text),
        };
        let want = std::fs::read_to_string(golden_dir.join(name)).unwrap_or_default();
        let same = match check {
            Check::MaskedJson => Some(parse(&got).expect("export parses")) == parse(&want).ok(),
            Check::Bytes => got == want,
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
}

/// What is wrong with a trace document, per `(pid, tid)`: a `ts` earlier
/// than the one before it, an `X` slice that overlaps another without
/// nesting in it (`slack` apart counts as touching), a `B` without its `E`.
fn malformations(text: &str, slack: f64) -> Vec<String> {
    let doc = parse(text).expect("the trace parses");
    let events = doc.field("traceEvents").and_then(|e| e.as_arr("traceEvents")).expect("events");
    let get = |e: &Json, k: &str| e.field(k).and_then(|v| v.as_f64(k)).expect(k);
    let mut bad = Vec::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut slices: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    let mut open: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for e in events {
        let ph = e.field("ph").and_then(|p| p.as_str("ph")).expect("ph");
        if ph == "M" {
            continue;
        }
        let track = (get(e, "pid") as u64, get(e, "tid") as u64);
        let ts = get(e, "ts");
        if let Some(prev) = last_ts.insert(track, ts).filter(|&prev| ts < prev) {
            bad.push(format!("{track:?}: ts {prev} -> {ts}"));
        }
        match ph {
            "X" => slices.entry(track).or_default().push((ts, ts + get(e, "dur"))),
            "B" => *open.entry(track).or_default() += 1,
            "E" => *open.entry(track).or_default() -= 1,
            _ => {}
        }
    }
    bad.extend(open.iter().filter(|(_, &n)| n != 0).map(|(t, n)| format!("{t:?}: {n} B without E")));
    for (track, mut xs) in slices {
        xs.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut enclosing: Vec<f64> = Vec::new();
        for (start, end) in xs {
            while enclosing.last().is_some_and(|&outer| outer <= start + slack) {
                enclosing.pop();
            }
            match enclosing.last() {
                Some(&outer) if end > outer + slack => {
                    bad.push(format!("{track:?}: [{start}, {end}] overlaps a slice ending at {outer}"));
                }
                _ => enclosing.push(end),
            }
        }
    }
    bad
}

/// The tuned run with its winner, the diff pair, and the gemm 96³ winner
/// the CLI's default policy picks, which keeps several transfers in flight
/// at once: one cycle of slack, and no malformation.
#[test]
fn every_trace_document_is_well_formed() {
    let cfg = MachineConfig::default();
    let mut docs: Vec<(&str, String)> =
        artifacts().into_iter().filter(|(name, ..)| name.starts_with("trace_")).map(|(n, t, _)| (n, t)).collect();
    let op = MatmulOp::new(96, 96, 96);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let top3 = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    let best = tune(&cfg, &cands, &top3, None).expect("the space tunes").best;
    let winner = profile_candidate(&cfg, &op.name(), best, &cands[best]).unwrap();
    let gemm96 = trace_json(None, &[&winner], cfg.clock_ghz);
    assert!(gemm96.contains("\"DMA lane 1\""), "the 96³ winner overlaps its transfers");
    docs.push(("gemm 96³ winner", gemm96));
    assert_eq!(docs.len(), 3);
    for (name, text) in docs {
        let bad = malformations(&text, 1.0 / (cfg.clock_ghz * 1e3));
        assert!(bad.is_empty(), "{name}: {bad:#?}");
    }
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
