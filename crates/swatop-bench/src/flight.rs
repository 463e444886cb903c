//! Flight report: one self-contained HTML file summarising what a tuning
//! campaign did and how well the machinery behaved while doing it.
//!
//! The report aggregates two sources:
//!
//! * the **bench journal** (`BENCH_swatop.json`) — per-op GFLOPS trend
//!   across records, the latest record's convergence curves, roofline
//!   position and per-op model accuracy;
//! * an optional **live snapshot** ([`Snapshot`], the same one `/metrics`
//!   renders) — event-bus accounting from the run that just finished:
//!   wave/checkpoint volume, stalls the watchdog flagged, quarantine
//!   reasons, subscriber drop counts and truncated trace artifacts.
//!
//! Everything is hand-rolled: inline SVG charts, inline CSS, no external
//! assets or URLs, so the file opens identically on an air-gapped machine
//! (the CI smoke leg greps for exactly that).

use std::fmt::Write as _;

use swatop::telemetry::metrics::Snapshot;

use crate::journal::{op_series, Journal, Record};

/// Escape text for HTML body and attribute positions.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// One polyline chart: series of `(label, points)` drawn into a fixed
/// 640×220 viewBox with axis lines and min/max captions. X is the point's
/// position index (or explicit x), Y is auto-scaled.
fn svg_chart(series: &[(String, Vec<(f64, f64)>)], y_label: &str) -> String {
    const W: f64 = 640.0;
    const H: f64 = 220.0;
    const PAD: f64 = 34.0;
    // Deterministic 6-colour wheel (no external palette).
    const COLORS: &[&str] = &["#1b6ca8", "#c0392b", "#27824d", "#8e5aa3", "#b07d1e", "#3a3f44"];

    let pts: Vec<(f64, f64)> = series.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    if pts.is_empty() {
        return "<p class=\"empty\">no data</p>".to_string();
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for (x, y) in &pts {
        x0 = x0.min(*x);
        x1 = x1.max(*x);
        y0 = y0.min(*y);
        y1 = y1.max(*y);
    }
    if x1 <= x0 {
        x1 = x0 + 1.0;
    }
    if y1 <= y0 {
        y1 = y0 + 1.0;
    }
    let sx = |x: f64| PAD + (x - x0) / (x1 - x0) * (W - 2.0 * PAD);
    let sy = |y: f64| H - PAD - (y - y0) / (y1 - y0) * (H - 2.0 * PAD);

    let mut s = format!(
        "<svg viewBox=\"0 0 {W} {H}\" role=\"img\">\
         <rect x=\"0\" y=\"0\" width=\"{W}\" height=\"{H}\" fill=\"#fcfcfa\"/>\
         <line x1=\"{PAD}\" y1=\"{PAD}\" x2=\"{PAD}\" y2=\"{y}\" stroke=\"#999\"/>\
         <line x1=\"{PAD}\" y1=\"{y}\" x2=\"{x}\" y2=\"{y}\" stroke=\"#999\"/>",
        y = H - PAD,
        x = W - PAD,
    );
    let _ = write!(
        s,
        "<text x=\"4\" y=\"{}\" class=\"cap\">{:.1}</text>\
         <text x=\"4\" y=\"{}\" class=\"cap\">{:.1}</text>\
         <text x=\"{}\" y=\"{}\" class=\"cap\">{}</text>",
        H - PAD + 4.0,
        y0,
        PAD,
        y1,
        PAD + 4.0,
        14.0,
        esc(y_label),
    );
    for (k, (name, points)) in series.iter().enumerate() {
        if points.is_empty() {
            continue;
        }
        let color = COLORS[k % COLORS.len()];
        let mut poly = String::new();
        for (x, y) in points {
            let _ = write!(poly, "{:.1},{:.1} ", sx(*x), sy(*y));
        }
        let _ = write!(
            s,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.6\"/>",
            poly.trim_end()
        );
        // Mark each sample so single-point series stay visible.
        for (x, y) in points {
            let _ = write!(
                s,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.4\" fill=\"{color}\"/>",
                sx(*x),
                sy(*y)
            );
        }
        let _ = write!(
            s,
            "<text x=\"{}\" y=\"{}\" class=\"cap\" fill=\"{color}\">{}</text>",
            PAD + 6.0,
            PAD + 14.0 + 13.0 * k as f64,
            esc(name)
        );
    }
    s.push_str("</svg>");
    s
}

/// Horizontal funnel bar: stages with counts, widths proportional to the
/// first (widest) stage.
fn svg_funnel(stages: &[(&str, u64)]) -> String {
    let max = stages.iter().map(|(_, n)| *n).max().unwrap_or(0);
    if max == 0 {
        return "<p class=\"empty\">no evaluations recorded</p>".to_string();
    }
    const W: f64 = 640.0;
    const ROW: f64 = 30.0;
    let h = ROW * stages.len() as f64;
    let mut s = format!("<svg viewBox=\"0 0 {W} {h}\" role=\"img\">");
    for (i, (name, n)) in stages.iter().enumerate() {
        let y = ROW * i as f64;
        let w = (W - 180.0) * (*n as f64 / max as f64);
        let _ = write!(
            s,
            "<rect x=\"150\" y=\"{:.1}\" width=\"{:.1}\" height=\"{}\" fill=\"#1b6ca8\" \
             opacity=\"{:.2}\"/>\
             <text x=\"4\" y=\"{:.1}\" class=\"cap\">{}</text>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"cap\">{}</text>",
            y + 4.0,
            w.max(2.0),
            ROW - 8.0,
            1.0 - 0.25 * i as f64 / stages.len().max(1) as f64,
            y + ROW / 2.0 + 4.0,
            esc(name),
            156.0 + w,
            y + ROW / 2.0 + 4.0,
            n
        );
    }
    s.push_str("</svg>");
    s
}

fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "—".to_string(), |v| format!("{v:.3}"))
}

/// Render the flight report. `label` filters the journal (None = every
/// record); `live` attaches the event-bus accounting of a run that just
/// finished (None for the standalone `report` subcommand).
pub fn flight_html(journal: &Journal, label: Option<&str>, live: Option<&Snapshot>) -> String {
    let records: Vec<&Record> = match label {
        Some(l) => journal.with_label(l),
        None => journal.records.iter().collect(),
    };
    let latest = records.last().copied();

    let mut s = String::with_capacity(32 * 1024);
    s.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>swATOP flight report</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;\
         padding:0 1em;color:#222}\n\
         h1{font-size:1.5em}h2{font-size:1.15em;border-bottom:1px solid #ddd;\
         padding-bottom:.2em;margin-top:2em}\n\
         table{border-collapse:collapse;margin:.6em 0}\n\
         th,td{border:1px solid #ccc;padding:.25em .6em;text-align:right}\n\
         th:first-child,td:first-child{text-align:left}\n\
         svg{max-width:100%;height:auto;border:1px solid #eee;margin:.4em 0}\n\
         .cap{font:11px system-ui,sans-serif;fill:#555}\n\
         .empty{color:#888;font-style:italic}\n\
         .warn{color:#a33}\n\
         </style>\n</head>\n<body>\n<h1>swATOP flight report</h1>\n",
    );
    let _ = writeln!(
        s,
        "<p>{} journal record(s){}{}.</p>",
        records.len(),
        label.map(|l| format!(" with label <b>{}</b>", esc(l))).unwrap_or_default(),
        latest
            .map(|r| format!(", latest at rev <b>{}</b>, jobs {}", esc(&r.rev), r.jobs))
            .unwrap_or_default()
    );

    // -- Journal trajectory: per-op GFLOPS trend across records. ----------
    s.push_str("<h2>Journal trajectory (GFLOPS per op)</h2>\n");
    let trend: Vec<(String, Vec<(f64, f64)>)> = op_series(&records)
        .into_iter()
        .map(|(name, per_record)| {
            let pts = per_record
                .iter()
                .enumerate()
                .filter_map(|(i, op)| op.map(|o| (i as f64, o.gflops)))
                .collect();
            (name.to_string(), pts)
        })
        .collect();
    s.push_str(&svg_chart(&trend, "GFLOPS"));

    // -- Convergence curves of the latest record. --------------------------
    s.push_str("<h2>Tuner convergence (latest record)</h2>\n");
    let curves: Vec<(String, Vec<(f64, f64)>)> = latest
        .map(|r| {
            r.ops
                .iter()
                .filter(|o| !o.convergence.is_empty())
                .map(|o| {
                    let pts =
                        o.convergence.iter().map(|&(n, c)| (n as f64, c as f64)).collect();
                    (o.name.clone(), pts)
                })
                .collect()
        })
        .unwrap_or_default();
    s.push_str(&svg_chart(&curves, "best-so-far cycles"));

    // -- Roofline / bottleneck table of the latest record. -----------------
    s.push_str("<h2>Roofline position (latest record)</h2>\n");
    if let Some(r) = latest {
        s.push_str(
            "<table><tr><th>op</th><th>cycles</th><th>GFLOPS</th><th>% peak</th>\
             <th>% DMA bw</th><th>bottleneck</th><th>schedule</th></tr>\n",
        );
        for op in &r.ops {
            let _ = writeln!(
                s,
                "<tr><td>{}</td><td>{}</td><td>{:.1}</td><td>{:.1}</td><td>{:.1}</td>\
                 <td>{}</td><td>{}</td></tr>",
                esc(&op.name),
                op.cycles,
                op.gflops,
                op.pct_peak_gflops,
                op.pct_peak_dma_bw,
                esc(op.bottleneck.name()),
                esc(&op.schedule)
            );
        }
        s.push_str("</table>\n");
        let _ = writeln!(
            s,
            "<p>Bottleneck mix over every executed candidate: {} DMA, {} compute, \
             {} stall, {} SPM-capacity.</p>",
            r.mix.dma, r.mix.compute, r.mix.stall, r.mix.spm_capacity
        );
    } else {
        s.push_str("<p class=\"empty\">no records</p>\n");
    }

    // -- Tier funnel. ------------------------------------------------------
    s.push_str("<h2>Evaluation-ladder funnel (latest record)</h2>\n");
    if let Some(r) = latest {
        s.push_str(&svg_funnel(&[
            ("tier 0 screened", r.tiers.screened),
            ("tier 1 measured", r.tiers.measured),
            ("tier 2 validated", r.tiers.validated),
        ]));
        if r.cands_per_sec > 0.0 {
            let _ = writeln!(
                s,
                "<p>{:.0} candidates/s over {} evaluated.</p>",
                r.cands_per_sec, r.candidates_evaluated
            );
        }
    } else {
        s.push_str("<p class=\"empty\">no records</p>\n");
    }

    // -- Model accuracy. ---------------------------------------------------
    s.push_str("<h2>Model accuracy (latest record)</h2>\n");
    if let Some(r) = latest {
        s.push_str("<table><tr><th>op</th><th>MAPE %</th><th>Spearman ρ</th></tr>\n");
        for op in &r.ops {
            let _ = writeln!(
                s,
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                esc(&op.name),
                fmt_opt(op.mape_pct),
                fmt_opt(op.rank_correlation)
            );
        }
        let _ = write!(
            s,
            "<tr><td><b>run total</b></td><td>{}</td><td>{}</td></tr>\n</table>\n",
            fmt_opt(r.mape_pct),
            fmt_opt(r.rank_correlation)
        );
    } else {
        s.push_str("<p class=\"empty\">no records</p>\n");
    }

    // -- Fault / quarantine / retry accounting. ----------------------------
    s.push_str("<h2>Fault &amp; quarantine accounting</h2>\n");
    if let Some(l) = live.map(|snap| &snap.fold) {
        let _ = writeln!(
            s,
            "<p>Live run: {} candidate measurements ({} failed, {} transient retries), \
             {} scoreboard wave(s), {} checkpoint write(s).</p>",
            l.measured, l.failed, l.retries, l.waves, l.checkpoints
        );
        if !l.operators.is_empty() {
            s.push_str(
                "<table><tr><th>operator</th><th>candidates</th><th>best cycles</th>\
                 <th>executed</th><th>quarantined</th></tr>\n",
            );
            for op in &l.operators {
                let (best, executed, quarantined) = op.end.unwrap_or_default();
                let _ = writeln!(
                    s,
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    esc(&op.label),
                    op.candidates,
                    best.map_or_else(|| "—".to_string(), |c| c.to_string()),
                    executed,
                    quarantined
                );
            }
            s.push_str("</table>\n");
        }
        if !l.quarantines.is_empty() {
            s.push_str("<ul>\n");
            for (index, reason) in &l.quarantines {
                let _ = writeln!(
                    s,
                    "<li class=\"warn\">candidate {index} quarantined: {}</li>",
                    esc(reason)
                );
            }
            s.push_str("</ul>\n");
        }
        if l.stalls.is_empty() {
            s.push_str("<p>Stall watchdog: no candidate exceeded the threshold.</p>\n");
        } else {
            s.push_str("<ul>\n");
            for (worker, path, ms) in &l.stalls {
                let _ = writeln!(
                    s,
                    "<li class=\"warn\">worker {worker} stalled {ms} ms in {}</li>",
                    esc(path)
                );
            }
            s.push_str("</ul>\n");
        }
    } else if let Some(r) = latest {
        let _ = writeln!(
            s,
            "<p>Latest record: {} quarantined winner(s). (Run with \
             <code>--flight-report</code> for live per-candidate accounting.)</p>",
            r.quarantined
        );
    } else {
        s.push_str("<p class=\"empty\">no data</p>\n");
    }

    // -- Data completeness. ------------------------------------------------
    s.push_str("<h2>Data completeness</h2>\n");
    if let Some(l) = live {
        if l.dropped == 0 {
            let _ = writeln!(
                s,
                "<p>Event bus: {} event(s) received, none dropped — the accounting \
                 above is complete.</p>",
                l.received
            );
        } else {
            let _ = writeln!(
                s,
                "<p class=\"warn\">Event bus: {} event(s) received, {} dropped \
                 (subscriber ring overflow) — live counts are lower bounds.</p>",
                l.received, l.dropped
            );
        }
        if l.truncated.is_empty() {
            s.push_str("<p>No trace artifact hit its event cap.</p>\n");
        } else {
            s.push_str("<ul>\n");
            for t in &l.truncated {
                let _ = writeln!(
                    s,
                    "<li class=\"warn\">trace truncated at its event cap: {}</li>",
                    esc(t)
                );
            }
            s.push_str("</ul>\n");
        }
    } else {
        s.push_str("<p>Journal-only report: no live event-bus accounting attached.</p>\n");
    }

    s.push_str("</body>\n</html>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{OpBench, TierCounts};
    use swatop::observatory::{Bottleneck, BottleneckMix};
    use swatop::telemetry::bus::{Event, EventBus};
    use swatop::telemetry::metrics::MetricsHub;

    fn record(label: &str, gflops: f64) -> Record {
        Record {
            schema: crate::journal::SCHEMA_VERSION,
            label: label.to_string(),
            rev: "abc".into(),
            unix_ms: 0,
            jobs: 2,
            wall_ms: 10.0,
            quarantined: 1,
            candidates_evaluated: 120,
            cands_per_sec: 800.0,
            tiers: TierCounts { screened: 120, measured: 9, validated: 1 },
            ops: vec![OpBench {
                name: "gemm_96 <&>".into(),
                cycles: 42_000,
                gflops,
                pct_peak_gflops: 20.0,
                pct_peak_dma_bw: 9.0,
                bottleneck: Bottleneck::Dma,
                schedule: "t_m=64, dbuf=true".into(),
                tuner: "tiered".into(),
                convergence: vec![(1, 50_000), (5, 42_000)],
                mape_pct: Some(6.0),
                rank_correlation: Some(0.9),
            }],
            mape_pct: Some(7.0),
            rank_correlation: Some(0.92),
            mix: BottleneckMix { dma: 5, compute: 3, stall: 1, spm_capacity: 0 },
        }
    }

    #[test]
    fn flight_html_is_self_contained_and_escaped() {
        let j = Journal { records: vec![record("run", 16.0), record("run", 42.5)] };
        let mut live =
            Snapshot { received: 1, truncated: vec!["trace.json".into()], ..Snapshot::default() };
        live.fold.fold(Event::OperatorStart { label: "gemm <evil>".into(), candidates: 3 });
        let html = flight_html(&j, Some("run"), Some(&live));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(html.contains("<svg"));
        for section in [
            "Journal trajectory",
            "Tuner convergence",
            "Roofline position",
            "Evaluation-ladder funnel",
            "Model accuracy",
            "quarantine accounting",
            "Data completeness",
        ] {
            assert!(html.contains(section), "missing section {section}");
        }
        // Raw metacharacters from data never reach the markup.
        assert!(html.contains("gemm &lt;evil&gt;"));
        assert!(html.contains("gemm_96 &lt;&amp;&gt;"));
        assert!(!html.contains("gemm <evil>"));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://"));
        assert!(!html.contains("https://"));
        assert!(html.contains("trace.json"));
    }

    /// `/metrics` and the flight report are two renderings of one fold, so
    /// they count the same run the same way — including a panicked item,
    /// which arrives in `WaveEnd { failed }` with no `CandidateMeasured`.
    #[test]
    fn metrics_and_flight_report_show_the_same_numbers() {
        let bus = EventBus::new();
        let hub = MetricsHub::new(&bus, None, 64);
        for e in [
            Event::OperatorStart { label: "gemm".into(), candidates: 9 },
            Event::WaveStart { size: 3 },
            Event::CandidateMeasured { index: 4, cycles: Some(100), retries: 2, worker: 0 },
            Event::CandidateMeasured { index: 5, cycles: None, retries: 1, worker: 1 },
            // Candidate 6 panicked: no `CandidateMeasured` for it.
            Event::WaveEnd { measured: 1, failed: 2 },
            Event::CheckpointSaved { done: 3, total: 9 },
            Event::WaveStart { size: 1 },
            Event::WaveEnd { measured: 0, failed: 1 },
            Event::StallFlagged { worker: 1, index: 5, path: "gemm / t_m".into(), stalled_ms: 99 },
            Event::Quarantined { index: 4, reason: "illegal".into() },
        ] {
            bus.emit(e);
        }
        let prom = hub.prometheus_text();
        let html = flight_html(&Journal::default(), None, Some(&hub.snapshot()));
        for series in [
            "candidates_measured_total 2",
            "candidates_failed_total 3",
            "candidate_retries_total 3",
            "quarantined_total 1",
            "stalls_flagged_total 1",
            "waves_total 2",
            "checkpoints_saved_total 1",
        ] {
            assert!(prom.contains(&format!("swatop_{series}\n")), "{series}: {prom}");
        }
        assert!(
            html.contains(
                "2 candidate measurements (3 failed, 3 transient retries), \
                 2 scoreboard wave(s), 1 checkpoint write(s)."
            ),
            "{html}"
        );
        assert_eq!(html.matches("quarantined: illegal</li>").count(), 1, "{html}");
        assert_eq!(html.matches("stalled 99 ms in gemm / t_m</li>").count(), 1, "{html}");
    }

    #[test]
    fn empty_journal_still_renders() {
        let html = flight_html(&Journal::default(), None, None);
        assert!(html.contains("no records"));
        assert!(html.trim_end().ends_with("</html>"));
    }
}
