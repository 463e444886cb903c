//! Plain-text table rendering for the experiment binaries.

use std::fmt::Write as _;
use std::path::Path;

use swatop::telemetry::Summary;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, " {c:<w$} |");
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Human-readable per-operator telemetry summary: one row per operator
/// span with candidate count, wall time, DMA traffic/efficiency, issue-slot
/// utilization, SPM footprint, the dominant roofline bottleneck of the
/// operator's executed candidates, and the model-accuracy headline numbers.
pub fn telemetry_summary(summary: &Summary) -> Table {
    let mut t = Table::new(
        "telemetry",
        &["operator", "cands", "wall ms", "dma MiB", "dma eff", "issue util", "spm KiB", "bottleneck", "mape %", "rank corr", "misrank"],
    );
    let opt = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
    for g in &summary.operators {
        let c = &g.counters;
        t.row(vec![
            g.label.clone(),
            g.candidates.len().to_string(),
            format!("{:.2}", g.wall_us as f64 / 1e3),
            format!("{:.2}", c.dma_payload_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.3}", c.dma_efficiency()),
            format!("{:.3}", c.issue_slot_utilization()),
            format!("{:.1}", c.spm_high_water_elems as f64 * 4.0 / 1024.0),
            g.mix.dominant().map_or_else(|| "-".to_string(), |b| b.name().to_string()),
            opt(g.accuracy.as_ref().and_then(|a| a.mape_pct)),
            opt(g.accuracy.as_ref().and_then(|a| a.rank_correlation)),
            g.accuracy.as_ref().map_or(0, |a| a.misranked.len()).to_string(),
        ]);
    }
    t
}

/// Roofline attribution table: one row per *executed* candidate with its
/// achieved GFLOPS, percent of the compute and DMA-bandwidth peaks,
/// arithmetic intensity and bottleneck class. Derived purely from each
/// candidate's cycles + counters, so it is identical for every `--jobs`
/// value.
pub fn roofline_table(summary: &Summary) -> Table {
    let peaks = &summary.peaks;
    let mut t = Table::new(
        format!(
            "roofline (peak {:.1} GFLOPS, {:.1} GB/s DMA, ridge {:.1} flops/B)",
            peaks.gflops,
            peaks.dma_gbps,
            peaks.ridge_intensity()
        ),
        &[
            "operator", "cand", "cycles", "GFLOPS", "% peak", "% DMA bw", "flops/B", "overlap",
            "bottleneck",
        ],
    );
    for g in &summary.operators {
        for (cand, attribution) in summary.candidates(g) {
            let (Some(cycles), Some(a)) = (cand.cycles, attribution) else { continue };
            let m = |name: &str| a.metrics.get(name).unwrap_or(0.0);
            t.row(vec![
                g.label.clone(),
                cand.index.unwrap_or(usize::MAX).to_string(),
                cycles.to_string(),
                format!("{:.1}", m("achieved_gflops")),
                format!("{:.1}", m("pct_peak_gflops")),
                format!("{:.1}", m("pct_peak_dma_bw")),
                format!("{:.2}", m("arithmetic_intensity")),
                format!("{:.2}", m("overlap_efficiency")),
                a.bottleneck.name().to_string(),
            ]);
        }
    }
    t
}

/// Write the post-hoc artifacts a run was asked for — the telemetry
/// snapshot, the run timeline, the feature corpus — and return one
/// `what : path` line per file written, for the caller to print.
pub fn write_exports(
    summary: &Summary,
    snapshot: Option<&Path>,
    timeline: Option<&Path>,
    corpus: Option<&Path>,
) -> Vec<String> {
    let mut written = Vec::new();
    let mut write = |what: &str, path: &Path, text: String, note: &str| {
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        written.push(format!("{what:<9}: {}{note}", path.display()));
    };
    if let Some(path) = snapshot {
        write("telemetry", path, summary.snapshot_json(), "");
    }
    if let Some(path) = timeline {
        write("timeline", path, summary.perfetto_json(), " (open in ui.perfetto.dev)");
    }
    if let Some(path) = corpus {
        let rows = swatop::profiler::feature_rows(summary);
        let note = format!(" ({} rows)", rows.len());
        write("corpus", path, swatop::profiler::corpus_text(&rows), &note);
    }
    written
}

/// Format a ratio `baseline/ours` as a speedup string (e.g. "1.44x").
pub fn fmt_speedup(baseline: f64, ours: f64) -> String {
    if ours <= 0.0 {
        return "n/a".into();
    }
    format!("{:.2}x", baseline / ours)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of a slice of positive numbers.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["layer", "speedup"]);
        t.row(vec!["conv1_1".into(), "1.44x".into()]);
        t.row(vec!["c2".into(), "12.00x".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| conv1_1 | 1.44x   |"), "{s}");
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(fmt_speedup(3.0, 2.0), "1.50x");
        assert_eq!(fmt_speedup(3.0, 0.0), "n/a");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
