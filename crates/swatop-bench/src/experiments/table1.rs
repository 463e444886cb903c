//! Table 1: the 225-configuration versatility sweep (Listing 1).
//!
//! For each batch ∈ {1, 32, 128} and each of 75 (Ni ≥ No, Ro)
//! configurations, compare swATOP against the best manual implementation
//! of each method: swDNN for implicit, xMath-based for explicit and
//! Winograd. Report `#cases (avg. speedup)` split into Faster / Slower,
//! matching the paper's table format.
//!
//! Paper shape: implicit and Winograd never lose (75 faster each, avg
//! +44-45% and ≈+300%); explicit wins ≈72% of cases ±20%.

use baselines::{swdnn_implicit_conv, xmath_explicit_conv, xmath_winograd_conv};
use sw26010::Cycles;
use swatop::tuner::TuneOptions;
use workloads::{conv_sweep, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod};

use super::{machine, pct, Opts};

/// One method×batch cell of Table 1.
#[derive(Debug, Default, Clone)]
pub struct Cell {
    pub faster: usize,
    pub faster_gain: Vec<f64>,
    pub slower: usize,
    pub slower_loss: Vec<f64>,
    pub no_baseline: usize,
}

impl Cell {
    fn record(&mut self, ours: Cycles, base: Option<Cycles>) {
        let Some(base) = base else {
            self.no_baseline += 1;
            return;
        };
        let ratio = base.get() as f64 / ours.get() as f64;
        if ratio >= 1.0 {
            self.faster += 1;
            self.faster_gain.push(ratio - 1.0);
        } else {
            self.slower += 1;
            self.slower_loss.push(1.0 - 1.0 / ratio);
        }
    }

    fn fmt_faster(&self) -> String {
        if self.no_baseline > 0 && self.faster == 0 {
            return format!("{}(+inf%)", self.no_baseline);
        }
        let extra = if self.no_baseline > 0 {
            format!(" [+{} w/o baseline]", self.no_baseline)
        } else {
            String::new()
        };
        format!("{}({}){extra}", self.faster, pct(mean(&self.faster_gain)))
    }

    fn fmt_slower(&self) -> String {
        if self.slower == 0 {
            "0".into()
        } else {
            format!("{}({})", self.slower, pct(mean(&self.slower_loss)))
        }
    }
}

pub struct Outcome {
    pub tables: Vec<Table>,
    /// (method, batch) → per-case (ours, baseline) cycles; reused by Fig. 8.
    pub cells: Vec<(ConvMethod, usize, Cell)>,
}

pub fn run(opts: &Opts) -> Outcome {
    let cfg = machine();
    let mut table = Table::new(
        "Table 1 — 225-configuration sweep vs best manual implementations",
        &["method", "batch", "cases", "Faster", "Slower"],
    );
    let mut cells = Vec::new();
    for method in [ConvMethod::Implicit, ConvMethod::Explicit, ConvMethod::Winograd] {
        for &batch in &CONV_BATCHES {
            let sweep = opts.sample(conv_sweep(batch, opts.spatial_cap), 6, 25);
            let mut cell = Cell::default();
            let mut cases = 0usize;
            let tuned =
                tune_conv_sweep(&cfg, method, &sweep, &TuneOptions::with_jobs(opts.jobs));
            for (shape, ours) in sweep.iter().zip(tuned) {
                let Some(ours) = ours else {
                    continue;
                };
                cases += 1;
                let base = match method {
                    ConvMethod::Implicit => swdnn_implicit_conv(&cfg, shape),
                    ConvMethod::Explicit => xmath_explicit_conv(&cfg, shape).ok(),
                    ConvMethod::Winograd => xmath_winograd_conv(&cfg, shape).ok(),
                };
                cell.record(ours.cycles, base);
            }
            table.row(vec![
                method.name().into(),
                batch.to_string(),
                cases.to_string(),
                cell.fmt_faster(),
                cell.fmt_slower(),
            ]);
            cells.push((method, batch, cell));
        }
    }
    Outcome { tables: vec![table], cells }
}
