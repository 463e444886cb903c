//! Table 1 and Figure 8: the 225-configuration versatility sweep
//! (Listing 1), tuned once and read twice.
//!
//! **Table 1.** For each batch ∈ {1, 32, 128} and each of 75 (Ni ≥ No, Ro)
//! configurations, compare swATOP against the best manual implementation
//! of each method: swDNN for implicit, xMath-based for explicit and
//! Winograd. Report `#cases (avg. speedup)` split into Faster / Slower,
//! matching the paper's table format. Paper shape: implicit and Winograd
//! never lose (75 faster each, avg +44-45% and ≈+300%); explicit wins ≈72%
//! of cases ±20%.
//!
//! **Figure 8.** Absolute performance and efficiency of the three methods
//! over the same tuned sweep. Paper shape: implicit CONV averages >70%
//! efficiency for training batches; Winograd's *direct-conv-normalised*
//! efficiency is high and can exceed 100% (it does ~4/9 of the direct
//! FLOPs); explicit CONV is the least efficient and is only used where the
//! others don't apply.

use sw26010::Cycles;
use workloads::{conv_sweep, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod};

use super::{library, machine, pct, Opts};

/// One method×batch cell of Table 1.
#[derive(Debug, Default)]
struct Cell {
    faster: usize,
    faster_gain: Vec<f64>,
    slower: usize,
    slower_loss: Vec<f64>,
    no_baseline: usize,
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

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let mut table = Table::new(
        "Table 1 — 225-configuration sweep vs best manual implementations",
        &["method", "batch", "cases", "Faster", "Slower"],
    );
    let mut fig8 = Table::new(
        "Fig. 8 — performance/efficiency of the three CONV methods (Listing-1 sweep)",
        &["method", "batch", "cases", "avg GFLOPS", "avg eff", "min eff", "max eff"],
    );
    for method in [ConvMethod::Implicit, ConvMethod::Explicit, ConvMethod::Winograd] {
        for &batch in &CONV_BATCHES {
            let sweep = opts.sample(conv_sweep(batch, opts.spatial_cap()), 6, 25);
            let mut cell = Cell::default();
            let (mut gflops, mut effs) = (Vec::new(), Vec::new());
            let tuned = tune_conv_sweep(&cfg, method, &sweep, &opts.tune_options());
            for (shape, ours) in sweep.iter().zip(tuned) {
                let Some(ours) = ours else {
                    continue;
                };
                cell.record(ours.cycles, library(&cfg, method, shape));
                gflops.push(ours.gflops(&cfg));
                effs.push(ours.efficiency(&cfg));
            }
            table.row(vec![
                method.name().into(),
                batch.to_string(),
                effs.len().to_string(),
                cell.fmt_faster(),
                cell.fmt_slower(),
            ]);
            if effs.is_empty() {
                continue;
            }
            fig8.row(vec![
                method.name().into(),
                batch.to_string(),
                effs.len().to_string(),
                format!("{:.0}", mean(&gflops)),
                format!("{:.0}%", 100.0 * mean(&effs)),
                format!("{:.0}%", 100.0 * effs.iter().cloned().fold(f64::MAX, f64::min)),
                format!("{:.0}%", 100.0 * effs.iter().cloned().fold(0.0, f64::max)),
            ]);
        }
    }
    vec![table, fig8]
}
