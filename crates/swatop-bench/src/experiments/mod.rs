//! Experiment implementations, one module per paper table/figure plus the
//! tuner ablation.
//!
//! Every `run` function returns the rendered tables; `swatop_cli
//! experiments` prints them in [`ALL`]'s order and collects them into
//! `EXPERIMENTS_RESULTS.md` (`--only fig5,table3` runs a subset by module
//! name).
//!
//! The machine is simulated, so experiment cost scales with how much of
//! each sweep is interpreted. Three scales are supported:
//!
//! * `--smoke` — minimal sub-samples (integration tests, seconds);
//! * default — representative sub-samples and capped feature maps
//!   (whole suite in tens of minutes on one core);
//! * `--full` — the paper's complete sweeps at paper sizes (long; the
//!   black-box experiments then genuinely take hours, which is the Tab. 3
//!   story on real hardware).

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;

use sw26010::MachineConfig;
use swatop::telemetry::Telemetry;
use swatop::tuner::TuneOptions;

use crate::report::Table;

/// How much of each sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Default,
    Full,
}

/// Harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    pub scale: Scale,
    /// Spatial cap for network layers / Listing-1 sweeps (None = paper-size
    /// feature maps).
    pub spatial_cap: Option<usize>,
    /// Dimension cap for Listing-2 GEMM sweeps.
    pub gemm_cap: Option<usize>,
    /// Worker threads for tuning (candidate- and sweep-level). 1 = serial;
    /// results are identical for every value.
    pub jobs: usize,
    /// Shared telemetry recorder (`--telemetry` / `--trace` attach one).
    /// `None` = uninstrumented: bit-identical results, zero overhead.
    pub telemetry: Option<Telemetry>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: Scale::Default,
            spatial_cap: Some(32),
            gemm_cap: Some(2048),
            jobs: swatop::tuner::pool::available_jobs(),
            telemetry: None,
        }
    }
}

/// One experiment: its tables under the given options.
pub type Run = fn(&Opts) -> Vec<Table>;

/// `(module name, section title, run)` in report order; `--only` selects by
/// module name.
pub const ALL: [(&str, &str, Run); 11] = [
    ("fig5", "Figure 5 — implicit CONV vs swDNN", fig5::run),
    ("fig6", "Figure 6 — Winograd CONV vs 16×xMath", fig6::run),
    ("fig7", "Figure 7 — explicit CONV vs xMath", fig7::run),
    ("table1", "Table 1 — 225-config sweep", |o| table1::run(o).tables),
    ("fig8", "Figure 8 — performance/efficiency", fig8::run),
    ("table2", "Table 2 — GEMM vs xMath", table2::run),
    ("table3", "Table 3 — tuning time", table3::run),
    ("fig9", "Figure 9 — model vs brute-force quality", fig9::run),
    ("fig10", "Figure 10 — auto-prefetching", fig10::run),
    ("fig11", "Figure 11 — lightweight zero padding", fig11::run),
    ("ablation", "Extension — tuner ablation", ablation::run),
];

impl Opts {
    /// Tuning options carrying this harness's worker count and (if any)
    /// telemetry recorder.
    pub fn tune_options(&self) -> TuneOptions {
        TuneOptions { jobs: self.jobs, telemetry: self.telemetry.clone(), ..TuneOptions::default() }
    }

    /// Deterministically sub-sample a list according to the scale.
    pub fn sample<T: Clone>(&self, items: Vec<T>, smoke_n: usize, default_n: usize) -> Vec<T> {
        let keep = match self.scale {
            Scale::Smoke => smoke_n,
            Scale::Default => default_n,
            Scale::Full => items.len(),
        };
        if items.len() <= keep {
            return items;
        }
        let step = items.len() as f64 / keep as f64;
        (0..keep).map(|i| items[(i as f64 * step) as usize].clone()).collect()
    }

    /// Spatial cap for the *black-box* experiments (Tab. 3, Figs. 9–10):
    /// brute force executes every candidate, so these default to smaller
    /// feature maps than the model-tuned sweeps.
    pub fn blackbox_cap(&self) -> Option<usize> {
        match self.scale {
            Scale::Full => None,
            _ => Some(self.spatial_cap.unwrap_or(16).min(16)),
        }
    }
}

/// The machine configuration used by every experiment: always fault-free,
/// as the paper's tables report clean-machine numbers.
pub fn machine() -> MachineConfig {
    MachineConfig::default()
}

/// A convenience: percentage formatting.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}
