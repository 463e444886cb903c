//! Experiment implementations: one code path per experiment family of the
//! paper's evaluation, plus the tuner ablation.
//!
//! Every `run` function returns the rendered tables; `swatop_cli
//! experiments` prints them in [`ALL`]'s order and collects them into
//! `EXPERIMENTS_RESULTS.md` (`--only fig5,table3` runs a subset by name).
//! Figs. 5–7 share one layer-vs-library loop ([`layers`]), and Fig. 8 is
//! rendered from the sweep Table 1 tunes ([`table1`]).
//!
//! Every experiment tunes under [`Opts::tune_options`], so `--telemetry` and
//! `--trace` record its runs; Table 3, whose subject is host time, runs
//! without a recorder.
//!
//! The machine is simulated, so experiment cost scales with how much of
//! each sweep is interpreted. Three scales are supported:
//!
//! * `--smoke` — minimal sub-samples (integration tests, seconds);
//! * default — representative sub-samples and capped feature maps
//!   (whole suite in tens of seconds);
//! * `--full` — the paper's complete sweeps at paper sizes (long; the
//!   black-box experiments then genuinely take hours, which is the Tab. 3
//!   story on real hardware).

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig9;
pub mod layers;
pub mod table1;
pub mod table2;
pub mod table3;

use baselines::{swdnn_implicit_conv, xmath_explicit_conv, xmath_winograd_conv};
use sw26010::{Cycles, MachineConfig};
use swatop::telemetry::Telemetry;
use swatop::tuner::TuneOptions;
use swtensor::ConvShape;

use crate::report::Table;
use crate::runner::ConvMethod;

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
            jobs: swatop::tuner::pool::available_jobs(),
            telemetry: None,
        }
    }
}

/// One experiment: its tables under the given options.
pub type Run = fn(&Opts) -> Vec<Table>;

/// `(name, section title, run)` in report order; `--only` selects by name.
pub const ALL: [(&str, &str, Run); 10] = [
    ("fig5", "Figure 5 — implicit CONV vs swDNN", layers::fig5),
    ("fig6", "Figure 6 — Winograd CONV vs 16×xMath", layers::fig6),
    ("fig7", "Figure 7 — explicit CONV vs xMath", layers::fig7),
    ("table1", "Table 1 and Figure 8 — 225-config sweep, performance/efficiency", table1::run),
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

    /// Spatial cap for network layers and the Listing-1 sweeps; `--full`
    /// runs paper-size feature maps.
    pub fn spatial_cap(&self) -> Option<usize> {
        self.capped(32)
    }

    /// Dimension cap for the Listing-2 GEMM sweeps.
    pub fn gemm_cap(&self) -> Option<usize> {
        self.capped(2048)
    }

    /// Spatial cap for the *black-box* experiments (Tab. 3, Figs. 9–10,
    /// the ablation): brute force executes every candidate, so these run
    /// smaller feature maps than the model-tuned sweeps.
    pub fn blackbox_cap(&self) -> Option<usize> {
        self.capped(16)
    }

    fn capped(&self, cap: usize) -> Option<usize> {
        (self.scale != Scale::Full).then_some(cap)
    }
}

/// The machine configuration used by every experiment: always fault-free,
/// as the paper's tables report clean-machine numbers.
pub fn machine() -> MachineConfig {
    MachineConfig::default()
}

/// The cycles of the hand-written library a CONV method is measured
/// against: swDNN for implicit, xMath for explicit and Winograd. `None`
/// where the library has no kernel for `shape` or fails to run it.
pub fn library(cfg: &MachineConfig, method: ConvMethod, shape: &ConvShape) -> Option<Cycles> {
    match method {
        ConvMethod::Implicit => swdnn_implicit_conv(cfg, shape),
        ConvMethod::Explicit => xmath_explicit_conv(cfg, shape).ok(),
        ConvMethod::Winograd => xmath_winograd_conv(cfg, shape).ok(),
    }
}

/// A convenience: percentage formatting.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}
