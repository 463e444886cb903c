//! Figure 8: absolute performance and efficiency of the three convolution
//! methods over the Listing-1 sweep.
//!
//! Paper shape: implicit CONV averages >70% efficiency for training
//! batches; Winograd's *direct-conv-normalised* efficiency is high and
//! can exceed 100% (it does ~4/9 of the direct FLOPs); explicit CONV is
//! the least efficient and is only used where the others don't apply.

use swatop::tuner::TuneOptions;
use workloads::{conv_sweep, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let mut t = Table::new(
        "Fig. 8 — performance/efficiency of the three CONV methods (Listing-1 sweep)",
        &["method", "batch", "cases", "avg GFLOPS", "avg eff", "min eff", "max eff"],
    );
    for method in [ConvMethod::Implicit, ConvMethod::Explicit, ConvMethod::Winograd] {
        for &batch in &CONV_BATCHES {
            let sweep = opts.sample(conv_sweep(batch, opts.spatial_cap), 6, 25);
            let mut gflops = Vec::new();
            let mut effs = Vec::new();
            let tuned = tune_conv_sweep(&cfg, method, &sweep, &TuneOptions::with_jobs(opts.jobs));
            for ours in tuned.into_iter().flatten() {
                gflops.push(ours.gflops(&cfg));
                effs.push(ours.efficiency(&cfg));
            }
            if effs.is_empty() {
                continue;
            }
            t.row(vec![
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
    vec![t]
}
