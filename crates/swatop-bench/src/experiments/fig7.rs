//! Figure 7: explicit CONV — swATOP vs the xMath-GEMM-based explicit
//! convolution on every conv layer of the three networks.
//!
//! Paper shape: swATOP wins most cases (40/29/32 of 43 across batches)
//! with a long tail of large wins (best ≈15×); the cases it loses are
//! large square-ish GEMMs that match xMath's fixed blocking.

use baselines::xmath_explicit_conv;
use swatop::tuner::TuneOptions;
use workloads::{Network, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let mut tables = Vec::new();
    let mut summary = Table::new(
        "Fig. 7 summary — explicit CONV vs xMath explicit",
        &["batch", "layers", "faster", "slower", "avg speedup", "best"],
    );
    for &batch in &CONV_BATCHES {
        let mut t = Table::new(
            format!("Fig. 7 — explicit CONV, batch {batch}"),
            &["layer", "swATOP GFLOPS", "baseline GFLOPS", "speedup"],
        );
        let mut speedups = Vec::new();
        let mut faster = 0usize;
        let mut slower = 0usize;
        let mut names = Vec::new();
        let mut shapes = Vec::new();
        for net in Network::ALL {
            let layers = opts.sample(net.layers().to_vec(), 3, 6);
            for layer in &layers {
                names.push(format!("{}/{}", net.name(), layer.name));
                shapes.push(layer.shape(batch, opts.spatial_cap));
            }
        }
        let tune_opts = TuneOptions::with_jobs(opts.jobs);
        let tuned = tune_conv_sweep(&cfg, ConvMethod::Explicit, &shapes, &tune_opts);
        for ((name, shape), ours) in names.into_iter().zip(&shapes).zip(tuned) {
            let Some(ours) = ours else {
                continue;
            };
            let Ok(base) = xmath_explicit_conv(&cfg, shape) else {
                continue;
            };
            let sp = base.get() as f64 / ours.cycles.get() as f64;
            if sp >= 1.0 {
                faster += 1;
            } else {
                slower += 1;
            }
            speedups.push(sp);
            let base_g = sw26010::clock::gflops(shape.flops(), base, cfg.clock_ghz);
            t.row(vec![
                name,
                format!("{:.0}", ours.gflops(&cfg)),
                format!("{base_g:.0}"),
                format!("{sp:.2}x"),
            ]);
        }
        if !speedups.is_empty() {
            summary.row(vec![
                batch.to_string(),
                speedups.len().to_string(),
                faster.to_string(),
                slower.to_string(),
                format!("{:.2}x", mean(&speedups)),
                format!("{:.2}x", speedups.iter().cloned().fold(0.0, f64::max)),
            ]);
        }
        tables.push(t);
    }
    tables.push(summary);
    tables
}
