//! Figure 6: Winograd CONV — swATOP vs the xMath-GEMM-based Winograd on
//! the layers where the method applies (3×3, stride 1).
//!
//! Paper shape: average speedups ≈2.20 / 2.35 / 2.33 at batch 1/32/128 —
//! swATOP fuses the 16 transform-domain multiplications into one tuned
//! batched schedule while the baseline makes 16 padded library calls.

use baselines::xmath_winograd_conv;
use swatop::ops::WinogradConvOp;
use swatop::tuner::TuneOptions;
use workloads::{Network, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let mut tables = Vec::new();
    let mut summary = Table::new(
        "Fig. 6 summary — Winograd CONV speedup over 16×xMath",
        &["batch", "layers", "avg speedup", "min", "max", "swATOP slower"],
    );
    for &batch in &CONV_BATCHES {
        let mut t = Table::new(
            format!("Fig. 6 — Winograd CONV, batch {batch}"),
            &["layer", "swATOP GFLOPS*", "baseline GFLOPS*", "speedup"],
        );
        let mut speedups = Vec::new();
        let mut slower = 0usize;
        let mut names = Vec::new();
        let mut shapes = Vec::new();
        for net in Network::ALL {
            let layers = opts.sample(net.layers().to_vec(), 3, 6);
            for layer in &layers {
                let shape = layer.shape(batch, opts.spatial_cap);
                if !WinogradConvOp::applicable(&shape) {
                    continue;
                }
                names.push(format!("{}/{}", net.name(), layer.name));
                shapes.push(shape);
            }
        }
        let tune_opts = TuneOptions::with_jobs(opts.jobs);
        let tuned = tune_conv_sweep(&cfg, ConvMethod::Winograd, &shapes, &tune_opts);
        for ((name, shape), ours) in names.into_iter().zip(&shapes).zip(tuned) {
            let Some(ours) = ours else {
                continue;
            };
            let Ok(base) = xmath_winograd_conv(&cfg, shape) else {
                continue;
            };
            let sp = base.get() as f64 / ours.cycles.get() as f64;
            if sp < 1.0 {
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
                format!("{:.2}x", mean(&speedups)),
                format!("{:.2}x", speedups.iter().cloned().fold(f64::MAX, f64::min)),
                format!("{:.2}x", speedups.iter().cloned().fold(0.0, f64::max)),
                slower.to_string(),
            ]);
        }
        tables.push(t);
    }
    tables.push(summary);
    tables
}
