//! Figure 5: implicit CONV — swATOP vs swDNN on the conv layers of VGG16,
//! ResNet and YOLO at batch 1/32/128.
//!
//! Paper findings to reproduce in shape:
//! * swDNN has no batch-1 implementation; swATOP bridges the gap with
//!   performance comparable to its big-batch results;
//! * for batch 32/128 swATOP is **always** faster, average speedups ≈1.44
//!   and ≈1.32.

use baselines::swdnn_implicit_conv;
use workloads::{Network, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod};

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let mut tables = Vec::new();
    let mut summary = Table::new(
        "Fig. 5 summary — implicit CONV speedup over swDNN",
        &["batch", "layers", "avg speedup", "min", "max", "swATOP slower"],
    );
    for &batch in &CONV_BATCHES {
        let mut t = Table::new(
            format!("Fig. 5 — implicit CONV, batch {batch}"),
            &["layer", "swATOP GFLOPS", "swDNN GFLOPS", "speedup"],
        );
        let mut speedups = Vec::new();
        let mut slower = 0usize;
        // Collect the batch's layers first, then tune them sweep-parallel
        // (one worker per layer); results come back in input order.
        let mut names = Vec::new();
        let mut shapes = Vec::new();
        for net in Network::ALL {
            let layers = opts.sample(net.layers().to_vec(), 3, 6);
            for layer in &layers {
                names.push(format!("{}/{}", net.name(), layer.name));
                shapes.push(layer.shape(batch, opts.spatial_cap));
            }
        }
        let tuned = tune_conv_sweep(&cfg, ConvMethod::Implicit, &shapes, &opts.tune_options());
        for ((name, shape), ours) in names.into_iter().zip(&shapes).zip(tuned) {
            // The paper excludes each network's first layer (Ni = 3).
            let Some(ours) = ours else {
                continue;
            };
            let ours_g = ours.gflops(&cfg);
            match swdnn_implicit_conv(&cfg, shape) {
                Some(base) => {
                    let base_g = sw26010::clock::gflops(shape.flops(), base, cfg.clock_ghz);
                    let sp = base.get() as f64 / ours.cycles.get() as f64;
                    if sp < 1.0 {
                        slower += 1;
                    }
                    speedups.push(sp);
                    t.row(vec![
                        name,
                        format!("{ours_g:.0}"),
                        format!("{base_g:.0}"),
                        format!("{sp:.2}x"),
                    ]);
                }
                None => {
                    t.row(vec![
                        name,
                        format!("{ours_g:.0}"),
                        "n/a (no swDNN impl)".into(),
                        "∞".into(),
                    ]);
                }
            }
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
        } else {
            summary.row(vec![
                batch.to_string(),
                "0".into(),
                "n/a (swDNN has no batch-1 kernels)".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ]);
        }
        tables.push(t);
    }
    tables.push(summary);
    tables
}
