//! Figures 5–7: each tensorized CONV decomposition against its hand-written
//! library on the conv layers of VGG16, ResNet and YOLO at batch 1/32/128.
//!
//! The three figures share one loop, `layers_vs_library`; each renders
//! its rows with its own headers and summary. Paper findings to reproduce
//! in shape:
//!
//! * **Fig. 5, implicit CONV vs swDNN.** swDNN has no batch-1
//!   implementation; swATOP bridges the gap with performance comparable to
//!   its big-batch results. For batch 32/128 swATOP is **always** faster,
//!   average speedups ≈1.44 and ≈1.32.
//! * **Fig. 6, Winograd CONV vs 16×xMath**, on the layers where the method
//!   applies (3×3, stride 1): average speedups ≈2.20 / 2.35 / 2.33 at batch
//!   1/32/128. swATOP fuses the 16 transform-domain multiplications into
//!   one tuned batched schedule while the baseline makes 16 padded library
//!   calls.
//! * **Fig. 7, explicit CONV vs xMath explicit.** swATOP wins most cases
//!   (40/29/32 of 43 across batches) with a long tail of large wins (best
//!   ≈15×); the cases it loses are large square-ish GEMMs that match
//!   xMath's fixed blocking.

use sw26010::Cycles;
use swtensor::ConvShape;
use workloads::{Network, CONV_BATCHES};

use crate::report::{mean, Table};
use crate::runner::{tune_conv_sweep, ConvMethod, TunedOp};

use super::{library, machine, Opts};

/// One network layer tuned by swATOP, beside its library.
struct Layer {
    name: String,
    shape: ConvShape,
    /// `None` where the method applies but its space has no candidate.
    ours: Option<TunedOp>,
    /// The library's cycles; `None` where it has no kernel for the layer.
    library: Option<Cycles>,
}

impl Layer {
    /// How many times faster swATOP runs the layer than the library.
    fn speedup(&self) -> Option<f64> {
        let ours = self.ours.as_ref()?;
        self.library.map(|base| base.get() as f64 / ours.cycles.get() as f64)
    }
}

/// Per batch of [`CONV_BATCHES`], the sampled layers of the three networks
/// that `method` applies to, in network order, each with its library's
/// cycles. Layers the method does not apply to are left out, as the paper
/// excludes each network's first layer (Ni = 3); a layer it applies to but
/// cannot tune stays, without a tuned result.
fn layers_vs_library(opts: &Opts, method: ConvMethod) -> Vec<(usize, Vec<Layer>)> {
    let cfg = machine();
    let mut batches = Vec::new();
    for &batch in &CONV_BATCHES {
        let mut named = Vec::new();
        for net in Network::ALL {
            for layer in opts.sample(net.layers().to_vec(), 3) {
                let shape = layer.shape(batch, opts.spatial_cap());
                named.push((format!("{}/{}", net.name(), layer.name), shape));
            }
        }
        let shapes: Vec<ConvShape> = named.iter().map(|&(_, shape)| shape).collect();
        // One worker per layer; results come back in input order.
        let tuned = tune_conv_sweep(&cfg, method, &shapes, &opts.tune_options());
        let layers = named
            .into_iter()
            .zip(tuned)
            .filter(|((_, shape), _)| method.applicable(shape))
            .map(|((name, shape), ours)| {
                Layer { name, shape, ours, library: library(&cfg, method, &shape) }
            })
            .collect();
        batches.push((batch, layers));
    }
    batches
}

/// One batch's table: a row per layer, `n/a` where the library has no
/// kernel (only swDNN at batch 1 has none; Figs. 6 and 7 drop such layers)
/// and `no candidate` where swATOP has no schedule.
fn layer_table(title: String, header: &[&str], layers: &[Layer]) -> Table {
    let cfg = machine();
    let mut t = Table::new(title, header);
    for l in layers {
        let base = match l.library {
            Some(base) => {
                format!("{:.0}", sw26010::clock::gflops(l.shape.flops(), base, cfg.clock_ghz))
            }
            None => "n/a (no swDNN impl)".into(),
        };
        let (ours, speedup) = match (&l.ours, l.speedup()) {
            (None, _) => ("no candidate".into(), "-".into()),
            (Some(ours), Some(sp)) => (format!("{:.0}", ours.gflops(&cfg)), format!("{sp:.2}x")),
            (Some(ours), None) => (format!("{:.0}", ours.gflops(&cfg)), "∞".into()),
        };
        t.row(vec![l.name.clone(), ours, base, speedup]);
    }
    t
}

/// The layers' speedups over their library, in table order.
fn speedups(layers: &[Layer]) -> Vec<f64> {
    layers.iter().filter_map(Layer::speedup).collect()
}

/// How many of the layers swATOP could not tune.
fn untuned(layers: &[Layer]) -> usize {
    layers.iter().filter(|l| l.ours.is_none()).count()
}

/// Figs. 5 and 6's summary header.
const SPEEDUP_SUMMARY: [&str; 7] =
    ["batch", "layers", "avg speedup", "min", "max", "swATOP slower", "no candidate"];

/// A [`SPEEDUP_SUMMARY`] row: count, average, min and max speedup, the
/// layers swATOP runs slower and those it cannot tune; `None` without a
/// speedup.
fn speedup_row(batch: usize, speedups: &[f64], untuned: usize) -> Option<Vec<String>> {
    if speedups.is_empty() {
        return None;
    }
    Some(vec![
        batch.to_string(),
        speedups.len().to_string(),
        format!("{:.2}x", mean(speedups)),
        format!("{:.2}x", speedups.iter().cloned().fold(f64::MAX, f64::min)),
        format!("{:.2}x", speedups.iter().cloned().fold(0.0, f64::max)),
        speedups.iter().filter(|&&sp| sp < 1.0).count().to_string(),
        untuned.to_string(),
    ])
}

/// Figure 5: implicit CONV vs swDNN.
pub fn fig5(opts: &Opts) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut summary =
        Table::new("Fig. 5 summary — implicit CONV speedup over swDNN", &SPEEDUP_SUMMARY);
    for (batch, layers) in layers_vs_library(opts, ConvMethod::Implicit) {
        let title = format!("Fig. 5 — implicit CONV, batch {batch}");
        let header = ["layer", "swATOP GFLOPS", "swDNN GFLOPS", "speedup"];
        tables.push(layer_table(title, &header, &layers));
        let untuned = untuned(&layers);
        summary.row(speedup_row(batch, &speedups(&layers), untuned).unwrap_or_else(|| {
            let na = "n/a (swDNN has no batch-1 kernels)";
            vec![
                batch.to_string(),
                "0".into(),
                na.into(),
                "-".into(),
                "-".into(),
                "0".into(),
                untuned.to_string(),
            ]
        }));
    }
    tables.push(summary);
    tables
}

/// Figure 6: Winograd CONV vs the xMath-GEMM-based Winograd (16 library
/// calls); FLOPS are direct-convolution FLOPs per second.
pub fn fig6(opts: &Opts) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut summary =
        Table::new("Fig. 6 summary — Winograd CONV speedup over 16×xMath", &SPEEDUP_SUMMARY);
    for (batch, mut layers) in layers_vs_library(opts, ConvMethod::Winograd) {
        layers.retain(|l| l.library.is_some());
        let title = format!("Fig. 6 — Winograd CONV, batch {batch}");
        let header = ["layer", "swATOP GFLOPS*", "baseline GFLOPS*", "speedup"];
        tables.push(layer_table(title, &header, &layers));
        if let Some(row) = speedup_row(batch, &speedups(&layers), untuned(&layers)) {
            summary.row(row);
        }
    }
    tables.push(summary);
    tables
}

/// Figure 7: explicit CONV vs the xMath-GEMM-based explicit convolution.
pub fn fig7(opts: &Opts) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut summary = Table::new(
        "Fig. 7 summary — explicit CONV vs xMath explicit",
        &["batch", "layers", "faster", "slower", "avg speedup", "best", "no candidate"],
    );
    for (batch, mut layers) in layers_vs_library(opts, ConvMethod::Explicit) {
        layers.retain(|l| l.library.is_some());
        let title = format!("Fig. 7 — explicit CONV, batch {batch}");
        let header = ["layer", "swATOP GFLOPS", "baseline GFLOPS", "speedup"];
        tables.push(layer_table(title, &header, &layers));
        let speedups = speedups(&layers);
        if !speedups.is_empty() {
            let slower = speedups.iter().filter(|&&sp| sp < 1.0).count();
            summary.row(vec![
                batch.to_string(),
                speedups.len().to_string(),
                (speedups.len() - slower).to_string(),
                slower.to_string(),
                format!("{:.2}x", mean(&speedups)),
                format!("{:.2}x", speedups.iter().cloned().fold(0.0, f64::max)),
                untuned(&layers).to_string(),
            ]);
        }
    }
    tables.push(summary);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_layer_without_a_candidate_keeps_its_row_and_is_counted() {
        let layer = |name: &str| Layer {
            name: name.into(),
            shape: ConvShape::square(32, 8, 8, 7),
            ours: None,
            library: Some(Cycles(1_000)),
        };
        let layers = [layer("net/a"), layer("net/b")];
        let text = layer_table("t".into(), &["layer", "ours", "base", "x"], &layers).render();
        assert!(text.contains("| net/b | no candidate |"), "{text}");
        assert_eq!(untuned(&layers), 2);
        let row = speedup_row(32, &[1.5], untuned(&layers)).expect("one speedup");
        assert_eq!(row.last().map(String::as_str), Some("2"));
    }
}
