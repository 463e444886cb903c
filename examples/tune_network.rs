//! Tune a whole network: for every convolution layer of VGG16, tune all
//! applicable decompositions and pick the fastest — the paper's
//! "dynamically picks the optimal tensorized primitives according to
//! parameters" — then report the per-layer method table and total time.
//!
//! ```sh
//! cargo run --release --example tune_network          # batch 32, scaled
//! cargo run --release --example tune_network -- 1     # inference batch
//! ```

use swatop_repro::sw26010::{clock::gflops, Cycles, MachineConfig};
use swatop_repro::swatop::ops::{ExplicitConvOp, ImplicitConvOp, WinogradConvOp};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{self, TierPolicy, TuneOptions};
use swatop_repro::workloads::{vgg16_layers, ConvLayer};

const SPATIAL_CAP: usize = 28;

fn tune(cfg: &MachineConfig, op: &dyn Operator) -> Option<u64> {
    let cands = Scheduler::new(cfg.clone()).enumerate(op);
    let opts = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    Some(tuner::tune(cfg, &cands, &opts, None).ok()?.cycles.get())
}

fn tune_layer(cfg: &MachineConfig, layer: &ConvLayer, batch: usize) -> (String, u64, u64) {
    let shape = layer.shape(batch, Some(SPATIAL_CAP));
    let mut best: Option<(&str, u64)> = None;
    if ImplicitConvOp::applicable(&shape) {
        if let Some(c) = tune(cfg, &ImplicitConvOp::new(shape)) {
            best = Some(("implicit", c));
        }
    }
    if WinogradConvOp::applicable(&shape) {
        if let Some(c) = tune(cfg, &WinogradConvOp::new(shape)) {
            if best.is_none_or(|(_, b)| c < b) {
                best = Some(("winograd", c));
            }
        }
    }
    if let Some(c) = tune(cfg, &ExplicitConvOp::new(shape)) {
        if best.is_none_or(|(_, b)| c < b) {
            best = Some(("explicit", c));
        }
    }
    let (method, cycles) = best.expect("at least the explicit method applies");
    (method.to_string(), cycles, shape.flops())
}

fn main() {
    let batch: usize = std::env::args().nth(1).map_or(32, |a| a.parse().expect("batch"));
    let cfg = MachineConfig::default();
    println!(
        "tuning VGG16 at batch {batch} (feature maps capped at {SPATIAL_CAP}×{SPATIAL_CAP})\n"
    );
    println!("{:<10} {:>9} {:>14} {:>8} {:>7}", "layer", "method", "cycles", "GFLOPS", "eff");
    let mut total_cycles = 0u64;
    let mut total_flops = 0u64;
    for layer in vgg16_layers() {
        let (method, cycles, flops) = tune_layer(&cfg, layer, batch);
        let g = gflops(flops, Cycles(cycles), cfg.clock_ghz);
        println!(
            "{:<10} {:>9} {:>14} {:>8.0} {:>6.0}%",
            layer.name,
            method,
            cycles,
            g,
            100.0 * cfg.efficiency(flops, Cycles(cycles))
        );
        total_cycles += cycles;
        total_flops += flops;
    }
    println!(
        "\ntotal: {} cycles = {:.2} ms/batch on one CG ({:.0} GFLOPS sustained)",
        total_cycles,
        1e3 * cfg.seconds(Cycles(total_cycles)),
        gflops(total_flops, Cycles(total_cycles), cfg.clock_ghz)
    );
}
