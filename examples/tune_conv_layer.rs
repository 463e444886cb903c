//! Tune one CNN convolution layer with all three decompositions and
//! compare against the handcrafted baselines — a single-layer slice of the
//! paper's Figs. 5–7.
//!
//! ```sh
//! cargo run --release --example tune_conv_layer
//! ```

use swatop_repro::baselines::{swdnn_implicit_conv, xmath_explicit_conv, xmath_winograd_conv};
use swatop_repro::sw26010::{clock::gflops, MachineConfig};
use swatop_repro::swatop::ops::{ExplicitConvOp, ImplicitConvOp, WinogradConvOp};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{self, TierPolicy, TuneOptions};
use swatop_repro::swtensor::ConvShape;
use swatop_repro::workloads::vgg16_layers;

fn tune(cfg: &MachineConfig, op: &dyn Operator) -> Option<(u64, usize)> {
    let cands = Scheduler::new(cfg.clone()).enumerate(op);
    let opts = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    let outcome = tuner::tune(cfg, &cands, &opts, None).ok()?;
    Some((outcome.cycles.get(), cands.len()))
}

fn main() {
    let cfg = MachineConfig::default();
    // VGG16 conv4_2 (512→512 channels) at training batch 32, spatially
    // scaled to keep the simulation quick (see DESIGN.md on scaling).
    let layer = &vgg16_layers()[8];
    let shape: ConvShape = layer.shape(32, Some(28));
    println!("layer {} → shape {shape:?}", layer.name);
    println!("direct-conv FLOPs: {:.2} G\n", shape.flops() as f64 / 1e9);

    let flops = shape.flops();
    let report = |what: &str, cycles: u64, space: usize, base: Option<u64>| {
        let g = gflops(flops, swatop_repro::sw26010::Cycles(cycles), cfg.clock_ghz);
        let vs = base
            .map(|b| format!(", {:.2}x vs handcrafted", b as f64 / cycles as f64))
            .unwrap_or_else(|| ", no handcrafted version exists".into());
        println!("{what:<10} {cycles:>12} cycles  {g:>5.0} GFLOPS  (space {space}){vs}");
    };

    if let Some((cycles, space)) = tune(&cfg, &ImplicitConvOp::new(shape)) {
        let base = swdnn_implicit_conv(&cfg, &shape).map(|c| c.get());
        report("implicit", cycles, space, base);
    }
    if WinogradConvOp::applicable(&shape) {
        if let Some((cycles, space)) = tune(&cfg, &WinogradConvOp::new(shape)) {
            let base = xmath_winograd_conv(&cfg, &shape).ok().map(|c| c.get());
            report("winograd", cycles, space, base);
        }
    }
    if let Some((cycles, space)) = tune(&cfg, &ExplicitConvOp::new(shape)) {
        let base = xmath_explicit_conv(&cfg, &shape).ok().map(|c| c.get());
        report("explicit", cycles, space, base);
    }

    // Batch-1 inference: swDNN has no implicit kernel, swATOP fills the gap.
    let inf_shape = layer.shape(1, Some(28));
    println!("\nbatch-1 inference:");
    if let Some((cycles, space)) = tune(&cfg, &ImplicitConvOp::new(inf_shape)) {
        assert!(swdnn_implicit_conv(&cfg, &inf_shape).is_none());
        report("implicit", cycles, space, None);
    }
}
