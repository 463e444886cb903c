//! A full training step for one convolution layer: forward, backward-data
//! and backward-filter, all tuned by swATOP, plus the whole-chip
//! data-parallel view.
//!
//! ```sh
//! cargo run --release --example train_step
//! ```

use swatop_repro::sw26010::{clock::gflops, MachineConfig};
use swatop_repro::swatop::chip::run_conv_data_parallel;
use swatop_repro::swatop::ops::{
    verify_candidate, ConvBackwardDataOp, ConvBackwardFilterOp, ImplicitConvOp,
};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::swtensor::ConvShape;

/// Screen the whole space analytically, execute only the model's top 3.
fn top3() -> TuneOptions {
    TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() }
}

fn tune_and_check(cfg: &MachineConfig, op: &dyn Operator) -> (u64, f64) {
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(op);
    let outcome = tune(cfg, &cands, &top3(), None).expect("tunable");
    let err = verify_candidate(cfg, op, &cands[outcome.best]).expect("runs");
    assert!(err < 1e-2, "{}: err {err}", op.name());
    (
        outcome.cycles.get(),
        gflops(op.flops(), outcome.cycles, cfg.clock_ghz),
    )
}

fn main() {
    let cfg = MachineConfig::default();
    // A ResNet-style 3×3 layer, scaled for simulation speed.
    let shape = ConvShape { b: 8, ni: 32, no: 32, ro: 14, co: 14, kr: 3, kc: 3, stride: 1, pad: 1 };
    println!("training step for {shape:?}\n");

    let (fwd, fwd_g) = tune_and_check(&cfg, &ImplicitConvOp::new(shape));
    println!("forward          {fwd:>12} cycles  {fwd_g:>5.0} GFLOPS (implicit, verified)");
    let (bwd_d, bd_g) = tune_and_check(&cfg, &ConvBackwardDataOp::new(shape));
    println!("backward-data    {bwd_d:>12} cycles  {bd_g:>5.0} GFLOPS (verified)");
    let (bwd_f, bf_g) = tune_and_check(&cfg, &ConvBackwardFilterOp::new(shape));
    println!("backward-filter  {bwd_f:>12} cycles  {bf_g:>5.0} GFLOPS (verified)");

    let total = fwd + bwd_d + bwd_f;
    println!(
        "\nstep total: {total} cycles = {:.3} ms on one core group",
        1e3 * cfg.seconds(swatop_repro::sw26010::Cycles(total))
    );

    // Whole-chip deployment: batch split across the four core groups.
    let big = ConvShape { b: 32, ..shape };
    let build = |s| Box::new(ImplicitConvOp::new(s)) as Box<dyn Operator>;
    if let Some(chip) = run_conv_data_parallel(&cfg, &big, build, &top3()) {
        println!(
            "\nchip-level forward at batch {}: shards {:?}, {:.0} GFLOPS aggregate \
             ({:.0}% of the 3.06 TFLOPS peak)",
            big.b,
            chip.shards,
            chip.gflops(&cfg),
            100.0 * chip.efficiency(&cfg)
        );
    }
}
