//! Quickstart: tune a matrix multiplication with swATOP and inspect what
//! the framework produced.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full pipeline of the paper's Fig. 3: DSL seed + schedule
//! space → scheduler → IR optimizer → performance-model autotuner → code
//! generator, and verifies the chosen schedule functionally against a host
//! reference.

use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::{verify_candidate, MatmulOp};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};

fn main() {
    let cfg = MachineConfig::default();

    // An unaligned GEMM — boundary processing included.
    let (m, n, k) = (500, 500, 500);
    let op = MatmulOp::new(m, n, k);
    println!("operator: {}", op.name());
    println!("\nDSL schedule seed:\n{}", op.seed().describe());
    println!("schedule space: {} points", op.space().size());

    // Scheduler: enumerate + lower + optimize every valid schedule.
    let scheduler = Scheduler::new(cfg.clone());
    let candidates = scheduler.enumerate(&op);
    println!("valid candidates after filtering: {}", candidates.len());

    // Autotuner: the static performance model picks; only the winner runs.
    let opts = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    let outcome = tune(&cfg, &candidates, &opts, None).expect("tuning succeeds");
    let best = &candidates[outcome.best];
    println!("\nmodel-chosen schedule: {}", best.describe);
    println!("simulated time: {} cycles = {:.3} ms on the 1.45 GHz CG",
        outcome.cycles.get(), 1e3 * cfg.seconds(outcome.cycles));
    let gflops = swatop_repro::sw26010::clock::gflops(op.flops(), outcome.cycles, cfg.clock_ghz);
    println!("throughput: {gflops:.0} GFLOPS ({:.0}% of the CG's 742 GFLOPS peak)",
        100.0 * cfg.efficiency(op.flops(), outcome.cycles));
    println!("tuning wall time: {:?} ({} candidates estimated, {} executed)",
        outcome.wall, candidates.len(), outcome.executed);

    // The machine model is functional: run the winner with real data and
    // compare against the host reference GEMM.
    let err = verify_candidate(&cfg, &op, best).expect("functional run succeeds");
    println!("\nfunctional check vs host reference: max |err| = {err:.2e}");
    assert!(err < 1e-3, "schedule must compute the right answer");

    // The offline-compiler output: C source for the chosen schedule.
    let c_src = best.exe.emit_c();
    let preview: String = c_src.lines().take(18).collect::<Vec<_>>().join("\n");
    println!("\ngenerated C (first lines):\n{preview}\n…");
}
