//! swATOP as an offline compiler: pre-generate near-optimal C code for a
//! set of operator configurations (the deployment mode of Sec. 1: "swATOP
//! can be used as an offline compiler by pre-generating near-optimal
//! executable code").
//!
//! ```sh
//! cargo run --release --example offline_codegen
//! ```
//!
//! Writes one `.c` file per tuned operator into `target/generated/`.

use std::fs;
use std::path::PathBuf;

use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::{ImplicitConvOp, MatmulOp};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::swtensor::ConvShape;

fn main() {
    let cfg = MachineConfig::default();
    let top3 = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    let out_dir = PathBuf::from("target/generated");
    fs::create_dir_all(&out_dir).expect("create output dir");

    let scheduler = Scheduler::new(cfg.clone());
    let mut emitted = Vec::new();

    // A small operator library to pre-compile.
    let gemms = [(256usize, 256usize, 256usize), (200, 500, 100)];
    for (m, n, k) in gemms {
        let op = MatmulOp::new(m, n, k);
        let cands = scheduler.enumerate(&op);
        let outcome = tune(&cfg, &cands, &top3, None).expect("tunable");
        let best = &cands[outcome.best];
        let path = out_dir.join(format!("{}.c", op.name()));
        fs::write(&path, best.exe.emit_c()).expect("write C file");
        emitted.push((op.name(), best.describe.clone(), outcome.cycles.get(), path));
    }

    let convs = [ConvShape::square(32, 64, 64, 16), ConvShape::square(1, 128, 64, 16)];
    for shape in convs {
        let op = ImplicitConvOp::new(shape);
        let cands = scheduler.enumerate(&op);
        let outcome = tune(&cfg, &cands, &top3, None).expect("tunable");
        let best = &cands[outcome.best];
        let path = out_dir.join(format!("{}.c", op.name()));
        fs::write(&path, best.exe.emit_c()).expect("write C file");
        emitted.push((op.name(), best.describe.clone(), outcome.cycles.get(), path));
    }

    println!("pre-generated {} kernels:", emitted.len());
    for (name, schedule, cycles, path) in &emitted {
        println!("  {name}: {cycles} cycles");
        println!("     schedule: {schedule}");
        println!("     code:     {}", path.display());
    }
    let (_, _, _, sample) = &emitted[0];
    let src = fs::read_to_string(sample).unwrap();
    println!("\n--- {} ---", sample.display());
    for line in src.lines().take(24) {
        println!("{line}");
    }
    println!("…");
}
