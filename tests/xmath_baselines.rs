//! The xMath baselines' cycles, pinned on one small shape each. The
//! baselines are hand-built programs that `tuner::run_program` runs
//! single-buffered, as the library does; a move here changes a baseline
//! every paper comparison reads, and must be meant.

use swatop_repro::baselines::xmath::gemm_program;
use swatop_repro::baselines::{xmath_explicit_conv, xmath_gemm, xmath_winograd_conv};
use swatop_repro::sw26010::{Cycles, MachineConfig};
use swatop_repro::swatop::optimizer::{optimize, prefetch::apply_double_buffering};
use swatop_repro::swtensor::ConvShape;

#[test]
fn baseline_cycles_are_pinned() {
    let cfg = MachineConfig::default();
    let conv = ConvShape::square(2, 16, 16, 8);
    // 183,437 cycles if its K loop were double-buffered.
    assert_eq!(xmath_gemm(&cfg, 64, 64, 512).unwrap(), Cycles(190_577));
    // 146,293 before im2col read each input element once per band.
    assert_eq!(xmath_explicit_conv(&cfg, &conv).unwrap(), Cycles(143_695));
    assert_eq!(xmath_winograd_conv(&cfg, &conv).unwrap(), Cycles(2_418_331));
}

#[test]
fn the_gemm_runs_single_buffered() {
    let optimized = optimize(gemm_program(64, 64, 512).unwrap(), false);
    assert!(!optimized.body.uses_double_slot());
    // Not vacuous: the rewrite would double its K loop's tiles.
    assert!(apply_double_buffering(optimized).body.uses_double_slot());
}
