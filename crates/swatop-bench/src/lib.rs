//! # swatop-bench — shared harness utilities for the experiment binaries
//!
//! Each table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`; this library holds the table formatting, summary
//! statistics and experiment-runner plumbing they share. See `DESIGN.md`
//! for the per-experiment index.

pub mod experiments;
pub mod flight;
pub mod journal;
pub mod report;
pub mod runner;

pub use report::{fmt_speedup, roofline_table, telemetry_summary, Table};
pub use runner::{
    tune_conv, tune_conv_sweep, tune_gemm, tune_gemm_sweep, tune_op, ConvMethod, TunedOp,
};
