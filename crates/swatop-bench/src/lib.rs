//! # swatop-bench — the evaluation harness behind `swatop_cli`
//!
//! Each table and figure of the paper's evaluation section is one module of
//! [`experiments`], run by `swatop_cli experiments`; this library also holds
//! the bench journal, the flight report, the table formatting, summary
//! statistics and experiment-runner plumbing. See `DESIGN.md` for the
//! per-experiment index.

pub mod experiments;
pub mod flight;
pub mod journal;
pub mod report;
pub mod runner;

pub use report::{roofline_table, telemetry_summary, Table};
pub use runner::{
    tune_conv, tune_conv_sweep, tune_gemm, tune_gemm_sweep, tune_op, ConvMethod, TunedOp,
};
