//! # swatop — the automated operator-optimization framework
//!
//! This crate is the paper's primary contribution: an end-to-end automated
//! framework that takes a tensorized operator description (DSL seed +
//! schedule space) and produces near-optimal executable code for the
//! (simulated) SW26010 core group.
//!
//! Pipeline (paper Fig. 3):
//!
//! ```text
//! DSL ──► Scheduler ──► IR ──► IR optimizer ──► Autotuner ──► Code generator
//!          (enumerate    │     (DMA inference,   (performance   (SPM coalescing,
//!           schedule     │      auto-prefetch,    model or       C emission,
//!           strategies)  │      boundary)         black-box)     machine program)
//! ```
//!
//! * [`scheduler`] enumerates every [`swatop_dsl::SchedulePoint`] of an
//!   operator's space, lowers valid points to IR and rejects candidates that
//!   violate machine constraints (SPM capacity, mesh divisibility, vector
//!   width).
//! * [`optimizer`] holds the three IR optimizations highlighted in Sec. 4.5:
//!   DMA inference, memory-latency hiding (double buffering with
//!   next-iteration inference) and boundary processing.
//! * [`model`] implements the static performance model: Eq. (1) for the DMA
//!   engine and the fitted linear Eq. (2) for the GEMM primitives, combined
//!   as `T_overall = max(T_DMA, T_compute)` under prefetching.
//! * [`tuner`] is the autotuner: one [`tuner::tune`] whose policy ranges from
//!   the performance-model-based "pick the top k" to the brute-force sweep
//!   it is compared against (Tab. 3, Fig. 9).
//! * [`codegen`] plans the coalesced SPM allocation, emits C-like source
//!   (the offline-compiler output) and produces an [`codegen::Executable`]
//!   the interpreter can run on a [`sw26010::CoreGroup`].
//! * [`ops`] is the operator library: matrix multiplication plus the three
//!   convolution decompositions (implicit-GEMM, explicit-GEMM, Winograd).
//! * [`telemetry`] records tuning spans, machine counters and model
//!   accuracy; [`observatory`] folds them into roofline metrics and a
//!   deterministic bottleneck attribution per executed candidate.

//! ```
//! use sw26010::MachineConfig;
//! use swatop::ops::MatmulOp;
//! use swatop::scheduler::{Operator, Scheduler};
//! use swatop::tuner::{tune, TierPolicy, TuneOptions};
//!
//! let cfg = MachineConfig::default();
//! let op = MatmulOp::new(64, 64, 64);
//! let candidates = Scheduler::new(cfg.clone()).enumerate(&op);
//! // Screen the space analytically, execute only the model's top 3.
//! let opts = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
//! let outcome = tune(&cfg, &candidates, &opts, None).unwrap();
//! assert!(outcome.cycles.get() > 0);
//! // The winner is executable C, too:
//! assert!(candidates[outcome.best].exe.emit_c().contains("spm_gemm("));
//! ```

pub mod chip;
pub mod codegen;
pub mod interp;
pub mod model;
pub mod observatory;
pub mod profiler;
pub mod ops;
pub mod optimizer;
pub mod scheduler;
pub mod telemetry;
pub mod tuner;

pub use codegen::Executable;
pub use interp::{execute, Binding};
pub use observatory::{Attribution, Bottleneck, BottleneckMix, MetricSet, Peaks};
pub use scheduler::{Candidate, Scheduler};
pub use telemetry::{Telemetry, TuneTelemetry};
pub use tuner::{tune, TierMode, TierPolicy, TuneOutcome};
