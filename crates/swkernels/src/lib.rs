//! # swkernels — hardware-dependent tensorized primitives
//!
//! This crate is the *hardware-dependent* half of swATOP's separation of
//! concerns: the hand-optimised GEMM micro-kernels of the paper's Appendix,
//! expressed against the simulated SW26010 core group.
//!
//! `spm_gemm` computes `C += A·B` where all three matrices live **in the
//! SPMs**, partitioned 8×8 across the CPE mesh (Fig. 12 of the paper):
//! CPE `(r,c)` holds block `(r,c)` of each matrix. The kernel
//!
//! * fetches remote panels by **register communication** (row broadcast for
//!   A, column broadcast for B),
//! * **vectorises** along either the M or the N loop (the `swVecDim`
//!   parameter of the paper's interface),
//! * keeps a **4×4 register block** of C vectors resident across the K loop,
//! * and **software-pipelines** the two issue pipes so that the 16 `vmad`s
//!   of one step dual-issue with the broadcast loads of the next.
//!
//! There are **eight variants** (A layout × B layout × vectorised dim); the
//! cycle cost of each is obtained from the dual-issue scoreboard of the
//! `sw26010` crate by simulating the actual instruction schedule, memoised
//! per `(variant, Mb, Nb, Kb)` query and per distinct register block
//! ([`cost`]). This simulated cost is the ground truth that swATOP's fitted
//! Eq. (2) model approximates.

pub mod cost;
pub mod microkernel;
pub mod spm_gemm;
pub mod variant;

pub use cost::{gemm_cycles, gemm_flops, gemm_intensity, gemm_operand_bytes};
pub use spm_gemm::{spm_gemm, spm_gemm_priced, GemmPrice, SpmMatrix};
pub use variant::{GemmVariant, VecDim, ALL_VARIANTS};
