//! # sw26010 — a deterministic machine model of one SW26010 core group
//!
//! The SW26010 many-core processor (Sunway TaihuLight) is not available in
//! this environment, so this crate substitutes a *simulated* core group (CG)
//! built from the architectural facts published in the swATOP paper (ICPP
//! 2019, Sec. 2 and Appendix) and its citations:
//!
//! * 64 computing processing elements (CPEs) arranged as an 8×8 mesh, each
//!   with a 64 KB software-managed scratch pad memory (SPM);
//! * a DMA engine moving data between main memory and the SPMs, in units of
//!   128-byte DRAM transactions, with continuous and strided access modes and
//!   asynchronous completion through *reply words*;
//! * a register-communication mesh offering low-latency row/column broadcast
//!   between CPEs;
//! * two in-order issue pipelines per CPE — P0 for floating-point (incl.
//!   256-bit vector MAC) and P1 for memory operations — modelled by a
//!   dual-issue scoreboard.
//!
//! The model is **bit-deterministic** and offers two execution modes:
//!
//! * [`ExecMode::Functional`] — data is really moved and computed on, so the
//!   correctness of generated schedules (DMA offsets, layouts, boundary
//!   handling) is observable;
//! * [`ExecMode::CostOnly`] — only the cycle clocks advance, which is what
//!   autotuners measure.
//!
//! ```
//! use sw26010::{CoreGroup, ExecMode, DmaDirection, DmaRequest};
//!
//! // Move 64 floats into CPE 3's scratch pad and back.
//! let mut cg = CoreGroup::with_mode(ExecMode::Functional);
//! let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
//! let src = cg.mem.alloc_from("src", &data);
//! let dst = cg.mem.alloc("dst", 64);
//! let (b_src, b_dst) = (cg.mem.base(src), cg.mem.base(dst));
//! let reply = cg.alloc_reply();
//! cg.dma(DmaDirection::MemToSpm,
//!        &[DmaRequest::contiguous(3, DmaDirection::MemToSpm, b_src, 0, 64)], reply).unwrap();
//! cg.dma_wait(reply, 1).unwrap();
//! cg.dma(DmaDirection::SpmToMem,
//!        &[DmaRequest::contiguous(3, DmaDirection::SpmToMem, b_dst, 0, 64)], reply).unwrap();
//! cg.dma_wait(reply, 1).unwrap();
//! assert_eq!(cg.mem.buffer(dst), data.as_slice());
//! assert!(cg.now().get() > 0); // the transfers cost simulated time
//! ```
//!
//! Time is counted in [`Cycles`] of the 1.45 GHz CPE clock. Overlap between
//! DMA and computation arises naturally: DMA issue reserves the (shared)
//! engine and records a completion time in the reply word; a later
//! [`CoreGroup::dma_wait`] advances the compute clock only if the transfer
//! has not finished yet. Double buffering therefore *actually* hides latency
//! in this model, exactly the effect the paper's Fig. 10 measures.
//!
//! A DMA batch has one way through the machine. Whoever priced it —
//! [`CoreGroup::dma`] and [`CoreGroup::dma_bcast`] from request structures,
//! one [`DmaRequest::bus_bytes`] call each, or the caller of
//! [`CoreGroup::dma_priced`] by its own means — it is a [`DmaBatch`], and one
//! private function takes the chain flag, charges the issue cost, draws from
//! the fault session, schedules the engine ([`dma::DmaEngine::schedule`]),
//! updates [`Counters`], pushes the trace events and records the completion
//! on the reply word. The workspace's `tests/evaluator_equiv.rs` issues the
//! same batches through every entry — fresh and chained, traced and not — and
//! compares clock, counters, completion time and trace events.

pub mod clock;
pub mod config;
pub mod counters;
pub mod dma;
pub mod error;
pub mod fault;
pub mod json;
pub mod mem;
pub mod pipeline;
pub mod profile;
pub mod regcomm;
pub mod spm;
pub mod trace;

pub mod cluster;

pub use clock::Cycles;
pub use cluster::{CoreGroup, ExecMode, Snapshot};
pub use config::MachineConfig;
pub use counters::Counters;
pub use dma::{DmaBatch, DmaDirection, DmaRequest, ReplyWord};
pub use error::{MachineError, MachineResult};
pub use fault::{FaultPlan, FaultSession};
pub use mem::{BufferId, MainMemory};
pub use pipeline::{Instruction, Pipe, Scoreboard};
pub use spm::Spm;

/// Number of CPEs in one core group.
pub const N_CPE: usize = 64;
/// Mesh side: the CPE cluster is an 8×8 grid.
pub const MESH: usize = 8;
/// Size of one f32 element in bytes.
pub const ELEM_BYTES: usize = 4;
/// Scratch-pad memory per CPE in bytes: the SW26010's 64 KB, and
/// [`MachineConfig`]'s default.
pub const SPM_BYTES: usize = 64 * 1024;

// The kernel timings of the one chip whose hand-written micro-kernels the
// scoreboard simulates. They are constants, so Eq. (2) is fitted once per
// process and no cache is keyed on them.

/// Latency of a vectorised fused multiply-add (`vmad`) on pipeline P0.
pub const VMAD_LATENCY: u64 = 7;
/// Latency of an SPM vector load (`vldd`) on pipeline P1.
pub const VLDD_LATENCY: u64 = 4;
/// Latency of a load-and-broadcast over the row/column communication bus
/// (`vlddr`/`vlddc`/`vldder`/`vlddec`): SPM read plus mesh traversal.
pub const BCAST_LATENCY: u64 = 11;
/// Latency of an SPM vector store (`vstd`).
pub const VSTD_LATENCY: u64 = 2;
/// Extra cycles to switch the register-communication pattern
/// (row-broadcast ↔ column-broadcast), paid between K-panels.
pub const REGCOMM_SWITCH: Cycles = Cycles(32);
/// Fixed per-call overhead of a GEMM primitive invocation (argument setup,
/// register save/restore). Part of Eq. (2)'s δ term.
pub const KERNEL_CALL_OVERHEAD: Cycles = Cycles(140);

/// Row id of a CPE within the 8×8 mesh.
#[inline]
pub fn rid(cpe: usize) -> usize {
    cpe / MESH
}

/// Column id of a CPE within the 8×8 mesh.
#[inline]
pub fn cid(cpe: usize) -> usize {
    cpe % MESH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_ids_cover_grid() {
        let mut seen = [[false; MESH]; MESH];
        for cpe in 0..N_CPE {
            seen[rid(cpe)][cid(cpe)] = true;
        }
        assert!(seen.iter().flatten().all(|&b| b));
    }
}
