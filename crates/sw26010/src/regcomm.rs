//! Register-communication cost model.
//!
//! The CPE mesh offers register-level data sharing: a CPE can broadcast a
//! 256-bit register to all CPEs in its row or column in a handful of cycles
//! (aggregate bandwidth 647.25 GB/s per cluster, Xu et al. 2017). The GEMM
//! micro-kernels consume this through the `vlddr`/`vlddc` (load-and-
//! broadcast a vector) and `vldder`/`vlddec` (load-scalar-extend-and-
//! broadcast) instructions, which the pipeline scoreboard costs directly.
//!
//! This module provides the standalone helpers used when reasoning about
//! panel rotation outside the scoreboard: switching the communication
//! pattern (row ↔ column) drains the bus and costs
//! [`REGCOMM_SWITCH`] cycles.

use crate::clock::Cycles;
use crate::{BCAST_LATENCY, MESH, REGCOMM_SWITCH};

/// Which mesh bus a broadcast travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BcastBus {
    Row,
    Column,
}

/// Cost of rotating through all 8 producers of a row/column panel: each of
/// the `MESH` steps re-targets the broadcast source, which costs a bus
/// turnaround on top of the per-vector costs already counted by the
/// scoreboard.
pub fn panel_rotation_overhead() -> Cycles {
    Cycles(REGCOMM_SWITCH.get() * MESH as u64)
}

/// Cycles for one leader CPE to scatter a just-arrived DMA panel to the
/// other `MESH - 1` CPEs on its row/column bus: one bus turnaround to claim
/// the bus, the initial mesh-traversal latency, then fully pipelined 256-bit
/// (4 × f32) register pushes — each recipient's `elems` elements stream past
/// every hop, so the bus is busy for `ceil(elems / 4)` cycles per recipient.
/// Used by broadcast-DMA tiling, where only the leader pays the DRAM cost
/// and the mesh fans the panel out.
pub fn dma_scatter_cycles(elems_per_cpe: usize) -> Cycles {
    if elems_per_cpe == 0 {
        return Cycles::ZERO;
    }
    let vectors = elems_per_cpe.div_ceil(4) as u64;
    Cycles(REGCOMM_SWITCH.get() + BCAST_LATENCY + vectors * (MESH as u64 - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_is_mesh_switches() {
        assert_eq!(panel_rotation_overhead().get(), REGCOMM_SWITCH.get() * 8);
    }

    #[test]
    fn scatter_scales_with_panel_and_is_free_when_empty() {
        assert_eq!(dma_scatter_cycles(0), Cycles::ZERO);
        let small = dma_scatter_cycles(4);
        let big = dma_scatter_cycles(400);
        // 99 extra vectors per recipient, 7 recipients on the bus.
        assert_eq!(big.get() - small.get(), 99 * 7);
        assert!(small.get() > REGCOMM_SWITCH.get());
    }
}
