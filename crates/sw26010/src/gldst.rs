//! Global load/store (gld/gst): the CPE's *other* path to main memory.
//!
//! Besides the DMA engine, a CPE can address main memory directly with
//! global load/store instructions. The Stream Triad benchmark the paper
//! cites (Xu/Lin/Matsuoka 2017) measures **1.48 GB/s** for gld/gst against
//! **22.6 GB/s** for DMA — a ~15× gap that is the reason "exploring
//! utilization of DMA is important in optimization" and why no generated
//! schedule in this reproduction uses gld/gst for bulk data.
//!
//! The model is provided for quantifying that design rule: a per-element
//! cost derived from the measured bandwidth.

use crate::clock::Cycles;
use crate::config::MachineConfig;

/// Measured aggregate gld/gst bandwidth (bytes/second) from the cited
/// benchmark: 1.48 GB/s.
pub const GLDST_BW_BYTES_PER_SEC: f64 = 1.48e9;

/// Cycles for one CPE to move `elems` f32 elements over gld/gst.
pub fn gldst_cycles(cfg: &MachineConfig, elems: usize) -> Cycles {
    let bytes = (elems * crate::ELEM_BYTES) as f64;
    let secs = bytes / GLDST_BW_BYTES_PER_SEC;
    Cycles((secs * cfg.clock_ghz * 1e9).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::{DmaBatch, DmaDirection, DmaRequest};
    use crate::MachineConfig;

    #[test]
    fn gldst_is_an_order_of_magnitude_slower_than_dma() {
        // The design rule the paper states, as an assertion: moving the
        // same 64 KB through gld/gst vs the DMA engine.
        let cfg = MachineConfig::default();
        let elems = 16 * 1024;
        let gld = gldst_cycles(&cfg, elems);
        let req = [DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, elems)];
        let batch = DmaBatch::of(&cfg, DmaDirection::MemToSpm, &req, &req).unwrap();
        let dma = crate::dma::DmaEngine::new().schedule(&cfg, Cycles(0), &batch, false);
        assert!(
            gld.get() > 10 * dma.get(),
            "gld {gld} must be ≫ dma {dma} (the paper's 1.48 vs 22.6 GB/s)"
        );
    }

    #[test]
    fn cost_scales_linearly() {
        let cfg = MachineConfig::default();
        let one = gldst_cycles(&cfg, 256).get();
        let four = gldst_cycles(&cfg, 1024).get();
        assert!((four as f64 / one as f64 - 4.0).abs() < 0.05);
    }
}
