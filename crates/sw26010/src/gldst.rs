//! Global load/store (gld/gst): the CPE's *other* path to main memory.
//!
//! Besides the DMA engine, a CPE can address main memory directly with
//! global load/store instructions. The Stream Triad benchmark the paper
//! cites (Xu/Lin/Matsuoka 2017) measures **1.48 GB/s** for gld/gst against
//! **22.6 GB/s** for DMA — a ~15× gap that is the reason "exploring
//! utilization of DMA is important in optimization" and why no generated
//! schedule in this reproduction uses gld/gst for bulk data.
//!
//! The model is provided for completeness and for quantifying that design
//! rule: a per-element cost derived from the measured bandwidth, plus the
//! functional transfer.

use crate::clock::Cycles;
use crate::config::MachineConfig;
use crate::error::MachineResult;
use crate::{CoreGroup, ExecMode};

/// Measured aggregate gld/gst bandwidth (bytes/second) from the cited
/// benchmark: 1.48 GB/s.
pub const GLDST_BW_BYTES_PER_SEC: f64 = 1.48e9;

/// Cycles for one CPE to move `elems` f32 elements over gld/gst.
pub fn gldst_cycles(cfg: &MachineConfig, elems: usize) -> Cycles {
    let bytes = (elems * crate::ELEM_BYTES) as f64;
    let secs = bytes / GLDST_BW_BYTES_PER_SEC;
    Cycles((secs * cfg.clock_ghz * 1e9).ceil() as u64)
}

/// Functionally load `elems` elements from main memory (absolute offset)
/// into a CPE's SPM through global loads, charging the gld/gst cost on the
/// compute clock (the transfer is synchronous — no engine, no overlap).
pub fn gld_to_spm(
    cg: &mut CoreGroup,
    cpe: usize,
    mem_offset: usize,
    spm_offset: usize,
    elems: usize,
) -> MachineResult<()> {
    let cost = gldst_cycles(&cg.cfg, elems);
    cg.compute(cost, "gld");
    if cg.mode() == ExecMode::Functional {
        cg.mem.check_abs(mem_offset, elems)?;
        let data: Vec<f32> = cg.mem.arena()[mem_offset..mem_offset + elems].to_vec();
        cg.spm_mut(cpe).slice_mut(spm_offset, elems)?.copy_from_slice(&data);
    } else {
        cg.spm(cpe).check_range(spm_offset, elems)?;
    }
    Ok(())
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
    fn functional_gld_moves_data_and_costs_time() {
        let mut cg = CoreGroup::with_mode(ExecMode::Functional);
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let buf = cg.mem.alloc_from("x", &data);
        let base = cg.mem.base(buf);
        let before = cg.now();
        gld_to_spm(&mut cg, 9, base, 0, 32).unwrap();
        assert!(cg.now() > before);
        assert_eq!(cg.spm(9).load(31).unwrap(), 31.0);
    }

    #[test]
    fn cost_scales_linearly() {
        let cfg = MachineConfig::default();
        let one = gldst_cycles(&cfg, 256).get();
        let four = gldst_cycles(&cfg, 1024).get();
        assert!((four as f64 / one as f64 - 4.0).abs() < 0.05);
    }
}
