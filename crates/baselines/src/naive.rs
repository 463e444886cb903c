//! Naive MAC-based direct convolution cost (the paper's Alg. 1 as a CPE
//! program): scalar multiply-accumulate, one MAC per cycle per CPE at
//! best, all input traffic through GL/GS-free DMA of whole rows.
//!
//! This is not one of the paper's measured baselines — it exists to anchor
//! the examples ("what does *no* tensorization cost?") and to sanity-check
//! that every tensorized method beats it comfortably.

use sw26010::{Cycles, MachineConfig, N_CPE, VMAD_LATENCY};
use swtensor::ConvShape;

/// Estimated cycles of the scalar MAC implementation.
///
/// Model: MACs spread over the 64 CPEs, one scalar MAC per cycle (no
/// vectorisation, no dual-issue benefit because every MAC chains through
/// the accumulator), plus streaming every input element from memory once
/// per filter tap (no SPM reuse).
pub fn naive_conv_cycles(cfg: &MachineConfig, shape: &ConvShape) -> Cycles {
    let macs = shape.macs();
    let compute = macs.div_ceil(N_CPE as u64) * VMAD_LATENCY;
    let traffic_bytes = macs * 4; // one re-fetched input element per MAC
    let dma = (traffic_bytes as f64 / cfg.mem_bytes_per_cycle).ceil() as u64;
    Cycles(compute.max(dma))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_is_much_slower_than_peak() {
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(8, 64, 64, 16);
        let naive = naive_conv_cycles(&cfg, &shape);
        // Peak tensorized time would be flops / (64·8) cycles.
        let ideal = shape.flops() / (64 * 8);
        assert!(naive.get() > 3 * ideal, "naive {} vs ideal {ideal}", naive.get());
    }

    #[test]
    fn scales_with_shape() {
        let cfg = MachineConfig::default();
        let small = naive_conv_cycles(&cfg, &ConvShape::square(1, 16, 16, 8));
        let big = naive_conv_cycles(&cfg, &ConvShape::square(2, 16, 16, 8));
        assert!(big.get() >= 2 * small.get() - 1);
    }
}
