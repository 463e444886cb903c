//! Machine configuration: clocks, bandwidths, capacities and DMA latencies
//! of the simulated core group. The kernel timings are crate constants
//! ([`crate::VMAD_LATENCY`] and its neighbours).
//!
//! Default values come from the swATOP paper (Sec. 2) and the SW26010
//! benchmarking literature it cites: 1.45 GHz CPE clock, 34 GB/s theoretical
//! memory bandwidth per core group (136 GB/s for four CGs), 22.6 GB/s
//! achievable DMA bandwidth, 128-byte DRAM transactions, 64 KB SPM per CPE,
//! 647 GB/s aggregate register-communication bandwidth per cluster.

use crate::clock::Cycles;
use crate::fault::FaultPlan;
use crate::{ELEM_BYTES, N_CPE};

/// Fraction of the theoretical memory bandwidth the DMA engine can actually
/// sustain: 22.6 GB/s of 34 GB/s per core group (paper Sec. 2).
pub const DMA_ACHIEVABLE_FRACTION: f64 = 22.6 / 34.0;

/// Static description of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// CPE clock frequency in GHz.
    pub clock_ghz: f64,
    /// SPM capacity per CPE in bytes.
    pub spm_bytes: usize,
    /// DRAM transaction granularity in bytes; partial touches still transfer
    /// the full transaction ("even if just 1 byte of a transaction is
    /// touched, the entire transaction will be transferred").
    pub dram_transaction_bytes: usize,
    /// Theoretical peak main-memory bandwidth of one CG in bytes/cycle.
    pub mem_bytes_per_cycle: f64,
    /// Fixed start-up latency of one DMA batch (descriptor setup, engine
    /// arbitration). This is the `T_latency` term of the paper's Eq. (1).
    pub dma_startup: Cycles,
    /// Per-block descriptor-processing overhead inside the DMA engine.
    /// Strided transfers with many small blocks pay this repeatedly, which is
    /// why real SW26010 codes prefer large contiguous blocks.
    pub dma_block_overhead: Cycles,
    /// Compute-pipeline cost of *issuing* an asynchronous DMA (the CPE-side
    /// instruction cost; the transfer itself proceeds in the background).
    pub dma_issue_cost: Cycles,
    /// Cost of a `dma_wait` poll when the transfer already completed.
    pub dma_wait_poll: Cycles,
    /// Cost of launching a CPE kernel (athread spawn + join). Launching is
    /// expensive on SW26010 (tens of microseconds), which is one reason
    /// fused generated code beats a sequence of library calls.
    pub kernel_launch: Cycles,
    /// Cost of *signalling* an already-resident CPE kernel (warm wake of a
    /// parked athread group: MPE writes the argument block and rings a
    /// doorbell, the spin-waiting CPEs pick it up). Tuned operators keep the
    /// athread group resident across invocations, so measured candidates pay
    /// this per call instead of the cold [`MachineConfig::kernel_launch`];
    /// library-call baselines respawn per call and still pay the full
    /// launch.
    pub kernel_signal: Cycles,
    /// Optional fault-injection plan simulating flaky hardware (transient
    /// DMA failures, SPM capacity pressure, cycle-measurement jitter).
    /// `None` — the default — keeps the machine perfect and deterministic in
    /// the PR-1 sense; `Some` keeps it deterministic too, but per
    /// `(seed, run, attempt)` as documented in [`FaultPlan::session`].
    pub fault: Option<FaultPlan>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            clock_ghz: 1.45,
            spm_bytes: crate::SPM_BYTES,
            dram_transaction_bytes: 128,
            // 34 GB/s per CG at 1.45 GHz ⇒ 23.45 bytes per cycle.
            mem_bytes_per_cycle: 34.0e9 / 1.45e9,
            dma_startup: Cycles(600),
            dma_block_overhead: Cycles(4),
            dma_issue_cost: Cycles(24),
            dma_wait_poll: Cycles(8),
            kernel_launch: Cycles(120_000),
            kernel_signal: Cycles(2_000),
            fault: None,
        }
    }
}

impl MachineConfig {
    /// Peak single-precision throughput of the CG in FLOPS: 64 CPEs × one
    /// 4-wide FMA per cycle (8 flops).
    pub fn peak_flops(&self) -> f64 {
        (N_CPE * 8) as f64 * self.clock_ghz * 1e9
    }

    /// Peak memory bandwidth of the CG in bytes/second.
    pub fn peak_bw_bytes_per_sec(&self) -> f64 {
        self.mem_bytes_per_cycle * self.clock_ghz * 1e9
    }

    /// *Achievable* DMA bandwidth in bytes/second: the SW26010 literature
    /// measures 22.6 GB/s of the 34 GB/s theoretical peak actually reachable
    /// through the DMA engine. Expressed as a fixed fraction of the
    /// theoretical peak so it scales with a re-configured machine; this is
    /// the bandwidth roof the observatory's roofline analysis uses.
    pub fn dma_achievable_bytes_per_sec(&self) -> f64 {
        self.peak_bw_bytes_per_sec() * DMA_ACHIEVABLE_FRACTION
    }

    /// SPM capacity per CPE in f32 elements.
    pub fn spm_elems(&self) -> usize {
        self.spm_bytes / ELEM_BYTES
    }

    /// Convert a cycle count into seconds on this machine.
    pub fn seconds(&self, c: Cycles) -> f64 {
        c.seconds_at(self.clock_ghz)
    }

    /// Efficiency (fraction of peak) achieved by `flops` in `cycles`.
    pub fn efficiency(&self, flops: u64, cycles: Cycles) -> f64 {
        if cycles.get() == 0 {
            return 0.0;
        }
        flops as f64 / self.seconds(cycles) / self.peak_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_peaks_match_paper() {
        let c = MachineConfig::default();
        // One CG: 742.4 GFLOPS single precision; 34 GB/s.
        assert!((c.peak_flops() / 1e9 - 742.4).abs() < 0.1);
        assert!((c.peak_bw_bytes_per_sec() / 1e9 - 34.0).abs() < 1e-9);
        assert!((c.dma_achievable_bytes_per_sec() / 1e9 - 22.6).abs() < 1e-9);
        assert_eq!(c.spm_elems(), 16 * 1024);
    }

    #[test]
    fn efficiency_at_peak_is_one() {
        let c = MachineConfig::default();
        let cycles = Cycles(1000);
        let flops = (N_CPE * 8 * 1000) as u64;
        assert!((c.efficiency(flops, cycles) - 1.0).abs() < 1e-12);
    }
}
