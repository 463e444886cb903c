//! Aggregate per-execution machine counters.
//!
//! Every [`CoreGroup`](crate::CoreGroup) carries a [`Counters`] block that
//! the machine primitives increment unconditionally as a program runs: DMA
//! payload/bus traffic and batch counts, stall cycles burnt waiting on
//! reply words, register-communication broadcast loads, per-CPE pipeline
//! issue counts and the SPM high-water mark. The increments are plain
//! integer adds on an inline `Copy` struct — no allocation, no branching on
//! a "telemetry enabled" flag — so cost-only candidate evaluation in the
//! autotuner pays nothing measurable for them and stays bit-deterministic.
//!
//! The counters answer the observability question behind the paper's
//! Sec. 4 analysis: *why* is a schedule slow — DMA-bound (high
//! `dma_stall_cycles`, low [`Counters::dma_efficiency`]), issue-bound
//! (high [`Counters::issue_slot_utilization`]), or SPM-capacity-limited
//! (high `spm_high_water_elems`)? Tuning telemetry surfaces them per
//! candidate.

/// Machine counters accumulated over one execution (or merged over many).
///
/// Pipeline issue counts (`issue_p0`, `issue_p1`, `regcomm_broadcasts`) are
/// *per-CPE*: the 64 CPEs run in lockstep and execute identical instruction
/// streams, so the per-CPE figure is also the utilization-relevant one. DMA
/// byte/batch counts are cluster aggregates, matching the single shared DMA
/// engine. `spm_high_water_elems` is the largest SPM extent (offset + span,
/// in f32 elements) any primitive touched on any CPE.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Useful DMA bytes moved (requested payload).
    pub dma_payload_bytes: u64,
    /// Bytes occupied on the DRAM bus (payload rounded up to transactions).
    pub dma_bus_bytes: u64,
    /// DMA batches issued.
    pub dma_batches: u64,
    /// Cycles the compute stream stalled in `dma_wait` for unfinished
    /// transfers (0 under perfect prefetch overlap).
    pub dma_stall_cycles: u64,
    /// `dma_wait` calls performed.
    pub dma_waits: u64,
    /// GEMM kernel invocations.
    pub kernel_calls: u64,
    /// Cycles spent inside GEMM kernels.
    pub kernel_cycles: u64,
    /// Floating-point operations performed by GEMM kernels (2·M·N·K per
    /// call). Auxiliary transforms are accounted as cycles, not flops, so
    /// this matches the paper's direct-normalised numerator.
    pub flops: u64,
    /// Cycles spent in auxiliary compute (transforms, padding copies).
    pub compute_cycles: u64,
    /// Per-CPE P0 (floating-point/vector) instructions issued.
    pub issue_p0: u64,
    /// Per-CPE P1 (memory/register-comm) instructions issued.
    pub issue_p1: u64,
    /// Per-CPE register-communication broadcast loads (a subset of
    /// `issue_p1`): row/column broadcasts feeding the GEMM micro-kernel.
    pub regcomm_broadcasts: u64,
    /// Broadcast DMA batches: batches where one leader CPE per mesh
    /// row/column fetched the whole line's panels and scattered them over
    /// the register-communication bus (a subset of `dma_batches`).
    pub dma_bcast_batches: u64,
    /// Bytes forwarded over the register-communication mesh by broadcast-DMA
    /// scatters (leader → 7 peers; not DRAM bus traffic).
    pub regcomm_bytes: u64,
    /// Largest SPM extent touched, in f32 elements (high-water mark; merged
    /// with `max`, not `+`).
    pub spm_high_water_elems: u64,
}

impl Counters {
    /// The counter names in declaration order: the key order of every JSON
    /// export and the column order of the feature corpus.
    pub const NAMES: [&'static str; 15] = [
        "dma_payload_bytes",
        "dma_bus_bytes",
        "dma_batches",
        "dma_stall_cycles",
        "dma_waits",
        "kernel_calls",
        "kernel_cycles",
        "flops",
        "compute_cycles",
        "issue_p0",
        "issue_p1",
        "regcomm_broadcasts",
        "dma_bcast_batches",
        "regcomm_bytes",
        "spm_high_water_elems",
    ];

    /// The counters in [`Counters::NAMES`] order.
    pub fn values(&self) -> [u64; 15] {
        [
            self.dma_payload_bytes,
            self.dma_bus_bytes,
            self.dma_batches,
            self.dma_stall_cycles,
            self.dma_waits,
            self.kernel_calls,
            self.kernel_cycles,
            self.flops,
            self.compute_cycles,
            self.issue_p0,
            self.issue_p1,
            self.regcomm_broadcasts,
            self.dma_bcast_batches,
            self.regcomm_bytes,
            self.spm_high_water_elems,
        ]
    }

    /// Accumulate another counter block into this one: sums everywhere,
    /// `max` for the SPM high-water mark.
    pub fn merge(&mut self, o: &Counters) {
        *self = self.combine(o, |a, b| a + b);
    }

    /// What was counted between `earlier` and `self`, a later reading of
    /// the same run; the high-water mark is `self`'s.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.combine(earlier, |a, b| a - b)
    }

    /// Add `n` times the tallies `d` — `n` repetitions of a stretch of
    /// execution that counted `d` ([`Counters::since`]). The high-water mark
    /// is a `max`, not a sum: repeating a stretch reaches no further than
    /// the stretch did.
    pub fn add_scaled(&mut self, d: &Counters, n: u64) {
        *self = self.combine(d, |a, b| a + n * b);
    }

    /// `f` over every summed counter, `max` over the high-water mark.
    fn combine(&self, o: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            dma_payload_bytes: f(self.dma_payload_bytes, o.dma_payload_bytes),
            dma_bus_bytes: f(self.dma_bus_bytes, o.dma_bus_bytes),
            dma_batches: f(self.dma_batches, o.dma_batches),
            dma_stall_cycles: f(self.dma_stall_cycles, o.dma_stall_cycles),
            dma_waits: f(self.dma_waits, o.dma_waits),
            kernel_calls: f(self.kernel_calls, o.kernel_calls),
            kernel_cycles: f(self.kernel_cycles, o.kernel_cycles),
            flops: f(self.flops, o.flops),
            compute_cycles: f(self.compute_cycles, o.compute_cycles),
            issue_p0: f(self.issue_p0, o.issue_p0),
            issue_p1: f(self.issue_p1, o.issue_p1),
            regcomm_broadcasts: f(self.regcomm_broadcasts, o.regcomm_broadcasts),
            dma_bcast_batches: f(self.dma_bcast_batches, o.dma_bcast_batches),
            regcomm_bytes: f(self.regcomm_bytes, o.regcomm_bytes),
            spm_high_water_elems: self.spm_high_water_elems.max(o.spm_high_water_elems),
        }
    }

    /// Raise the SPM high-water mark to at least `elems`.
    #[inline]
    pub fn note_spm_use(&mut self, elems: u64) {
        if elems > self.spm_high_water_elems {
            self.spm_high_water_elems = elems;
        }
    }

    /// Payload bytes per bus byte: 1.0 for perfectly transaction-aligned
    /// transfers, lower when strided blocks waste bus transactions
    /// (Eq. 1's `ceil(block/transaction)` effect). 1.0 when no DMA ran.
    pub fn dma_efficiency(&self) -> f64 {
        if self.dma_bus_bytes == 0 {
            1.0
        } else {
            self.dma_payload_bytes as f64 / self.dma_bus_bytes as f64
        }
    }

    /// Fraction of dual-issue slots filled during kernel execution:
    /// `(P0 + P1 issues) / (2 · kernel cycles)`. 0.0 when no kernel ran.
    pub fn issue_slot_utilization(&self) -> f64 {
        if self.kernel_cycles == 0 {
            0.0
        } else {
            (self.issue_p0 + self.issue_p1) as f64 / (2.0 * self.kernel_cycles as f64)
        }
    }
}

/// A JSON object keyed by [`Counters::NAMES`].
impl crate::json::Value for Counters {
    fn write_json(&self, w: &mut crate::json::Writer) {
        w.begin_obj();
        for (name, v) in Self::NAMES.iter().zip(self.values()) {
            w.field(name, v);
        }
        w.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_values_follow_the_declaration() {
        let c = Counters {
            dma_payload_bytes: 1,
            dma_bus_bytes: 2,
            dma_batches: 3,
            dma_stall_cycles: 4,
            dma_waits: 5,
            kernel_calls: 6,
            kernel_cycles: 7,
            flops: 8,
            compute_cycles: 9,
            issue_p0: 10,
            issue_p1: 11,
            regcomm_broadcasts: 12,
            dma_bcast_batches: 13,
            regcomm_bytes: 14,
            spm_high_water_elems: 15,
        };
        assert_eq!(c.values(), std::array::from_fn(|i| i as u64 + 1));
        // `{:?}` prints the fields as declared: the names are those, in order.
        let debug = format!("{c:?}");
        let at: Vec<usize> = Counters::NAMES
            .iter()
            .zip(c.values())
            .map(|(name, v)| debug.find(&format!("{name}: {v}")).expect(name))
            .collect();
        assert!(at.is_sorted(), "{debug}");
        assert_eq!(std::mem::size_of::<Counters>(), 15 * 8);
        let json = crate::json::to_string(c);
        assert!(json.starts_with("{\"dma_payload_bytes\":1,\"dma_bus_bytes\":2,"), "{json}");
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Counters {
            dma_payload_bytes: 100,
            dma_bus_bytes: 128,
            dma_batches: 1,
            dma_stall_cycles: 10,
            dma_waits: 1,
            kernel_calls: 2,
            kernel_cycles: 1000,
            flops: 4096,
            compute_cycles: 50,
            issue_p0: 800,
            issue_p1: 600,
            regcomm_broadcasts: 500,
            dma_bcast_batches: 2,
            regcomm_bytes: 700,
            spm_high_water_elems: 4096,
        };
        let b = Counters { spm_high_water_elems: 2048, dma_batches: 3, ..a };
        a.merge(&b);
        assert_eq!(a.dma_payload_bytes, 200);
        assert_eq!(a.dma_batches, 4);
        assert_eq!(a.kernel_cycles, 2000);
        assert_eq!(a.flops, 8192);
        assert_eq!(a.dma_bcast_batches, 4);
        assert_eq!(a.regcomm_bytes, 1400);
        assert_eq!(a.spm_high_water_elems, 4096, "high water merges with max");
        let mut c = Counters::default();
        c.merge(&b);
        assert_eq!(c.spm_high_water_elems, 2048);
    }

    #[test]
    fn a_repeated_stretch_adds_its_tallies_and_keeps_the_high_water_mark() {
        let before = Counters {
            dma_batches: 4,
            kernel_cycles: 100,
            spm_high_water_elems: 900,
            ..Counters::default()
        };
        let after =
            Counters { dma_batches: 7, kernel_cycles: 160, spm_high_water_elems: 1000, ..before };
        let d = after.since(&before);
        assert_eq!((d.dma_batches, d.kernel_cycles, d.spm_high_water_elems), (3, 60, 1000));
        let mut run = after;
        run.add_scaled(&d, 5);
        assert_eq!((run.dma_batches, run.kernel_cycles), (7 + 15, 160 + 300));
        assert_eq!(run.spm_high_water_elems, 1000, "a max, not a sum");
        // Three repeats one at a time are one scaled add of three.
        let mut one_by_one = after;
        (0..3).for_each(|_| one_by_one.merge(&d));
        let mut at_once = after;
        at_once.add_scaled(&d, 3);
        assert_eq!(one_by_one, at_once);
    }

    #[test]
    fn derived_ratios() {
        let c = Counters {
            dma_payload_bytes: 96,
            dma_bus_bytes: 128,
            kernel_cycles: 100,
            issue_p0: 100,
            issue_p1: 60,
            ..Counters::default()
        };
        assert!((c.dma_efficiency() - 0.75).abs() < 1e-12);
        assert!((c.issue_slot_utilization() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_have_safe_ratios() {
        let c = Counters::default();
        assert_eq!(c.dma_efficiency(), 1.0);
        assert_eq!(c.issue_slot_utilization(), 0.0);
    }

    #[test]
    fn note_spm_use_is_monotone() {
        let mut c = Counters::default();
        c.note_spm_use(100);
        c.note_spm_use(50);
        assert_eq!(c.spm_high_water_elems, 100);
        c.note_spm_use(200);
        assert_eq!(c.spm_high_water_elems, 200);
    }
}
