//! The performance observatory: derived metrics and roofline bottleneck
//! attribution.
//!
//! The machine counters ([`sw26010::Counters`]) say *what happened* during
//! a candidate execution; this module turns them into *answers*:
//!
//! 1. **Derived-metrics registry** — [`derive()`] folds a counter block plus
//!    the execution's cycle count into a [`MetricSet`]: achieved GFLOPS and
//!    % of the 742.4 GFLOPS/CG peak, effective DMA bandwidth and % of the
//!    22.6 GB/s achievable peak, arithmetic intensity against the roofline
//!    ridge, per-pipe issue-slot utilisation, stall fraction and SPM
//!    occupancy. The schema ([`SCHEMA`]) is a fixed, ordered `name → f64`
//!    table — [`MetricSet::to_json`] never reorders, drops or renames
//!    entries, so downstream readers can rely on it. Every value is
//!    finite by construction (degenerate inputs clamp to 0 or the
//!    documented neutral value); NaN/Infinity never reach an export.
//! 2. **Bottleneck attribution** — [`classify`] deterministically assigns
//!    each executed candidate one of four classes
//!    ([`Bottleneck`]): `dma` / `compute` / `stall` / `spm-capacity`,
//!    reproducing the paper's Fig. 9-style DMA-vs-compute analysis per
//!    candidate. The decision rules (documented on [`classify`] and in
//!    DESIGN.md §10) are pure functions of the deterministic counters, so
//!    the class is bit-identical across worker counts.
//!
//! The observatory is read-only over data the machine model already
//! collects: attaching it changes no tuning result, and with telemetry
//! disabled it costs nothing at all.

use sw26010::json::{self, Value, Writer};
use sw26010::{Counters, MachineConfig};

/// The peak figures a roofline is drawn against, extracted once from a
/// [`MachineConfig`]. Defaults (the paper's machine): 742.4 GFLOPS/CG,
/// 34 GB/s theoretical / 22.6 GB/s achievable DMA bandwidth, 64 KB SPM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peaks {
    /// CPE clock in GHz (converts cycles to seconds).
    pub clock_ghz: f64,
    /// Peak single-precision compute throughput in GFLOPS.
    pub gflops: f64,
    /// Achievable DMA bandwidth in GB/s (the roofline's bandwidth roof).
    pub dma_gbps: f64,
    /// SPM capacity per CPE in bytes.
    pub spm_bytes: f64,
}

impl Peaks {
    pub fn of(cfg: &MachineConfig) -> Peaks {
        Peaks {
            clock_ghz: cfg.clock_ghz,
            gflops: cfg.peak_flops() / 1e9,
            dma_gbps: cfg.dma_achievable_bytes_per_sec() / 1e9,
            spm_bytes: cfg.spm_bytes as f64,
        }
    }

    /// Achievable DMA bytes per CPE-clock cycle.
    fn dma_bytes_per_cycle(&self) -> f64 {
        self.dma_gbps / self.clock_ghz
    }

    /// Roofline ridge point in flops/byte: intensities below it are
    /// bandwidth-limited, above it compute-limited.
    pub fn ridge_intensity(&self) -> f64 {
        self.gflops / self.dma_gbps
    }
}

/// What limits a candidate's performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bottleneck {
    /// DMA traffic dominates: the compute stream visibly stalls on
    /// transfers, or moving the bytes takes longer than computing on them.
    Dma,
    /// The issue pipes are busy: performance tracks the compute roof.
    Compute,
    /// Pipes are mostly idle without DMA pressure: dependency/latency
    /// stalls inside the micro-kernel (small fringe tiles, switch costs).
    Stall,
    /// Memory-dominated *and* the scratch pad is already nearly full:
    /// capacity caps the tile size, and with it the arithmetic intensity.
    SpmCapacity,
}

impl Bottleneck {
    /// Stable lower-case name used in every export and table.
    pub fn name(self) -> &'static str {
        match self {
            Bottleneck::Dma => "dma",
            Bottleneck::Compute => "compute",
            Bottleneck::Stall => "stall",
            Bottleneck::SpmCapacity => "spm-capacity",
        }
    }

    /// Parse a [`Bottleneck::name`] back (journal readers).
    pub fn parse(s: &str) -> Option<Bottleneck> {
        match s {
            "dma" => Some(Bottleneck::Dma),
            "compute" => Some(Bottleneck::Compute),
            "stall" => Some(Bottleneck::Stall),
            "spm-capacity" => Some(Bottleneck::SpmCapacity),
            _ => None,
        }
    }
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Classification thresholds (pure constants so the attribution is a
/// documented, reproducible function — see DESIGN.md §10).
pub mod thresholds {
    /// A candidate is memory-dominated when at least this fraction of its
    /// cycles stalled in `dma_wait`…
    pub const DMA_STALL_FRAC: f64 = 0.10;
    /// …or when its issue pipes fill at least this fraction of dual-issue
    /// slots (compute-bound).
    pub const ISSUE_UTIL_COMPUTE: f64 = 0.50;
    /// SPM occupancy at or above this fraction marks a memory-dominated
    /// candidate spm-capacity-bound instead of plain dma-bound.
    pub const SPM_OCCUPANCY: f64 = 0.75;
}

/// One metric of the registry.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable snake_case key.
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
}

/// The derived-metric schema, in export order. Append-only: adding a metric
/// is backwards-compatible, renaming or reordering is not.
pub const SCHEMA: &[MetricDef] = &[
    MetricDef { name: "cycles", help: "Simulated cycles of the execution" },
    MetricDef { name: "flops", help: "Floating-point operations performed by GEMM kernels" },
    MetricDef { name: "achieved_gflops", help: "Achieved GFLOPS over the whole execution" },
    MetricDef { name: "pct_peak_gflops", help: "Achieved GFLOPS as % of the CG compute peak" },
    MetricDef { name: "dma_payload_bytes", help: "Useful DMA bytes moved" },
    MetricDef { name: "dma_bus_bytes", help: "Bytes occupied on the DRAM bus" },
    MetricDef {
        name: "dma_effective_gbps",
        help: "Effective DMA bandwidth (bus bytes over wall cycles) in GB/s",
    },
    MetricDef {
        name: "pct_peak_dma_bw",
        help: "Effective DMA bandwidth as % of the achievable 22.6 GB/s peak",
    },
    MetricDef { name: "dma_efficiency", help: "Payload bytes per bus byte (1.0 = aligned)" },
    MetricDef {
        name: "arithmetic_intensity",
        help: "Flops per DRAM bus byte (0 when no DMA ran)",
    },
    MetricDef {
        name: "ridge_intensity",
        help: "Roofline ridge point of the machine in flops/byte",
    },
    MetricDef {
        name: "roofline_gflops",
        help: "Roofline bound at this intensity: min(peak, intensity × DMA peak)",
    },
    MetricDef { name: "pct_roofline", help: "Achieved GFLOPS as % of the roofline bound" },
    MetricDef {
        name: "dma_stall_frac",
        help: "Fraction of cycles the compute stream stalled in dma_wait",
    },
    MetricDef {
        name: "dma_busy_frac",
        help: "Bus traffic over achievable bandwidth, as a fraction of wall cycles",
    },
    MetricDef { name: "kernel_frac", help: "Fraction of cycles inside GEMM kernels" },
    MetricDef {
        name: "aux_compute_frac",
        help: "Fraction of cycles in auxiliary compute (transforms, padding)",
    },
    MetricDef { name: "issue_util_p0", help: "P0 (FP/vector) issue-slot utilisation" },
    MetricDef { name: "issue_util_p1", help: "P1 (memory/regcomm) issue-slot utilisation" },
    MetricDef { name: "issue_slot_util", help: "Combined dual-issue slot utilisation" },
    MetricDef { name: "spm_high_water_bytes", help: "Largest SPM extent touched, in bytes" },
    MetricDef { name: "spm_occupancy", help: "SPM high water as a fraction of capacity" },
    MetricDef {
        name: "overlap_efficiency",
        help: "Fraction of hideable DMA bus time actually hidden behind compute",
    },
];

/// Index of `name` in [`SCHEMA`].
fn schema_index(name: &str) -> Option<usize> {
    SCHEMA.iter().position(|d| d.name == name)
}

/// A filled metric schema: one finite `f64` per [`SCHEMA`] entry, in schema
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    values: Vec<f64>,
}

impl MetricSet {
    /// Value of a metric by schema name.
    pub fn get(&self, name: &str) -> Option<f64> {
        schema_index(name).map(|i| self.values[i])
    }

    /// `(name, value)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        SCHEMA.iter().zip(&self.values).map(|(d, &v)| (d.name, v))
    }

    /// JSON object `{"cycles":…, …}` in schema order.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl Value for MetricSet {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj();
        for (name, v) in self.iter() {
            w.field(name, v);
        }
        w.end_obj();
    }
}

/// Safe ratio: 0 when the denominator is not positive.
fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold a counter block and its execution's cycle count into the derived
/// metric schema. Pure and total: any input (including all-zero counters)
/// produces finite values.
pub fn derive(peaks: &Peaks, cycles: u64, c: &Counters) -> MetricSet {
    let secs = cycles as f64 / (peaks.clock_ghz * 1e9);
    let achieved_gflops = frac(c.flops as f64 / 1e9, secs);
    let dma_effective_gbps = frac(c.dma_bus_bytes as f64 / 1e9, secs);
    let intensity = frac(c.flops as f64, c.dma_bus_bytes as f64);
    // No DMA traffic ⇒ the bandwidth roof is irrelevant; the roofline bound
    // is the compute peak.
    let roofline_gflops = if c.dma_bus_bytes == 0 {
        peaks.gflops
    } else {
        peaks.gflops.min(intensity * peaks.dma_gbps)
    };
    let cyc = cycles as f64;
    let kernel_cyc = c.kernel_cycles as f64;
    let mut values = vec![0.0; SCHEMA.len()];
    let mut set = |name: &str, v: f64| {
        let i = schema_index(name).expect("metric in schema");
        values[i] = if v.is_finite() { v } else { 0.0 };
    };
    set("cycles", cyc);
    set("flops", c.flops as f64);
    set("achieved_gflops", achieved_gflops);
    set("pct_peak_gflops", 100.0 * frac(achieved_gflops, peaks.gflops));
    set("dma_payload_bytes", c.dma_payload_bytes as f64);
    set("dma_bus_bytes", c.dma_bus_bytes as f64);
    set("dma_effective_gbps", dma_effective_gbps);
    set("pct_peak_dma_bw", 100.0 * frac(dma_effective_gbps, peaks.dma_gbps));
    set("dma_efficiency", c.dma_efficiency());
    set("arithmetic_intensity", intensity);
    set("ridge_intensity", peaks.ridge_intensity());
    set("roofline_gflops", roofline_gflops);
    set("pct_roofline", 100.0 * frac(achieved_gflops, roofline_gflops));
    set("dma_stall_frac", frac(c.dma_stall_cycles as f64, cyc));
    set("dma_busy_frac", frac(c.dma_bus_bytes as f64 / peaks.dma_bytes_per_cycle(), cyc));
    set("kernel_frac", frac(kernel_cyc, cyc));
    set("aux_compute_frac", frac(c.compute_cycles as f64, cyc));
    set("issue_util_p0", frac(c.issue_p0 as f64, kernel_cyc));
    set("issue_util_p1", frac(c.issue_p1 as f64, kernel_cyc));
    set("issue_slot_util", c.issue_slot_utilization());
    set("spm_high_water_bytes", (c.spm_high_water_elems * 4) as f64);
    set("spm_occupancy", frac((c.spm_high_water_elems * 4) as f64, peaks.spm_bytes));
    // Overlap efficiency: of the DMA bus time that *could* hide behind
    // compute (bounded by whichever of the two is shorter), how much did?
    // Bus time not spent stalling the compute stream counts as hidden.
    let dma_busy = c.dma_bus_bytes as f64 / peaks.dma_bytes_per_cycle();
    let compute_total = kernel_cyc + c.compute_cycles as f64;
    let max_overlap = dma_busy.min(compute_total);
    let achieved = (dma_busy - c.dma_stall_cycles as f64).clamp(0.0, max_overlap);
    set("overlap_efficiency", if max_overlap > 0.0 { achieved / max_overlap } else { 1.0 });
    MetricSet { values }
}

/// Deterministically classify what bounds an execution, from its derived
/// metrics. Decision rules, applied in order:
///
/// 1. *Memory-dominated?* — the compute stream stalled in `dma_wait` for at
///    least [`thresholds::DMA_STALL_FRAC`] of the run, **or** pushing the
///    observed bus traffic through the achievable DMA bandwidth takes
///    longer than the run's kernel + auxiliary compute time (transfers were
///    the long pole even if prefetching hid the stalls).
///    * SPM occupancy ≥ [`thresholds::SPM_OCCUPANCY`] ⇒
///      [`Bottleneck::SpmCapacity`] (the tile already fills the scratch
///      pad; only more capacity would raise intensity);
///    * otherwise ⇒ [`Bottleneck::Dma`].
/// 2. Not memory-dominated and dual-issue utilisation ≥
///    [`thresholds::ISSUE_UTIL_COMPUTE`] ⇒ [`Bottleneck::Compute`].
/// 3. Otherwise ⇒ [`Bottleneck::Stall`] (pipes idle without DMA pressure:
///    dependency latency, fringe tiles, switch overhead).
pub fn classify_metrics(m: &MetricSet) -> Bottleneck {
    let get = |n: &str| m.get(n).expect("schema metric");
    let memory_dominated = get("dma_stall_frac") >= thresholds::DMA_STALL_FRAC
        || get("dma_busy_frac") > get("kernel_frac") + get("aux_compute_frac");
    if memory_dominated {
        if get("spm_occupancy") >= thresholds::SPM_OCCUPANCY {
            Bottleneck::SpmCapacity
        } else {
            Bottleneck::Dma
        }
    } else if get("issue_slot_util") >= thresholds::ISSUE_UTIL_COMPUTE {
        Bottleneck::Compute
    } else {
        Bottleneck::Stall
    }
}

/// [`derive()`] + [`classify_metrics`] in one step.
pub fn classify(peaks: &Peaks, cycles: u64, c: &Counters) -> Bottleneck {
    classify_metrics(&derive(peaks, cycles, c))
}

/// Full attribution of one execution: the derived metrics and the
/// bottleneck class they imply.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub metrics: MetricSet,
    pub bottleneck: Bottleneck,
}

/// Attribute one execution (the per-candidate unit the tables, span args
/// and journal records are built from).
pub fn attribute(peaks: &Peaks, cycles: u64, c: &Counters) -> Attribution {
    let metrics = derive(peaks, cycles, c);
    let bottleneck = classify_metrics(&metrics);
    Attribution { metrics, bottleneck }
}

/// Bottleneck class counts over a set of executed candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BottleneckMix {
    pub dma: usize,
    pub compute: usize,
    pub stall: usize,
    pub spm_capacity: usize,
}

impl BottleneckMix {
    pub fn note(&mut self, b: Bottleneck) {
        match b {
            Bottleneck::Dma => self.dma += 1,
            Bottleneck::Compute => self.compute += 1,
            Bottleneck::Stall => self.stall += 1,
            Bottleneck::SpmCapacity => self.spm_capacity += 1,
        }
    }

    pub fn total(&self) -> usize {
        self.dma + self.compute + self.stall + self.spm_capacity
    }

    /// The most common class; ties break in [`Bottleneck`] declaration
    /// order (dma > compute > stall > spm-capacity). `None` when empty.
    pub fn dominant(&self) -> Option<Bottleneck> {
        if self.total() == 0 {
            return None;
        }
        let counts = [
            (self.dma, Bottleneck::Dma),
            (self.compute, Bottleneck::Compute),
            (self.stall, Bottleneck::Stall),
            (self.spm_capacity, Bottleneck::SpmCapacity),
        ];
        // max_by_key keeps the *last* maximum; scanning reversed makes ties
        // resolve to the earliest-declared class.
        counts.iter().rev().max_by_key(|(n, _)| *n).map(|&(_, b)| b)
    }

    /// Compact human rendering, e.g. `dma 12 / compute 3 / stall 1 / spm 0`.
    pub fn summary(&self) -> String {
        format!(
            "dma {} / compute {} / stall {} / spm {}",
            self.dma, self.compute, self.stall, self.spm_capacity
        )
    }
}

/// `{"dma":…,"compute":…,"stall":…,"spm_capacity":…}`.
impl Value for BottleneckMix {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj()
            .field("dma", self.dma)
            .field("compute", self.compute)
            .field("stall", self.stall)
            .field("spm_capacity", self.spm_capacity)
            .end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peaks() -> Peaks {
        Peaks::of(&MachineConfig::default())
    }

    #[test]
    fn schema_names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for d in SCHEMA {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(!d.help.is_empty());
            assert!(
                d.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{} not snake_case",
                d.name
            );
        }
    }

    #[test]
    fn default_peaks_match_paper_figures() {
        let p = peaks();
        assert!((p.gflops - 742.4).abs() < 0.1);
        assert!((p.dma_gbps - 22.6).abs() < 1e-9);
        // Ridge ≈ 742.4 / 22.6 ≈ 32.8 flops/byte.
        assert!((p.ridge_intensity() - 742.4 / 22.6).abs() < 0.1);
    }

    /// Counters of a healthy, compute-heavy run: pipes busy, modest DMA.
    fn compute_heavy() -> (u64, Counters) {
        let cycles = 1_000_000;
        let c = Counters {
            flops: 500_000_000, // ≈ 725 GFLOPS at 1.45 GHz
            kernel_cycles: 950_000,
            kernel_calls: 10,
            issue_p0: 900_000,
            issue_p1: 500_000,
            dma_payload_bytes: 1 << 20,
            dma_bus_bytes: 1 << 20,
            dma_batches: 16,
            spm_high_water_elems: 8 * 1024,
            ..Counters::default()
        };
        (cycles, c)
    }

    #[test]
    fn derive_matches_hand_computation() {
        let p = peaks();
        let (cycles, c) = compute_heavy();
        let m = derive(&p, cycles, &c);
        let secs = cycles as f64 / 1.45e9;
        let gflops = c.flops as f64 / 1e9 / secs;
        assert!((m.get("achieved_gflops").unwrap() - gflops).abs() < 1e-9);
        assert!((m.get("pct_peak_gflops").unwrap() - 100.0 * gflops / p.gflops).abs() < 1e-9);
        let gbps = c.dma_bus_bytes as f64 / 1e9 / secs;
        assert!((m.get("dma_effective_gbps").unwrap() - gbps).abs() < 1e-9);
        assert!(
            (m.get("arithmetic_intensity").unwrap()
                - c.flops as f64 / c.dma_bus_bytes as f64)
                .abs()
                < 1e-9
        );
        // 8K elements = 32 KB of the 64 KB SPM.
        assert!((m.get("spm_occupancy").unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_counters_stay_finite() {
        let p = peaks();
        for (cycles, c) in [
            (0, Counters::default()),
            (100, Counters::default()),
            (0, compute_heavy().1),
        ] {
            let m = derive(&p, cycles, &c);
            for (name, v) in m.iter() {
                assert!(v.is_finite(), "{name} = {v} for cycles={cycles}");
            }
            json::parse(&m.to_json()).unwrap();
        }
    }

    #[test]
    fn classify_compute_bound() {
        let (cycles, c) = compute_heavy();
        assert_eq!(classify(&peaks(), cycles, &c), Bottleneck::Compute);
    }

    #[test]
    fn classify_dma_bound_by_stalls() {
        let (cycles, mut c) = compute_heavy();
        c.dma_stall_cycles = cycles / 5; // 20% of the run stalled
        assert_eq!(classify(&peaks(), cycles, &c), Bottleneck::Dma);
    }

    #[test]
    fn classify_dma_bound_by_traffic_volume() {
        let p = peaks();
        // Ten × more bus traffic than achievable bandwidth could move in the
        // run's compute time: memory is the long pole even without stalls.
        let cycles = 1_000_000u64;
        let c = Counters {
            dma_bus_bytes: (10.0 * p.dma_bytes_per_cycle() * cycles as f64) as u64,
            dma_payload_bytes: 1,
            kernel_cycles: 100_000,
            issue_p0: 190_000,
            issue_p1: 190_000,
            flops: 1000,
            ..Counters::default()
        };
        assert_eq!(classify(&p, cycles, &c), Bottleneck::Dma);
    }

    #[test]
    fn classify_spm_capacity_bound() {
        let (cycles, mut c) = compute_heavy();
        c.dma_stall_cycles = cycles / 5;
        c.spm_high_water_elems = 15 * 1024; // 60 KB of 64 KB: ≥ 75%
        assert_eq!(classify(&peaks(), cycles, &c), Bottleneck::SpmCapacity);
    }

    #[test]
    fn classify_stall_bound() {
        let (cycles, mut c) = compute_heavy();
        // Pipes mostly idle, no DMA pressure.
        c.issue_p0 = 100_000;
        c.issue_p1 = 100_000;
        assert_eq!(classify(&peaks(), cycles, &c), Bottleneck::Stall);
    }

    #[test]
    fn bottleneck_names_round_trip() {
        for b in
            [Bottleneck::Dma, Bottleneck::Compute, Bottleneck::Stall, Bottleneck::SpmCapacity]
        {
            assert_eq!(Bottleneck::parse(b.name()), Some(b));
        }
        assert_eq!(Bottleneck::parse("nope"), None);
    }

    #[test]
    fn mix_counts_and_dominates() {
        let mut mix = BottleneckMix::default();
        assert_eq!(mix.dominant(), None);
        for b in [Bottleneck::Dma, Bottleneck::Dma, Bottleneck::Compute] {
            mix.note(b);
        }
        assert_eq!(mix.total(), 3);
        assert_eq!(mix.dominant(), Some(Bottleneck::Dma));
        assert_eq!(mix.summary(), "dma 2 / compute 1 / stall 0 / spm 0");
        // Ties resolve in declaration order, not whichever count came last.
        let tied = BottleneckMix { dma: 0, compute: 2, stall: 1, spm_capacity: 2 };
        assert_eq!(tied.dominant(), Some(Bottleneck::Compute));
    }

    #[test]
    fn json_export_keeps_schema_order() {
        let p = peaks();
        let (cycles, c) = compute_heavy();
        let doc = json::parse(&derive(&p, cycles, &c).to_json()).unwrap();
        let json::Json::Obj(fields) = doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SCHEMA.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(fields[0].1.as_u64("cycles").unwrap(), 1_000_000);
    }
}
