//! Cached kernel cost queries.
//!
//! Black-box tuning executes thousands of candidate schedules, each invoking
//! `spm_gemm` many times with a handful of distinct shapes, and calibrating
//! Eq. (2) queries a few thousand shapes cold. The scoreboard simulation is
//! deterministic, so it is paid once per *distinct input* at two levels:
//!
//! * **per query** — [`gemm_cycles`] memoises the whole kernel cost, keyed on
//!   the variant, the per-CPE block shape and the machine's kernel timing
//!   parameters ([`timing_fingerprint`]). The steady state of a tuning run is
//!   ~100 % hits, one hash (of the shape; the timing is compared) and one
//!   read lock each — and the IR interpreter asks once per static `Gemm`
//!   node per program run ([`GemmPrice`](crate::GemmPrice)), not once per
//!   executed call.
//! * **per register block** — a query that misses prices its ≤ 4 distinct
//!   register blocks ([`reg_blocks`](crate::microkernel::reg_blocks)) through
//!   a memo of the scoreboard simulation, keyed on the block, the simulated
//!   step count, `fast_vec_load` and the four latencies the scoreboard
//!   reads. Only exact simulations are stored — the memo is the `exact` hook
//!   of [`block_cycles_with`](crate::microkernel::block_cycles_with), so a K
//!   beyond the extrapolation threshold reuses the same two probes whatever
//!   it is. There are only 16 × 2 block inputs per step count, so a cold
//!   calibration (3,744 queries, 9 values of K of which 6 are simulated
//!   exactly, the two probes among them) runs the scoreboard for 96 distinct
//!   blocks instead of 23,400.
//!
//! Both memos return exactly what the pure functions in
//! [`crate::microkernel`] compute; those stay uncached and are the oracle.
//!
//! The caches are shared by every tuner worker thread, so each is guarded by
//! a read/write lock: concurrent readers proceed without contention. A miss
//! races at worst to recompute the same deterministic value; whichever insert
//! lands last wins with an identical result, so queries are consistent across
//! threads.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use sw26010::{Cycles, MachineConfig, MESH};

use crate::microkernel::{block_cycles, block_cycles_with, per_cpe_cycles_with, RegBlock};
use crate::variant::{GemmVariant, VecDim};

/// The `MachineConfig` fields a kernel's cycle cost depends on — the key
/// under which anything derived from [`gemm_cycles`] may be shared between
/// configurations (this module's caches, the fitted Eq. (2) model). It holds
/// the values themselves, so equal fingerprints mean equal costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingFingerprint {
    /// `vmad`, `vldd`, broadcast-load and `vstd` latencies: what the
    /// scoreboard simulation of one register block reads.
    scoreboard: [u64; 4],
    regcomm_switch: u64,
    kernel_call_overhead: u64,
}

/// The timing fingerprint of `cfg` (see [`TimingFingerprint`]).
pub fn timing_fingerprint(cfg: &MachineConfig) -> TimingFingerprint {
    TimingFingerprint {
        scoreboard: [cfg.vmad_latency, cfg.vldd_latency, cfg.bcast_latency, cfg.vstd_latency],
        regcomm_switch: cfg.regcomm_switch.get(),
        kernel_call_overhead: cfg.kernel_call_overhead.get(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    variant: usize,
    mb: usize,
    nb: usize,
    kb: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BlockKey {
    blk: RegBlock,
    /// Simulated accumulation steps (never beyond the exact range).
    steps: usize,
    fast_vec_load: bool,
}

/// Multiply-rotate hash of the few small integers a key is made of: the
/// keys are shapes this program generates, not outside input, and SipHash
/// was most of a warm lookup.
#[derive(Default)]
struct MulRotate(u64);

impl Hasher for MulRotate {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b.into()));
    }
    fn write_usize(&mut self, x: usize) {
        self.0 = (self.0.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One cost map per machine timing `T`. A process sees one timing, rarely a
/// handful, so the timing is found by comparison and only the small
/// per-query key is hashed.
type Memo<T, K> = RwLock<Vec<(T, HashMap<K, u64, BuildHasherDefault<MulRotate>>)>>;

static CACHE: Memo<TimingFingerprint, Key> = RwLock::new(Vec::new());
static BLOCK_CACHE: Memo<[u64; 4], BlockKey> = RwLock::new(Vec::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Entries one Eq. (2) calibration leaves in each memo (3,744 queries, 96
/// blocks), rounded up: a timing's map is created this large, so a cold fit
/// never rehashes.
const CALIBRATION_QUERIES: usize = 4096;
const CALIBRATION_BLOCKS: usize = 128;

fn lookup<T: PartialEq, K: Hash + Eq>(memo: &Memo<T, K>, timing: &T, key: &K) -> Option<u64> {
    memo.read().iter().find(|(t, _)| t == timing)?.1.get(key).copied()
}

/// Store `cycles` under `key`; the first entry of a timing makes its map,
/// with room for `capacity` entries.
fn insert<T: PartialEq + Copy, K: Hash + Eq>(
    memo: &Memo<T, K>,
    capacity: usize,
    timing: &T,
    key: K,
    cycles: u64,
) {
    let mut maps = memo.write();
    let at = maps.iter().position(|(t, _)| t == timing).unwrap_or_else(|| {
        maps.push((*timing, HashMap::with_capacity_and_hasher(capacity, Default::default())));
        maps.len() - 1
    });
    maps[at].1.insert(key, cycles);
}

fn len<T, K>(memo: &Memo<T, K>) -> usize {
    memo.read().iter().map(|(_, map)| map.len()).sum()
}

/// Cycle cost of one `spm_gemm(M, N, K)` call with the given variant.
///
/// Dimensions are the *global* matrix dimensions; they must already satisfy
/// the kernel contract (divisible by the mesh; vectorised per-CPE dimension
/// divisible by 4) — [`crate::spm_gemm`] validates before costing.
pub fn gemm_cycles(cfg: &MachineConfig, variant: GemmVariant, m: usize, n: usize, k: usize) -> Cycles {
    let (mb, nb, kb) = (m / MESH, n / MESH, k / MESH);
    let timing = timing_fingerprint(cfg);
    let key = Key { variant: variant.index(), mb, nb, kb };
    if let Some(cycles) = lookup(&CACHE, &timing, &key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Cycles(cycles);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let (v_len, s_len) = match variant.vec {
        VecDim::M => (mb, nb),
        VecDim::N => (nb, mb),
    };
    let fast_vec_load = variant.vector_load_ok();
    let cycles = per_cpe_cycles_with(cfg, v_len, s_len, kb, |blk, k_len| {
        // `steps` is within the exact range, where `block_cycles` is the
        // simulation itself.
        block_cycles_with(k_len, |steps| {
            let key = BlockKey { blk, steps, fast_vec_load };
            lookup(&BLOCK_CACHE, &timing.scoreboard, &key).unwrap_or_else(|| {
                let cycles = block_cycles(cfg, blk, steps, fast_vec_load);
                insert(&BLOCK_CACHE, CALIBRATION_BLOCKS, &timing.scoreboard, key, cycles);
                cycles
            })
        })
    });
    insert(&CACHE, CALIBRATION_QUERIES, &timing, key, cycles);
    Cycles(cycles)
}

/// Number of kernel costs currently memoised (observability for
/// tests/benches).
pub fn cache_len() -> usize {
    len(&CACHE)
}

/// Number of register-block costs currently memoised: the distinct
/// `(block, steps, fast_vec_load, latencies)` inputs [`gemm_cycles`] has run
/// the scoreboard for since process start.
pub fn block_cache_len() -> usize {
    len(&BLOCK_CACHE)
}

/// `(hits, misses, entries)` of the kernel-cost cache since process start:
/// exactly one hit or miss per [`gemm_cycles`] query (the register-block
/// memo under a miss is not counted). A query is not a kernel call: an
/// interpreted program asks once per static `Gemm` node per run and charges
/// that price on every execution of the node; only direct
/// [`spm_gemm`](crate::spm_gemm) callers (baselines, benches) ask per call.
/// Counters are relaxed atomics: approximate under concurrency (two workers
/// racing on a cold key may both count a miss), exact serially — they are
/// observability for the telemetry snapshot, never control flow.
pub fn cache_stats() -> (u64, u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed), cache_len() as u64)
}

/// FLOPs of one `C += A·B` call: 2·M·N·K multiply-accumulates. The single
/// flop-accounting definition shared by the kernel (which feeds the machine
/// counters) and the observatory's roofline metrics.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// Operand bytes of one GEMM call: A (M·K) and B (K·N) read, C (M·N) read
/// and written, at 4 bytes per f32 element.
pub fn gemm_operand_bytes(m: usize, n: usize, k: usize) -> u64 {
    4 * ((m * k) as u64 + (k * n) as u64 + 2 * (m * n) as u64)
}

/// Arithmetic intensity (flops per operand byte) of one GEMM call — the
/// variant-independent upper bound a schedule's *measured* intensity
/// (flops / DMA bus bytes) approaches as tiling amortises reloads.
pub fn gemm_intensity(m: usize, n: usize, k: usize) -> f64 {
    let bytes = gemm_operand_bytes(m, n, k);
    if bytes == 0 {
        return 0.0;
    }
    gemm_flops(m, n, k) as f64 / bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::per_cpe_cycles;
    use crate::variant::ALL_VARIANTS;

    #[test]
    fn cache_returns_consistent_results() {
        let cfg = MachineConfig::default();
        let v = ALL_VARIANTS[4]; // A col-major, vec M: fast vector loads
        let a = gemm_cycles(&cfg, v, 64, 64, 64);
        let b = gemm_cycles(&cfg, v, 64, 64, 64);
        assert_eq!(a, b);
        assert!(a.get() > 0);
    }

    #[test]
    fn memoised_costs_equal_the_pure_walk() {
        // Ragged tiles (every block shape), both load kinds, K on both sides
        // of the extrapolation threshold, and a second timing.
        let mut slow_stores = MachineConfig::default();
        slow_stores.vstd_latency += 3;
        for cfg in [MachineConfig::default(), slow_stores] {
            for v in ALL_VARIANTS {
                for (vb, sb, kb) in [(4, 1, 1), (12, 7, 2), (8, 5, 12), (20, 4, 13), (16, 9, 40)] {
                    let (mb, nb) = match v.vec {
                        VecDim::M => (vb, sb),
                        VecDim::N => (sb, vb),
                    };
                    let pure = per_cpe_cycles(&cfg, vb, sb, kb, v.vector_load_ok());
                    for _ in 0..2 {
                        let got = gemm_cycles(&cfg, v, mb * MESH, nb * MESH, kb * MESH);
                        assert_eq!(got.get(), pure, "{v:?} {vb}x{sb}x{kb}");
                    }
                }
            }
        }
        assert!(block_cache_len() > 0 && block_cache_len() <= cache_len() * 4);
        // The hook under the memo: an exact-range K is asked for as it is,
        // a longer one for the same two probes whatever it is.
        let (cfg, blk) = (MachineConfig::default(), RegBlock::new(3, 2));
        for k_len in [1, 64, 96, 97, 104, 320] {
            let mut asked = Vec::new();
            let got = block_cycles_with(k_len, |steps| {
                asked.push(steps);
                block_cycles(&cfg, blk, steps, false)
            });
            assert_eq!(got, block_cycles(&cfg, blk, k_len, false), "k_len {k_len}");
            assert_eq!(asked, if k_len <= 96 { vec![k_len] } else { vec![96, 64] });
        }
    }

    #[test]
    fn a_cold_calibration_stores_96_blocks() {
        // The grid of `swatop::model::calibration_shapes`, on a timing no
        // other test uses: its block map is this test's own.
        const M: [usize; 8] = [32, 64, 96, 128, 160, 192, 256, 320];
        const N: [usize; 7] = [32, 48, 64, 96, 128, 192, 256];
        const K: [usize; 9] = [8, 16, 24, 32, 64, 96, 128, 192, 256];
        let mut cfg = MachineConfig::default();
        cfg.vstd_latency += 7;
        let mut queries = 0;
        for v in ALL_VARIANTS {
            for (m, n) in M.into_iter().flat_map(|m| N.map(|n| (m, n))) {
                let vectorised = match v.vec {
                    VecDim::M => m,
                    VecDim::N => n,
                };
                if (vectorised / MESH).is_multiple_of(4) {
                    for k in K {
                        gemm_cycles(&cfg, v, m, n, k);
                        queries += 1;
                    }
                }
            }
        }
        assert_eq!(queries, 3744);
        let timing = timing_fingerprint(&cfg).scoreboard;
        let maps = BLOCK_CACHE.read();
        let (_, blocks) = maps.iter().find(|(t, _)| *t == timing).expect("this timing's map");
        // 16 block inputs × the 6 exact-range step counts (both probes are
        // among them); 144 when every K had its own entry.
        assert_eq!(blocks.len(), 96);
        assert!(blocks.keys().all(|key| key.steps <= 96));
    }

    #[test]
    fn every_timing_field_is_in_the_fingerprint() {
        let base = MachineConfig::default();
        let bump: [fn(&mut MachineConfig); 6] = [
            |c| c.vmad_latency += 1,
            |c| c.vldd_latency += 1,
            |c| c.bcast_latency += 1,
            |c| c.vstd_latency += 1,
            |c| c.regcomm_switch = Cycles(c.regcomm_switch.get() + 1),
            |c| c.kernel_call_overhead = Cycles(c.kernel_call_overhead.get() + 1),
        ];
        for (i, f) in bump.iter().enumerate() {
            let mut cfg = base.clone();
            f(&mut cfg);
            assert_ne!(timing_fingerprint(&cfg), timing_fingerprint(&base), "field {i}");
        }
        // Fields the kernels never read do not split the caches.
        let mut other = base.clone();
        other.dma_startup = Cycles(other.dma_startup.get() + 1);
        assert_eq!(timing_fingerprint(&other), timing_fingerprint(&base));
    }

    #[test]
    fn variants_differ_in_cost() {
        let cfg = MachineConfig::default();
        // Fast-vector-load variant must beat the scalar-extend fallback.
        let fast = ALL_VARIANTS.iter().find(|v| v.vector_load_ok()).unwrap();
        let slow = ALL_VARIANTS.iter().find(|v| !v.vector_load_ok()).unwrap();
        let cf = gemm_cycles(&cfg, *fast, 128, 128, 128);
        let cs = gemm_cycles(&cfg, *slow, 128, 128, 128);
        assert!(cf < cs, "fast {cf} !< slow {cs}");
    }

    #[test]
    fn cost_monotone_in_k() {
        let cfg = MachineConfig::default();
        let v = ALL_VARIANTS[0];
        let c1 = gemm_cycles(&cfg, v, 64, 64, 64);
        let c2 = gemm_cycles(&cfg, v, 64, 64, 128);
        assert!(c2 > c1);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        // The tuner pool hammers this cache from every worker; all threads
        // must observe the same deterministic costs as a serial querier,
        // whether they hit the cache or race to fill it.
        let cfg = MachineConfig::default();
        let shapes: Vec<(usize, usize, usize)> = (1..=6)
            .flat_map(|i| (1..=4).map(move |j| (32 * i, 32 * j, 8 * i)))
            .collect();
        let serial: Vec<Vec<u64>> = ALL_VARIANTS
            .iter()
            .map(|v| shapes.iter().map(|&(m, n, k)| gemm_cycles(&cfg, *v, m, n, k).get()).collect())
            .collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let cfg = &cfg;
                let shapes = &shapes;
                let serial = &serial;
                s.spawn(move || {
                    // Stagger starting points so threads interleave hits
                    // and misses differently.
                    for (vi, v) in ALL_VARIANTS.iter().enumerate() {
                        for i in 0..shapes.len() {
                            let (m, n, k) = shapes[(i + t) % shapes.len()];
                            let got = gemm_cycles(cfg, *v, m, n, k).get();
                            assert_eq!(got, serial[vi][(i + t) % shapes.len()]);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn flop_and_byte_accounting() {
        assert_eq!(gemm_flops(64, 64, 64), 2 * 64 * 64 * 64);
        assert_eq!(gemm_operand_bytes(8, 8, 8), 4 * (64 + 64 + 128));
        // Square GEMM intensity grows linearly with the dimension:
        // 2n³ / (16n²) = n/8 flops per byte.
        assert!((gemm_intensity(64, 64, 64) - 8.0).abs() < 1e-12);
        assert!((gemm_intensity(128, 128, 128) - 16.0).abs() < 1e-12);
        assert_eq!(gemm_intensity(0, 0, 0), 0.0);
    }

    #[test]
    fn config_changes_invalidate_cache_key() {
        let cfg = MachineConfig::default();
        let mut slow_cfg = cfg.clone();
        slow_cfg.vmad_latency = 20;
        let v = ALL_VARIANTS[4];
        let base = gemm_cycles(&cfg, v, 64, 64, 64);
        let slower = gemm_cycles(&slow_cfg, v, 64, 64, 64);
        assert!(slower >= base);
    }
}
