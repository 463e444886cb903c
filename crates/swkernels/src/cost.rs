//! Cached kernel cost queries.
//!
//! Black-box tuning executes thousands of candidate schedules, each invoking
//! `spm_gemm` many times with a handful of distinct shapes, and calibrating
//! Eq. (2) queries a few thousand shapes cold. The scoreboard simulation is
//! deterministic, so it is paid once per *distinct input* at two levels:
//!
//! * **per query** — [`gemm_cycles`] memoises the whole kernel cost, keyed on
//!   the variant and the per-CPE block shape (the kernel timings are
//!   constants of the machine). The steady state of a tuning run is ~100 %
//!   hits, one hash and one read lock each — and the IR interpreter asks
//!   once per static `Gemm` node per program run
//!   ([`GemmPrice`](crate::GemmPrice)), not once per executed call.
//! * **per register block** — a query that misses prices its ≤ 4 distinct
//!   register blocks ([`reg_blocks`](crate::microkernel::reg_blocks)) through
//!   a memo of the scoreboard simulation, keyed on the block, the simulated
//!   step count and `fast_vec_load`. Only exact simulations are stored — the
//!   memo is the `exact` hook of
//!   [`block_cycles_with`](crate::microkernel::block_cycles_with), so a K
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
use sw26010::{Cycles, MESH};

use crate::microkernel::{block_cycles, block_cycles_with, per_cpe_cycles_with, RegBlock};
use crate::variant::{GemmVariant, VecDim};

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

type Memo<K> = RwLock<HashMap<K, u64, BuildHasherDefault<MulRotate>>>;

static CACHE: Memo<Key> = RwLock::new(HashMap::with_hasher(BuildHasherDefault::new()));
static BLOCK_CACHE: Memo<BlockKey> = RwLock::new(HashMap::with_hasher(BuildHasherDefault::new()));
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Entries one Eq. (2) calibration leaves in each memo (3,744 queries, 96
/// blocks), rounded up: a memo's first insert makes room for this many, so
/// a cold fit never rehashes.
const CALIBRATION_QUERIES: usize = 4096;
const CALIBRATION_BLOCKS: usize = 128;

fn lookup<K: Hash + Eq>(memo: &Memo<K>, key: &K) -> Option<u64> {
    memo.read().get(key).copied()
}

/// Store `cycles` under `key`; the first entry makes room for `capacity`.
fn insert<K: Hash + Eq>(memo: &Memo<K>, capacity: usize, key: K, cycles: u64) {
    let mut map = memo.write();
    if map.capacity() == 0 {
        map.reserve(capacity);
    }
    map.insert(key, cycles);
}

fn len<K>(memo: &Memo<K>) -> usize {
    memo.read().len()
}

/// Cycle cost of one `spm_gemm(M, N, K)` call with the given variant.
///
/// Dimensions are the *global* matrix dimensions; they must already satisfy
/// the kernel contract (divisible by the mesh; vectorised per-CPE dimension
/// divisible by 4) — [`spm_gemm`](fn@crate::spm_gemm) validates before costing.
pub fn gemm_cycles(variant: GemmVariant, m: usize, n: usize, k: usize) -> Cycles {
    let (mb, nb, kb) = (m / MESH, n / MESH, k / MESH);
    let key = Key { variant: variant.index(), mb, nb, kb };
    if let Some(cycles) = lookup(&CACHE, &key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Cycles(cycles);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let (v_len, s_len) = match variant.vec {
        VecDim::M => (mb, nb),
        VecDim::N => (nb, mb),
    };
    let fast_vec_load = variant.vector_load_ok();
    let cycles = per_cpe_cycles_with(v_len, s_len, kb, |blk, k_len| {
        // `steps` is within the exact range, where `block_cycles` is the
        // simulation itself.
        block_cycles_with(k_len, |steps| {
            let key = BlockKey { blk, steps, fast_vec_load };
            lookup(&BLOCK_CACHE, &key).unwrap_or_else(|| {
                let cycles = block_cycles(blk, steps, fast_vec_load);
                insert(&BLOCK_CACHE, CALIBRATION_BLOCKS, key, cycles);
                cycles
            })
        })
    });
    insert(&CACHE, CALIBRATION_QUERIES, key, cycles);
    Cycles(cycles)
}

/// Number of kernel costs currently memoised (observability for
/// tests/benches).
pub fn cache_len() -> usize {
    len(&CACHE)
}

/// Number of register-block costs currently memoised: the distinct
/// `(block, steps, fast_vec_load)` inputs [`gemm_cycles`] has run
/// the scoreboard for since process start.
pub fn block_cache_len() -> usize {
    len(&BLOCK_CACHE)
}

/// `(hits, misses, entries)` of the kernel-cost cache since process start:
/// exactly one hit or miss per [`gemm_cycles`] query (the register-block
/// memo under a miss is not counted). A query is not a kernel call: an
/// interpreted program asks once per static `Gemm` node per run and charges
/// that price on every execution of the node; only direct
/// [`spm_gemm`](fn@crate::spm_gemm) callers (baselines, benches) ask per call.
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
        let v = ALL_VARIANTS[4]; // A col-major, vec M: fast vector loads
        let a = gemm_cycles(v, 64, 64, 64);
        let b = gemm_cycles(v, 64, 64, 64);
        assert_eq!(a, b);
        assert!(a.get() > 0);
    }

    #[test]
    fn memoised_costs_equal_the_pure_walk() {
        // Ragged tiles (every block shape), both load kinds, and K on both
        // sides of the extrapolation threshold.
        for v in ALL_VARIANTS {
            for (vb, sb, kb) in [(4, 1, 1), (12, 7, 2), (8, 5, 12), (20, 4, 13), (16, 9, 40)] {
                let (mb, nb) = match v.vec {
                    VecDim::M => (vb, sb),
                    VecDim::N => (sb, vb),
                };
                let pure = per_cpe_cycles(vb, sb, kb, v.vector_load_ok());
                for _ in 0..2 {
                    let got = gemm_cycles(v, mb * MESH, nb * MESH, kb * MESH);
                    assert_eq!(got.get(), pure, "{v:?} {vb}x{sb}x{kb}");
                }
            }
        }
        assert!(block_cache_len() > 0 && block_cache_len() <= cache_len() * 4);
        // The hook under the memo: an exact-range K is asked for as it is,
        // a longer one for the same two probes whatever it is.
        let blk = RegBlock::new(3, 2);
        for k_len in [1, 64, 96, 97, 104, 320] {
            let mut asked = Vec::new();
            let got = block_cycles_with(k_len, |steps| {
                asked.push(steps);
                block_cycles(blk, steps, false)
            });
            assert_eq!(got, block_cycles(blk, k_len, false), "k_len {k_len}");
            assert_eq!(asked, if k_len <= 96 { vec![k_len] } else { vec![96, 64] });
        }
    }

    #[test]
    fn variants_differ_in_cost() {
        // Fast-vector-load variant must beat the scalar-extend fallback.
        let fast = ALL_VARIANTS.iter().find(|v| v.vector_load_ok()).unwrap();
        let slow = ALL_VARIANTS.iter().find(|v| !v.vector_load_ok()).unwrap();
        let cf = gemm_cycles(*fast, 128, 128, 128);
        let cs = gemm_cycles(*slow, 128, 128, 128);
        assert!(cf < cs, "fast {cf} !< slow {cs}");
    }

    #[test]
    fn cost_monotone_in_k() {
        let v = ALL_VARIANTS[0];
        let c1 = gemm_cycles(v, 64, 64, 64);
        let c2 = gemm_cycles(v, 64, 64, 128);
        assert!(c2 > c1);
    }

    #[test]
    fn concurrent_queries_are_consistent() {
        // The tuner pool hammers this cache from every worker; all threads
        // must observe the same deterministic costs as a serial querier,
        // whether they hit the cache or race to fill it.
        let shapes: Vec<(usize, usize, usize)> = (1..=6)
            .flat_map(|i| (1..=4).map(move |j| (32 * i, 32 * j, 8 * i)))
            .collect();
        let serial: Vec<Vec<u64>> = ALL_VARIANTS
            .iter()
            .map(|v| shapes.iter().map(|&(m, n, k)| gemm_cycles(*v, m, n, k).get()).collect())
            .collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let shapes = &shapes;
                let serial = &serial;
                s.spawn(move || {
                    // Stagger starting points so threads interleave hits
                    // and misses differently.
                    for (vi, v) in ALL_VARIANTS.iter().enumerate() {
                        for i in 0..shapes.len() {
                            let (m, n, k) = shapes[(i + t) % shapes.len()];
                            let got = gemm_cycles(*v, m, n, k).get();
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
}
