//! The DMA engine: asynchronous, transaction-quantised strided transfers
//! between main memory and the SPMs.
//!
//! The swATOP paper models DMA time as (Eq. 1)
//!
//! ```text
//! T_DMA = T_latency + Σ_i (block_size + waste_size_i) / (PEAK_BW / #CPE)
//! ```
//!
//! where the waste comes from 128-byte DRAM transactions: "even if just 1
//! byte of a transaction is touched, the entire transaction will be
//! transferred". The *model* in the autotuner uses exactly Eq. (1); the
//! *engine* simulated here is more detailed — it additionally charges a
//! per-block descriptor overhead and serialises all CPEs' requests through
//! the shared engine — so the autotuner's model is a genuine approximation
//! of the machine, which is what the paper's Fig. 9 quantifies.

use crate::clock::Cycles;
use crate::config::MachineConfig;
use crate::error::{MachineError, MachineResult};
use crate::ELEM_BYTES;

/// Direction of a DMA transfer, mirroring `swMemcpyDirection`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// Main memory → SPM (`DMA get`).
    MemToSpm,
    /// SPM → main memory (`DMA put`).
    SpmToMem,
}

/// One CPE's strided DMA request, mirroring the paper's `DMA_CPE` node:
/// `DMA_CPE(source, destination, direction, offset, block, stride, size)`.
///
/// All sizes are in f32 elements. The transfer touches `n_blocks` blocks of
/// `block_elems` contiguous elements; consecutive blocks start
/// `stride_elems` apart in **main memory** while the SPM side is packed
/// contiguously (this is how the real engine's strided mode works: one side
/// strided, one side dense).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DmaRequest {
    /// Which CPE issues this request (0..64).
    pub cpe: usize,
    pub direction: DmaDirection,
    /// Absolute element offset of the first block in main memory.
    pub mem_offset: usize,
    /// Element offset in the issuing CPE's SPM.
    pub spm_offset: usize,
    /// Elements per contiguous block.
    pub block_elems: usize,
    /// Main-memory distance between block starts, in elements.
    /// Must be ≥ `block_elems` when `n_blocks > 1`.
    pub stride_elems: usize,
    /// Number of blocks.
    pub n_blocks: usize,
}

impl DmaRequest {
    /// Convenience constructor for a fully contiguous transfer.
    pub fn contiguous(
        cpe: usize,
        direction: DmaDirection,
        mem_offset: usize,
        spm_offset: usize,
        elems: usize,
    ) -> Self {
        DmaRequest {
            cpe,
            direction,
            mem_offset,
            spm_offset,
            block_elems: elems,
            stride_elems: elems,
            n_blocks: 1,
        }
    }

    /// Total payload elements moved by this request.
    pub fn total_elems(&self) -> usize {
        self.block_elems * self.n_blocks
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.total_elems() * ELEM_BYTES
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> MachineResult<()> {
        if self.cpe >= crate::N_CPE {
            return Err(MachineError::BadDmaRequest(format!("cpe {} out of range", self.cpe)));
        }
        if self.block_elems == 0 || self.n_blocks == 0 {
            return Err(MachineError::BadDmaRequest("zero-sized transfer".into()));
        }
        if self.n_blocks > 1 && self.stride_elems < self.block_elems {
            return Err(MachineError::BadDmaRequest(format!(
                "stride {} < block {} with {} blocks",
                self.stride_elems, self.block_elems, self.n_blocks
            )));
        }
        Ok(())
    }

    /// Bytes actually crossing the DRAM bus, counting whole 128-byte
    /// transactions per block (the waste term of Eq. 1).
    pub fn bus_bytes(&self, txn_bytes: usize) -> usize {
        bus_bytes(self.mem_offset, self.block_elems, self.stride_elems, self.n_blocks, txn_bytes)
    }
}

/// Transaction-quantised bus bytes of a strided transfer (standalone form
/// of [`DmaRequest::bus_bytes`]; the cost-only fast path prices whole
/// `DMA_CPE` nodes through [`bus_bytes_sum`] without building request
/// structures).
pub fn bus_bytes(
    mem_offset: usize,
    block_elems: usize,
    stride_elems: usize,
    n_blocks: usize,
    txn_bytes: usize,
) -> usize {
    let span = |start_bytes: usize| -> usize {
        let end = start_bytes + block_elems * ELEM_BYTES;
        (end.div_ceil(txn_bytes) - start_bytes / txn_bytes) * txn_bytes
    };
    if n_blocks == 1 {
        return span(mem_offset * ELEM_BYTES);
    }
    // A block's transaction waste depends only on its start address modulo
    // the transaction size, and starts advance by a fixed stride — so the
    // per-block cost is periodic with period txn / gcd(stride, txn) ≤ 32.
    let stride_bytes = stride_elems * ELEM_BYTES;
    let period = txn_bytes / gcd(stride_bytes % txn_bytes, txn_bytes).max(1);
    let period = period.max(1).min(n_blocks);
    let mut cycle_total = 0usize;
    for b in 0..period {
        cycle_total += span((mem_offset + b * stride_elems) * ELEM_BYTES);
    }
    let full_cycles = n_blocks / period;
    let mut total = cycle_total * full_cycles;
    for b in full_cycles * period..n_blocks {
        total += span((mem_offset + b * stride_elems) * ELEM_BYTES);
    }
    total
}

/// Total [`bus_bytes`] of transfers that share `block_elems`, `stride_elems`
/// and `n_blocks` and differ only in where they start — the 64 per-CPE (or
/// 8 per-leader) requests of one `DMA_CPE` node, whose starts are an affine
/// function of the mesh coordinates.
///
/// A transfer's bus bytes depend on its start only through the start's byte
/// address modulo the transaction size (moving a transfer by whole
/// transactions moves every block's first and last transaction alike), so
/// the starts are grouped by that residue and [`bus_bytes`] runs once per
/// class: at most `txn_bytes / 4` classes, usually 1–8 for a tile whose rows
/// are a few transactions apart.
pub fn bus_bytes_sum(
    mem_offsets: impl IntoIterator<Item = usize>,
    block_elems: usize,
    stride_elems: usize,
    n_blocks: usize,
    txn_bytes: usize,
) -> usize {
    // (residue, first start seen with it, how many starts share it). 32 slots
    // hold every class of the default 128-byte transaction; starts that find
    // the table full (larger transactions only) are priced one by one.
    let mut classes = [(0usize, 0usize, 0usize); 32];
    let mut n_classes = 0;
    let mut total = 0;
    for start in mem_offsets {
        let residue = start * ELEM_BYTES % txn_bytes;
        if let Some(class) = classes[..n_classes].iter_mut().find(|c| c.0 == residue) {
            class.2 += 1;
        } else if n_classes < classes.len() {
            classes[n_classes] = (residue, start, 1);
            n_classes += 1;
        } else {
            total += bus_bytes(start, block_elems, stride_elems, n_blocks, txn_bytes);
        }
    }
    for &(_, start, count) in &classes[..n_classes] {
        total += count * bus_bytes(start, block_elems, stride_elems, n_blocks, txn_bytes);
    }
    total
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The shared per-CG DMA engine.
///
/// The engine is a single resource: batches issued while a previous batch is
/// in flight queue behind it (`free_at`). Completion times are delivered
/// through [`ReplyWord`]s, matching the asynchronous `swDMA`/`swDMAWait`
/// primitive pair.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    free_at: Cycles,
    /// Total payload bytes moved (statistics).
    pub payload_bytes: u64,
    /// Total bus bytes moved including transaction waste (statistics).
    pub bus_bytes: u64,
    /// Number of batches issued.
    pub batches: u64,
}

impl DmaEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Time at which the engine becomes idle.
    pub fn free_at(&self) -> Cycles {
        self.free_at
    }

    /// Compute the transfer duration of a batch of per-CPE requests and
    /// schedule it at `now`, returning the completion time.
    pub fn schedule(
        &mut self,
        cfg: &MachineConfig,
        now: Cycles,
        requests: &[DmaRequest],
    ) -> MachineResult<Cycles> {
        self.schedule_with(cfg, now, requests, false)
    }

    /// [`DmaEngine::schedule`] with explicit batch chaining: a `chained`
    /// batch is issued back-to-back with its predecessor, so its descriptors
    /// ride the already-open engine pipeline and the per-batch start-up
    /// latency is waived (only the descriptor and transfer terms remain).
    pub fn schedule_with(
        &mut self,
        cfg: &MachineConfig,
        now: Cycles,
        requests: &[DmaRequest],
        chained: bool,
    ) -> MachineResult<Cycles> {
        let mut bus = 0usize;
        let mut blocks = 0usize;
        let mut payload = 0usize;
        for r in requests {
            r.validate()?;
            bus += r.bus_bytes(cfg.dram_transaction_bytes);
            blocks += r.n_blocks;
            payload += r.total_bytes();
        }
        Ok(self.schedule_totals_with(cfg, now, bus, blocks, payload, chained))
    }

    /// Schedule a batch from pre-aggregated totals (the cost-only fast
    /// path: callers compute bus bytes per request without materialising
    /// request structures). Semantically identical to [`DmaEngine::schedule`]
    /// on the same batch.
    pub fn schedule_totals(
        &mut self,
        cfg: &MachineConfig,
        now: Cycles,
        bus_bytes: usize,
        blocks: usize,
        payload_bytes: usize,
    ) -> Cycles {
        self.schedule_totals_with(cfg, now, bus_bytes, blocks, payload_bytes, false)
    }

    /// [`DmaEngine::schedule_totals`] with explicit batch chaining (see
    /// [`DmaEngine::schedule_with`]). Chained batches still queue behind the
    /// engine's in-flight work — only the start-up term is dropped — and do
    /// not open a new batch group in the statistics.
    pub fn schedule_totals_with(
        &mut self,
        cfg: &MachineConfig,
        now: Cycles,
        bus_bytes: usize,
        blocks: usize,
        payload_bytes: usize,
        chained: bool,
    ) -> Cycles {
        let transfer = (bus_bytes as f64 / cfg.mem_bytes_per_cycle).ceil() as u64;
        let startup = if chained { Cycles::ZERO } else { cfg.dma_startup };
        let duration =
            startup + Cycles(cfg.dma_block_overhead.get() * blocks as u64) + Cycles(transfer);
        let start = now.max(self.free_at);
        let finish = start + duration;
        self.free_at = finish;
        self.payload_bytes += payload_bytes as u64;
        self.bus_bytes += bus_bytes as u64;
        if !chained {
            self.batches += 1;
        }
        finish
    }

    /// Reset the engine clock (fresh program run) keeping statistics zeroed.
    pub fn reset(&mut self) {
        *self = DmaEngine::new();
    }

    /// Achieved bandwidth efficiency so far: payload / bus bytes.
    pub fn efficiency(&self) -> f64 {
        if self.bus_bytes == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / self.bus_bytes as f64
        }
    }
}

/// Completion bookkeeping shared by `swDMA`/`swDMAWait`: the reply word is
/// incremented by the engine when a transfer finishes; `swDMAWait(reply, n)`
/// spins until `n` completions arrived. The model stores the completion
/// *times* so a wait advances the compute clock to the latest one.
#[derive(Debug, Clone, Default)]
pub struct ReplyWord {
    completions: Vec<Cycles>,
    waited: usize,
}

impl ReplyWord {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a transfer completing at `at`.
    pub fn push(&mut self, at: Cycles) {
        self.completions.push(at);
    }

    /// Number of completions issued so far.
    pub fn issued(&self) -> usize {
        self.completions.len()
    }

    /// Wait for `n` more completions (beyond those already waited for);
    /// returns the cycle at which the last of them finishes.
    pub fn wait(&mut self, n: usize) -> MachineResult<Cycles> {
        let end = self.waited + n;
        if end > self.completions.len() {
            return Err(MachineError::ReplyUnderflow {
                expected: end,
                issued: self.completions.len(),
            });
        }
        let at = self.completions[self.waited..end]
            .iter()
            .copied()
            .max()
            .unwrap_or(Cycles::ZERO);
        self.waited = end;
        Ok(at)
    }

    /// Completions not yet waited for.
    pub fn pending(&self) -> usize {
        self.completions.len() - self.waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn contiguous_bus_bytes_aligned() {
        // 128 elements * 4 B = 512 B starting at offset 0: exactly 4 txns.
        let r = DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 128);
        assert_eq!(r.bus_bytes(128), 512);
    }

    #[test]
    fn misaligned_block_pays_waste() {
        // 1 element at byte offset 4: still one full 128-byte transaction.
        let r = DmaRequest::contiguous(0, DmaDirection::MemToSpm, 1, 0, 1);
        assert_eq!(r.bus_bytes(128), 128);
        // A block straddling a txn boundary pays two transactions.
        let r = DmaRequest::contiguous(0, DmaDirection::MemToSpm, 31, 0, 2);
        assert_eq!(r.bus_bytes(128), 256);
    }

    #[test]
    fn strided_blocks_each_pay_waste() {
        let r = DmaRequest {
            cpe: 0,
            direction: DmaDirection::MemToSpm,
            mem_offset: 0,
            spm_offset: 0,
            block_elems: 4, // 16 B
            stride_elems: 100,
            n_blocks: 10,
        };
        // Each 16 B block needs at least one 128 B transaction (maybe 2 if
        // straddling). Strides of 100 elems = 400 B are not txn-aligned.
        let bus = r.bus_bytes(128);
        assert!(bus >= 10 * 128, "bus {bus}");
        assert!(bus <= 10 * 256, "bus {bus}");
        assert_eq!(r.total_bytes(), 160);
    }

    #[test]
    fn periodic_bus_bytes_matches_naive_enumeration() {
        let naive = |off: usize, block: usize, stride: usize, n: usize, txn: usize| -> usize {
            (0..n)
                .map(|b| {
                    let start = (off + b * stride) * 4;
                    let end = start + block * 4;
                    (end.div_ceil(txn) - start / txn) * txn
                })
                .sum()
        };
        for &(off, block, stride, n) in &[
            (0usize, 4usize, 100usize, 10usize),
            (1, 1, 3, 77),
            (31, 2, 33, 64),
            (5, 16, 16, 40),
            (0, 32, 32, 64),
            (7, 9, 129, 50),
            (3, 200, 1000, 13),
        ] {
            assert_eq!(
                bus_bytes(off, block, stride, n, 128),
                naive(off, block, stride, n, 128),
                "off={off} block={block} stride={stride} n={n}"
            );
        }
    }

    #[test]
    fn bus_bytes_sum_equals_per_start_calls() {
        // Mesh-affine starts: one class, a few classes, all distinct, and a
        // transaction large enough to overflow the class table.
        for &(base, cr, cc, block, stride, n, txn) in &[
            (0usize, 256usize, 32usize, 8usize, 64usize, 8usize, 128usize),
            (3, 100, 7, 5, 33, 9, 128),
            (17, 1, 8, 1, 1, 1, 128),
            (5, 9, 1, 3, 130, 4, 512),
            (1, 3, 11, 2, 7, 40, 96),
        ] {
            let starts = || (0..64).map(move |cpe| base + cr * (cpe / 8) + cc * (cpe % 8));
            let each: usize = starts().map(|a| bus_bytes(a, block, stride, n, txn)).sum();
            assert_eq!(bus_bytes_sum(starts(), block, stride, n, txn), each);
        }
        assert_eq!(bus_bytes_sum(std::iter::empty(), 4, 4, 1, 128), 0);
    }

    #[test]
    fn chained_batch_waives_startup_and_batch_count() {
        let cfg = cfg();
        let r = DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 128);
        let mut plain = DmaEngine::new();
        let f_plain = plain.schedule_with(&cfg, Cycles::ZERO, std::slice::from_ref(&r), false).unwrap();
        let mut chained = DmaEngine::new();
        let f_chained = chained.schedule_with(&cfg, Cycles::ZERO, &[r], true).unwrap();
        // A chained batch skips exactly the start-up term ...
        assert_eq!(f_plain, f_chained + cfg.dma_startup);
        // ... does not open a new batch group ...
        assert_eq!((plain.batches, chained.batches), (1, 0));
        // ... but still moves the same bytes.
        assert_eq!(plain.bus_bytes, chained.bus_bytes);
        assert_eq!(plain.payload_bytes, chained.payload_bytes);
    }

    #[test]
    fn chained_batch_still_queues_behind_in_flight_work() {
        let cfg = cfg();
        let r = DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 128);
        let mut e = DmaEngine::new();
        let first = e.schedule_with(&cfg, Cycles::ZERO, std::slice::from_ref(&r), false).unwrap();
        // Issued at t=0 while the first batch is in flight: starts at its
        // completion, not at issue time.
        let second = e.schedule_with(&cfg, Cycles::ZERO, &[r], true).unwrap();
        assert!(second > first);
        assert_eq!(second - first, f_duration(&cfg));
    }

    fn f_duration(cfg: &MachineConfig) -> Cycles {
        // Duration of the chained 512 B contiguous batch above: block
        // overhead + transfer, no start-up.
        Cycles(cfg.dma_block_overhead.get())
            + Cycles((512f64 / cfg.mem_bytes_per_cycle).ceil() as u64)
    }

    #[test]
    fn validate_rejects_bad_requests() {
        let mut r = DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 4);
        r.block_elems = 0;
        assert!(r.validate().is_err());
        let r = DmaRequest {
            cpe: 0,
            direction: DmaDirection::MemToSpm,
            mem_offset: 0,
            spm_offset: 0,
            block_elems: 8,
            stride_elems: 4,
            n_blocks: 2,
        };
        assert!(r.validate().is_err());
        let r = DmaRequest::contiguous(64, DmaDirection::MemToSpm, 0, 0, 4);
        assert!(r.validate().is_err());
    }

    #[test]
    fn engine_serialises_batches() {
        let mut e = DmaEngine::new();
        let c = cfg();
        let reqs = vec![DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 1024)];
        let f1 = e.schedule(&c, Cycles(0), &reqs).unwrap();
        // Second batch issued at time 0 must queue behind the first.
        let f2 = e.schedule(&c, Cycles(0), &reqs).unwrap();
        assert!(f2.get() >= 2 * f1.get());
        assert_eq!(e.batches, 2);
        assert_eq!(e.payload_bytes, 2 * 4096);
    }

    #[test]
    fn engine_duration_scales_with_bytes() {
        let mut e = DmaEngine::new();
        let c = cfg();
        let small = vec![DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 256)];
        let big = vec![DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, 256 * 64)];
        let f_small = e.schedule(&c, Cycles(0), &small).unwrap();
        let mut e2 = DmaEngine::new();
        let f_big = e2.schedule(&c, Cycles(0), &big).unwrap();
        assert!(f_big > f_small);
        // Large contiguous transfers approach peak bandwidth: efficiency 1.
        assert!((e2.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reply_word_wait_semantics() {
        let mut r = ReplyWord::new();
        r.push(Cycles(100));
        r.push(Cycles(50));
        assert_eq!(r.pending(), 2);
        assert_eq!(r.wait(2).unwrap(), Cycles(100));
        assert_eq!(r.pending(), 0);
        assert!(r.wait(1).is_err());
        r.push(Cycles(70));
        assert_eq!(r.wait(1).unwrap(), Cycles(70));
    }
}
