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
/// `DMA_CPE` nodes through [`StartClasses`] without building request
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

/// The start addresses of transfers that share `block_elems`, `stride_elems`
/// and `n_blocks` and differ only in where they start — the 64 per-CPE (or
/// 8 per-leader) requests of one `DMA_CPE` node — reduced to what their bus
/// bytes depend on.
///
/// A transfer's [`bus_bytes`] depend on its start only through the start's
/// byte address modulo the transaction size (moving a transfer by whole
/// transactions moves every block's first and last transaction alike), i.e.
/// through the start modulo `period = txn_bytes / gcd(txn_bytes, 4)`
/// elements. The starts of a node are an affine function of the mesh
/// coordinates, so their distances from the first start are fixed; grouped
/// by distance modulo the period they form at most `period` classes
/// (usually 1–8 for a tile whose rows are a few transactions apart), and
/// the node's total is a function of the *first* start's residue alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartClasses {
    /// `(q, count)`: `count` transfers start `q` elements, modulo the
    /// period, after the first one.
    classes: Vec<(usize, usize)>,
    /// Elements after which start residues repeat.
    period: usize,
    txn_bytes: usize,
}

impl StartClasses {
    /// Classes of the transfers starting `relative_starts` elements after
    /// (negative: before) the first of them: each start is counted in a
    /// residue-indexed table — a mask, not a division, when the period is a
    /// power of two, as it is for the machine's 128-byte transactions — whose
    /// occupied entries are the classes.
    pub fn new(relative_starts: impl IntoIterator<Item = i64>, txn_bytes: usize) -> Self {
        let period = start_period(txn_bytes);
        let (mut table, mut spill) = ([0u32; 64], Vec::new());
        let counts: &mut [u32] = if period <= table.len() {
            &mut table[..period]
        } else {
            spill.resize(period, 0);
            &mut spill
        };
        if period.is_power_of_two() {
            let mask = period as i64 - 1;
            relative_starts.into_iter().for_each(|rel| counts[(rel & mask) as usize] += 1);
        } else {
            let p = period as i64;
            relative_starts.into_iter().for_each(|rel| counts[rel.rem_euclid(p) as usize] += 1);
        }
        let classes = (0..period)
            .filter(|&q| counts[q] > 0)
            .map(|q| (q, counts[q] as usize))
            .collect();
        StartClasses { classes, period, txn_bytes }
    }

    /// [`StartClasses::new`] as it was: a division and a linear search per
    /// start. The oracle of the residue-indexed construction.
    #[cfg(test)]
    fn by_search(relative_starts: impl IntoIterator<Item = i64>, txn_bytes: usize) -> Self {
        let period = start_period(txn_bytes);
        let mut classes: Vec<(usize, usize)> = Vec::new();
        for rel in relative_starts {
            let q = rel.rem_euclid(period as i64) as usize;
            match classes.iter_mut().find(|c| c.0 == q) {
                Some(class) => class.1 += 1,
                None => classes.push((q, 1)),
            }
        }
        StartClasses { classes, period, txn_bytes }
    }

    /// The residue of `first_start` that [`StartClasses::bus_bytes`] depends
    /// on: equal residues give equal totals.
    pub fn residue(&self, first_start: usize) -> usize {
        if self.period.is_power_of_two() {
            first_start & (self.period - 1)
        } else {
            first_start % self.period
        }
    }

    /// Total [`bus_bytes`] of the transfers when the first of them starts at
    /// element `first_start`: one evaluation per class.
    pub fn bus_bytes(
        &self,
        first_start: usize,
        block_elems: usize,
        stride_elems: usize,
        n_blocks: usize,
    ) -> usize {
        let residue = self.residue(first_start);
        self.classes
            .iter()
            .map(|&(q, count)| {
                count * bus_bytes(residue + q, block_elems, stride_elems, n_blocks, self.txn_bytes)
            })
            .sum()
    }
}

/// Elements after which a transfer's [`bus_bytes`] repeat as its start
/// moves: a start's byte address matters only modulo the transaction size.
pub fn start_period(txn_bytes: usize) -> usize {
    txn_bytes / gcd(txn_bytes, ELEM_BYTES)
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// One `swDMA` batch reduced to what the machine charges, counts and traces
/// for it. [`DmaBatch::of`] prices request structures one call at a time (the
/// Functional interpreter, hand-written drivers); the cost-only interpreter
/// fills one in from its per-node [`StartClasses`] table. Either way the
/// batch reaches the engine, the counters and the trace through
/// `CoreGroup::issue` alone (`tests/evaluator_equiv.rs` holds the producers
/// to one another).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaBatch {
    pub direction: DmaDirection,
    /// Bytes crossing the DRAM bus: whole transactions per block.
    pub bus_bytes: usize,
    /// Blocks of all requests together: one descriptor each.
    pub blocks: usize,
    pub payload_bytes: usize,
    /// One past the highest SPM element a get lands in; 0 for a put.
    pub spm_end: usize,
    /// Broadcast batches only: the cycles of the leaders' register-bus phase
    /// ([`crate::regcomm::dma_scatter_cycles`]) — a get's scatter, between
    /// the end of the transfer and the reply-word completion, or a put's
    /// gather, between the issue and the start of the transfer.
    pub regcomm: Option<Cycles>,
}

impl DmaBatch {
    /// Validate `requests` — the DRAM side of a batch — and price each of
    /// them, once. `lands` are the requests whose SPM side the batch fills:
    /// `requests` again, or the 64 per-CPE blocks of a broadcast.
    pub fn of(
        cfg: &MachineConfig,
        direction: DmaDirection,
        requests: &[DmaRequest],
        lands: &[DmaRequest],
    ) -> MachineResult<DmaBatch> {
        if requests.is_empty() {
            return Err(MachineError::BadDmaRequest("empty batch".into()));
        }
        if requests.iter().chain(lands).any(|r| r.direction != direction) {
            return Err(MachineError::BadDmaRequest("mixed directions in one batch".into()));
        }
        let mut batch = DmaBatch {
            direction,
            bus_bytes: 0,
            blocks: 0,
            payload_bytes: 0,
            spm_end: 0,
            regcomm: None,
        };
        for r in requests {
            r.validate()?;
            batch.bus_bytes += r.bus_bytes(cfg.dram_transaction_bytes);
            batch.blocks += r.n_blocks;
            batch.payload_bytes += r.total_bytes();
        }
        if direction == DmaDirection::MemToSpm {
            batch.spm_end =
                lands.iter().map(|r| r.spm_offset + r.total_elems()).max().unwrap_or(0);
        }
        Ok(batch)
    }
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
}

impl DmaEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `batch` at `now`, returning when its transfer completes. A
    /// `chained` batch is issued back-to-back with its predecessor: its
    /// descriptors ride the already-open engine pipeline, so the per-batch
    /// start-up latency is waived — it still queues behind in-flight work.
    /// When the engine is next free.
    pub(crate) fn free_at(&self) -> Cycles {
        self.free_at
    }

    /// Move the engine's clock `dt` later (steady-state extrapolation).
    pub(crate) fn delay(&mut self, dt: Cycles) {
        self.free_at += dt;
    }

    pub fn schedule(
        &mut self,
        cfg: &MachineConfig,
        now: Cycles,
        batch: &DmaBatch,
        chained: bool,
    ) -> Cycles {
        let transfer = (batch.bus_bytes as f64 / cfg.mem_bytes_per_cycle).ceil() as u64;
        let startup = if chained { Cycles::ZERO } else { cfg.dma_startup };
        let duration = startup
            + Cycles(cfg.dma_block_overhead.get() * batch.blocks as u64)
            + Cycles(transfer);
        self.free_at = now.max(self.free_at) + duration;
        self.free_at
    }
}

/// Completion bookkeeping shared by `swDMA`/`swDMAWait`: the reply word is
/// incremented by the engine when a transfer finishes; `swDMAWait(reply, n)`
/// spins until `n` completions arrived. The model stores the completion
/// *times* so a wait advances the compute clock to the latest one — and only
/// those that can still be waited for: a wait releases what it consumed, so a
/// long run holds as many times as it ever had in flight, not one per DMA.
#[derive(Debug, Clone, Default)]
pub struct ReplyWord {
    /// Completion times issued and not yet waited for, oldest first.
    in_flight: Vec<Cycles>,
    waited: usize,
}

impl ReplyWord {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a transfer completing at `at`.
    pub fn push(&mut self, at: Cycles) {
        self.in_flight.push(at);
    }

    /// Number of completions issued so far.
    pub fn issued(&self) -> usize {
        self.waited + self.in_flight.len()
    }

    /// Wait for `n` more completions (beyond those already waited for);
    /// returns the cycle at which the last of them finishes.
    pub fn wait(&mut self, n: usize) -> MachineResult<Cycles> {
        if n > self.in_flight.len() {
            return Err(MachineError::ReplyUnderflow {
                expected: self.waited + n,
                issued: self.issued(),
            });
        }
        self.waited += n;
        Ok(self.in_flight.drain(..n).max().unwrap_or(Cycles::ZERO))
    }

    /// Completions not yet waited for.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    /// The completion times still in flight, oldest first.
    pub(crate) fn in_flight(&self) -> &[Cycles] {
        &self.in_flight
    }

    /// Completions waited for so far.
    pub(crate) fn waited(&self) -> usize {
        self.waited
    }

    /// Move every completion in flight `dt` later and count `waits` more
    /// completions as waited for (steady-state extrapolation).
    pub(crate) fn delay(&mut self, dt: Cycles, waits: usize) {
        self.in_flight.iter_mut().for_each(|t| *t += dt);
        self.waited += waits;
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
    fn start_classes_are_a_function_of_the_first_residue() {
        // Negative and zero mesh coefficients, a transaction that is not a
        // multiple of the element size, and one with more than 32 residues.
        for &(cr, cc, block, stride, n, txn) in &[
            (-100i64, 7i64, 5usize, 33usize, 9usize, 128usize),
            (0, -3, 2, 19, 4, 128),
            (9, 1, 3, 130, 4, 512),
            (5, 2, 3, 11, 6, 6),
            (0, 0, 1, 1, 1, 96),
        ] {
            let rel = || (0..64i64).map(move |cpe| cr * (cpe / 8) + cc * (cpe % 8));
            let classes = StartClasses::new(rel(), txn);
            assert_eq!(classes.classes.iter().map(|c| c.1).sum::<usize>(), 64);
            assert!(classes.classes.len() <= classes.period);
            for first in 1000..1000 + 2 * classes.period {
                let each: usize = rel()
                    .map(|r| bus_bytes((first as i64 + r) as usize, block, stride, n, txn))
                    .sum();
                assert_eq!(classes.bus_bytes(first, block, stride, n), each, "txn {txn} at {first}");
                let same = first + 3 * classes.period;
                assert_eq!(classes.residue(first), classes.residue(same));
                assert_eq!(classes.bus_bytes(same, block, stride, n), each);
            }
        }
    }

    #[test]
    fn the_residue_table_prices_what_the_search_priced() {
        // Mesh coefficients aligned, unaligned and negative; the 64 CPEs or
        // 8 leaders; every transaction size from 64 to 512 bytes that the
        // table indexes by mask, and two it indexes by division.
        let mut cases = 0;
        for txn in [64, 96, 128, 192, 256, 384, 512] {
            for (cr, cc) in [(256i64, 32i64), (1024, 8), (100, 4), (-37, 5), (170, -3), (0, 0)] {
                for leaders in [false, true] {
                    let rel = move || {
                        let n = if leaders { 8 } else { 64 };
                        (0..n).map(move |cpe: i64| {
                            if leaders {
                                cr * cpe
                            } else {
                                cr * (cpe / 8) + cc * (cpe % 8)
                            }
                        })
                    };
                    let (new, old) =
                        (StartClasses::new(rel(), txn), StartClasses::by_search(rel(), txn));
                    let mut sorted = old.classes.clone();
                    sorted.sort_unstable();
                    assert_eq!(new.classes, sorted, "txn {txn} ({cr}, {cc})");
                    for (block, stride, n) in [(1, 1, 1), (7, 19, 4), (16, 144, 16), (33, 40, 3)] {
                        for first in 4096..4096 + new.period {
                            assert_eq!(new.residue(first), old.residue(first));
                            assert_eq!(
                                new.bus_bytes(first, block, stride, n),
                                old.bus_bytes(first, block, stride, n),
                                "txn {txn} ({cr}, {cc}) at {first}"
                            );
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 10_000, "{cases}");
    }

    /// `n` contiguous elements from address 0, priced.
    fn contiguous(cfg: &MachineConfig, n: usize) -> DmaBatch {
        let r = [DmaRequest::contiguous(0, DmaDirection::MemToSpm, 0, 0, n)];
        DmaBatch::of(cfg, DmaDirection::MemToSpm, &r, &r).unwrap()
    }

    #[test]
    fn a_batch_is_its_requests_priced_one_by_one() {
        let strided = DmaRequest {
            cpe: 3,
            direction: DmaDirection::MemToSpm,
            mem_offset: 5,
            spm_offset: 16,
            block_elems: 7,
            stride_elems: 64,
            n_blocks: 4,
        };
        let reqs = [DmaRequest::contiguous(0, DmaDirection::MemToSpm, 31, 0, 2), strided];
        let b = DmaBatch::of(&cfg(), DmaDirection::MemToSpm, &reqs, &reqs).unwrap();
        assert_eq!(b.bus_bytes, reqs.iter().map(|r| r.bus_bytes(128)).sum::<usize>());
        assert_eq!((b.blocks, b.payload_bytes, b.spm_end), (5, (2 + 28) * 4, 16 + 28));
        assert_eq!(b.regcomm, None);
        // A put lands nowhere in the SPM; an empty or mixed batch is no batch.
        let put = [DmaRequest::contiguous(0, DmaDirection::SpmToMem, 0, 9, 8)];
        assert_eq!(DmaBatch::of(&cfg(), DmaDirection::SpmToMem, &put, &put).unwrap().spm_end, 0);
        assert!(DmaBatch::of(&cfg(), DmaDirection::MemToSpm, &[], &[]).is_err());
        assert!(DmaBatch::of(&cfg(), DmaDirection::MemToSpm, &put, &put).is_err());
        assert!(DmaBatch::of(&cfg(), DmaDirection::MemToSpm, &reqs, &put).is_err());
    }

    #[test]
    fn chained_batch_waives_exactly_the_startup() {
        let cfg = cfg();
        let batch = contiguous(&cfg, 128);
        let f_plain = DmaEngine::new().schedule(&cfg, Cycles::ZERO, &batch, false);
        let f_chained = DmaEngine::new().schedule(&cfg, Cycles::ZERO, &batch, true);
        assert_eq!(f_plain, f_chained + cfg.dma_startup);
    }

    #[test]
    fn chained_batch_still_queues_behind_in_flight_work() {
        let cfg = cfg();
        let batch = contiguous(&cfg, 128);
        let mut e = DmaEngine::new();
        let first = e.schedule(&cfg, Cycles::ZERO, &batch, false);
        // Issued at t=0 while the first batch is in flight: starts at its
        // completion, not at issue time.
        let second = e.schedule(&cfg, Cycles::ZERO, &batch, true);
        // Block overhead + transfer of 512 B, no start-up.
        let duration = Cycles(cfg.dma_block_overhead.get())
            + Cycles((512f64 / cfg.mem_bytes_per_cycle).ceil() as u64);
        assert_eq!(second - first, duration);
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
        let batch = contiguous(&c, 1024);
        let f1 = e.schedule(&c, Cycles(0), &batch, false);
        // Second batch issued at time 0 must queue behind the first.
        let f2 = e.schedule(&c, Cycles(0), &batch, false);
        assert!(f2.get() >= 2 * f1.get());
    }

    #[test]
    fn engine_duration_scales_with_bytes() {
        let c = cfg();
        let (small, big) = (contiguous(&c, 256), contiguous(&c, 256 * 64));
        let f_small = DmaEngine::new().schedule(&c, Cycles(0), &small, false);
        let f_big = DmaEngine::new().schedule(&c, Cycles(0), &big, false);
        assert!(f_big > f_small);
        // Large contiguous transfers waste no bus bytes.
        assert_eq!(big.bus_bytes, big.payload_bytes);
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

    #[test]
    fn reply_word_holds_only_what_is_in_flight() {
        let mut r = ReplyWord::new();
        for round in 0..10_000u64 {
            for k in 0..3 {
                r.push(Cycles(round * 10 + k));
            }
            assert_eq!(r.wait(2).unwrap(), Cycles(round * 10 + 1));
            assert_eq!(r.wait(1).unwrap(), Cycles(round * 10 + 2));
            assert!(r.in_flight.is_empty() && r.in_flight.capacity() <= 4);
        }
        assert_eq!((r.issued(), r.pending()), (30_000, 0));
    }
}
