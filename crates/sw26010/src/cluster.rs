//! The core group: 64 CPEs + SPMs + DMA engine + clocks, glued together.
//!
//! Generated programs (IR interpreters, hand-written baselines, micro-kernel
//! drivers) run against this structure. The CPEs execute in lockstep — every
//! operation we model (DMA batches, GEMM primitives, auxiliary compute) is
//! data-parallel and symmetric across the cluster, so a single compute clock
//! suffices; asymmetry would show up as load imbalance, which none of the
//! schedules in the paper produce.

use crate::clock::Cycles;
use crate::config::MachineConfig;
use crate::counters::Counters;
use crate::dma::{DmaBatch, DmaDirection, DmaEngine, DmaRequest, ReplyWord};
use crate::error::{MachineError, MachineResult};
use crate::fault::{FaultSession, MiscompilePlan, MiscompileSession};
use crate::mem::MainMemory;
use crate::spm::Spm;
use crate::trace::{Event, Trace};
use crate::N_CPE;

/// Whether data is actually moved/computed or only clocks advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Move real data; results are checkable against references.
    Functional,
    /// Advance clocks only. Used by autotuners measuring simulated time on
    /// workloads too large to compute functionally.
    CostOnly,
}

/// Handle to a reply word registered with the core group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplyId(pub usize);

/// A core group's clocks and tallies at one instant, as steady-state
/// extrapolation reads them ([`CoreGroup::snapshot`]).
///
/// Two snapshots of one run are in the *same state*
/// ([`Snapshot::same_state`]) when everything the machine reads of its past
/// is equal relative to its clock: the DMA engine's backlog
/// `max(free_at − now, 0)`, the chain flag, and every reply word's in-flight
/// completions as `max(t − now, 0)`. Nothing in the machine reads an
/// absolute time except through `max` or `saturating_sub` against `now`, so
/// from two such instants the same work takes the same cycles, counts the
/// same [`Counters`] and fails with the same error.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    now: Cycles,
    flops: u64,
    next_tag: u32,
    counters: Counters,
    backlog: Cycles,
    chain_next: bool,
    /// Per reply word: how many completions are in flight, then each one's
    /// `max(t − now, 0)`.
    in_flight: Vec<u64>,
    /// Per reply word: completions waited for.
    waited: Vec<usize>,
}

impl Snapshot {
    /// Whether the machine is in the same relative state at both instants.
    pub fn same_state(&self, other: &Snapshot) -> bool {
        self.backlog == other.backlog
            && self.chain_next == other.chain_next
            && self.in_flight == other.in_flight
    }
}

/// One simulated core group.
#[derive(Debug, Clone)]
pub struct CoreGroup {
    pub cfg: MachineConfig,
    pub mem: MainMemory,
    spms: Vec<Spm>,
    dma: DmaEngine,
    now: Cycles,
    replies: Vec<ReplyWord>,
    pub trace: Trace,
    mode: ExecMode,
    /// Floating-point operations executed (for efficiency reporting).
    pub flops: u64,
    /// Aggregate machine counters for the current run (DMA traffic, stall
    /// cycles, kernel issue counts, SPM high-water mark). Incremented
    /// unconditionally — plain integer adds on a `Copy` struct, so the
    /// cost-only hot path stays allocation-free.
    pub counters: Counters,
    next_tag: u32,
    /// One-shot chaining flag set by [`CoreGroup::dma_chain_next`]: the next
    /// DMA batch is issued back-to-back with its predecessor and skips the
    /// engine start-up latency.
    chain_next: bool,
    /// Active fault stream, present iff `cfg.fault` is set. Rearmed per
    /// measurement run via [`CoreGroup::arm_faults`].
    faults: Option<FaultSession>,
    /// Active miscompile injection, armed explicitly via
    /// [`CoreGroup::arm_miscompile`] (validator self-tests only — never part
    /// of a machine config). Only functional data movement is affected, so
    /// cost-only clocks stay bit-identical with and without an injection.
    mis: Option<MiscompileSession>,
}

impl CoreGroup {
    pub fn new(cfg: MachineConfig, mode: ExecMode) -> Self {
        // Cost-only simulation never reads or writes SPM contents, so the
        // 64 × 64 KB backing stores stay lazy — constructing a core group
        // per tuning candidate (and per worker thread) is then allocation-
        // free up to the first functional write.
        let spms = (0..N_CPE)
            .map(|i| match mode {
                ExecMode::Functional => Spm::new(i, cfg.spm_bytes),
                ExecMode::CostOnly => Spm::lazy(i, cfg.spm_bytes),
            })
            .collect();
        let faults = cfg.fault.map(|p| p.session(0, 0));
        CoreGroup {
            cfg,
            mem: MainMemory::new(),
            spms,
            dma: DmaEngine::new(),
            now: Cycles::ZERO,
            replies: Vec::new(),
            trace: Trace::disabled(),
            mode,
            flops: 0,
            counters: Counters::default(),
            next_tag: 0,
            chain_next: false,
            faults,
            mis: None,
        }
    }

    /// Re-derive the fault stream for a specific `(run, attempt)` pair; see
    /// [`FaultPlan::session`](crate::fault::FaultPlan::session). No-op on a
    /// fault-free machine. Tuners call this before every timed execution so
    /// injected faults depend only on the candidate's identity, never on
    /// worker count or evaluation order.
    pub fn arm_faults(&mut self, run: u64, attempt: u32) {
        self.faults = self.cfg.fault.map(|p| p.session(run, attempt));
    }

    /// Arm (or disarm, with `None`) a seeded miscompile injection for the
    /// next execution; see [`MiscompilePlan`]. Used by validator self-tests
    /// to prove that differential validation catches each corruption class.
    pub fn arm_miscompile(&mut self, plan: Option<MiscompilePlan>) {
        self.mis = plan.map(|p| p.session());
    }

    /// Number of miscompile events the armed injection has fired so far.
    /// Zero with no injection armed. A test asserting "the validator caught
    /// the injection" must also assert this is nonzero, or a schedule that
    /// never exercised the corrupted path would pass vacuously.
    pub fn miscompile_events(&self) -> u64 {
        self.mis.as_ref().map_or(0, MiscompileSession::events)
    }

    /// Should this `SpmSlot::Double` resolution read the wrong parity?
    /// Consulted by IR interpreters; fires only in functional mode (and only
    /// under an armed [`MiscompileKind::SwapParity`](crate::fault::MiscompileKind)
    /// injection), so cost-only execution is untouched.
    pub fn miscompile_flip_parity(&mut self) -> bool {
        self.mode == ExecMode::Functional
            && self.mis.as_mut().is_some_and(MiscompileSession::flip_parity)
    }

    /// Effective SPM capacity (in f32 elements) for the current run: the
    /// nominal capacity, minus whatever the active fault session stole.
    pub fn spm_capacity_elems(&self) -> usize {
        let full = self.cfg.spm_elems();
        self.faults.as_ref().map_or(full, |f| f.spm_capacity(full))
    }

    /// Filter a measured cycle count through the fault session's jitter
    /// model. Identity on a fault-free machine. Callers apply this once per
    /// observation — at the measurement boundary, not inside the simulation,
    /// so functional/cost-only clock equality is untouched.
    pub fn observed(&mut self, c: Cycles) -> Cycles {
        match &mut self.faults {
            Some(f) => f.jitter(c),
            None => c,
        }
    }

    /// Convenience: default config.
    pub fn with_mode(mode: ExecMode) -> Self {
        Self::new(MachineConfig::default(), mode)
    }

    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Current compute-stream time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Whether [`CoreGroup::extrapolate`] reproduces this machine exactly: in
    /// cost-only mode, with no fault session (it draws once per batch) and no
    /// trace (it records every event).
    pub fn can_extrapolate(&self) -> bool {
        self.mode == ExecMode::CostOnly && self.faults.is_none() && !self.trace.is_enabled()
    }

    /// Record the machine's present state in `into`, reusing its storage.
    pub fn snapshot(&self, into: &mut Snapshot) {
        let now = self.now;
        into.now = now;
        into.flops = self.flops;
        into.next_tag = self.next_tag;
        into.counters = self.counters;
        into.backlog = self.dma.free_at().saturating_sub(now);
        into.chain_next = self.chain_next;
        into.in_flight.clear();
        into.waited.clear();
        for word in &self.replies {
            let times = word.in_flight();
            into.in_flight.push(times.len() as u64);
            into.in_flight.extend(times.iter().map(|t| t.saturating_sub(now).get()));
            into.waited.push(word.waited());
        }
    }

    /// Advance the machine as if the stretch of execution from snapshot
    /// `from` to snapshot `to` — which must be the present state, in the
    /// [same state](Snapshot::same_state) as `from` — ran `n` more times:
    /// the clock, the engine and every completion in flight move `n·Δnow`
    /// later; `Counters`, flops, waits and trace tags grow by `n` times the
    /// stretch's; the SPM high-water mark stays. Exact when the caller
    /// guarantees the repetitions would issue what the stretch issued, in
    /// order, and [`CoreGroup::can_extrapolate`] holds.
    pub fn extrapolate(&mut self, from: &Snapshot, to: &Snapshot, n: u64) {
        debug_assert!(self.now == to.now && from.same_state(to));
        let dt = Cycles(n * (to.now - from.now).get());
        self.now += dt;
        self.dma.delay(dt);
        for (word, (w1, w0)) in self.replies.iter_mut().zip(to.waited.iter().zip(&from.waited)) {
            word.delay(dt, n as usize * (w1 - w0));
        }
        self.counters.add_scaled(&to.counters.since(&from.counters), n);
        self.flops += n * (to.flops - from.flops);
        self.next_tag += n as u32 * (to.next_tag - from.next_tag);
    }

    /// Mark the next DMA batch as *chained*: it is issued back-to-back with
    /// the immediately preceding batch (no intervening wait or compute), so
    /// its descriptors ride the engine's open pipeline — the per-batch
    /// start-up latency is waived and no new batch group is counted. The
    /// flag is consumed by the next `dma*` call. Interpreters set it for
    /// IR nodes carrying the optimizer's batch-fusion mark.
    pub fn dma_chain_next(&mut self) {
        self.chain_next = true;
    }

    /// Advance the compute stream by `c` cycles of work.
    pub fn advance(&mut self, c: Cycles) {
        self.now += c;
    }

    /// Record `c` cycles of auxiliary compute (transform, padding copy…)
    /// with an explanatory label.
    pub fn compute(&mut self, c: Cycles, what: &'static str) {
        if self.trace.is_enabled() {
            let at = self.now;
            self.trace.push(Event::Compute { at, cycles: c, what });
        }
        self.now += c;
        self.counters.compute_cycles += c.get();
    }

    /// Record a GEMM kernel execution of `c` cycles performing `flops`.
    pub fn kernel(&mut self, c: Cycles, flops: u64, m: usize, n: usize, k: usize) {
        if self.trace.is_enabled() {
            let at = self.now;
            self.trace.push(Event::Gemm { at, cycles: c, m, n, k });
        }
        self.now += c;
        self.flops += flops;
        self.counters.kernel_calls += 1;
        self.counters.kernel_cycles += c.get();
        self.counters.flops += flops;
    }

    /// Register a fresh reply word.
    pub fn alloc_reply(&mut self) -> ReplyId {
        self.replies.push(ReplyWord::new());
        ReplyId(self.replies.len() - 1)
    }

    /// Pending (issued, un-waited) completions on a reply word. Unknown
    /// reply ids report zero pending completions.
    pub fn reply_pending(&self, id: ReplyId) -> usize {
        self.replies.get(id.0).map_or(0, ReplyWord::pending)
    }

    /// Checked mutable access to a reply word: generated code referencing a
    /// reply it never allocated is a schedule bug, surfaced as an error
    /// instead of an index panic.
    fn reply_mut(&mut self, id: ReplyId) -> MachineResult<&mut ReplyWord> {
        let n = self.replies.len();
        self.replies.get_mut(id.0).ok_or_else(|| {
            MachineError::Invalid(format!("unknown reply word {} ({n} allocated)", id.0))
        })
    }

    /// The one path a DMA batch takes through the machine, whoever priced
    /// it: consume the chain flag, charge the issue cost, consult the fault
    /// session (a hit models the engine dropping the batch after the CPE
    /// already paid for the issue), schedule the engine, count, trace and
    /// record the completion on `reply`. Returns whether the batch chained.
    fn issue(&mut self, batch: DmaBatch, reply: ReplyId) -> MachineResult<bool> {
        let chained = std::mem::take(&mut self.chain_next);
        self.now += self.cfg.dma_issue_cost;
        if self.faults.as_mut().is_some_and(FaultSession::dma_fault) {
            return Err(MachineError::DmaFault { batch: self.counters.dma_batches });
        }
        // The scatter serialises after the transfer on the mesh, not on the
        // engine: it delays the completion, never the next batch.
        let scatter = batch.scatter.unwrap_or(Cycles::ZERO);
        let finish = self.dma.schedule(&self.cfg, self.now, &batch, chained) + scatter;
        // 7 of every 8 panel bytes travel the mesh from a leader to a peer.
        let scattered = batch.payload_bytes / 8 * 7;
        self.counters.dma_payload_bytes += batch.payload_bytes as u64;
        self.counters.dma_bus_bytes += batch.bus_bytes as u64;
        self.counters.dma_batches += u64::from(!chained);
        self.counters.note_spm_use(batch.spm_end as u64);
        if batch.scatter.is_some() {
            self.counters.dma_bcast_batches += 1;
            self.counters.regcomm_bytes += scattered as u64;
        }
        // Pure observation: no clock is touched.
        if self.trace.is_enabled() {
            self.trace.push(Event::DmaIssue {
                at: self.now,
                done: finish,
                direction: batch.direction,
                payload_bytes: batch.payload_bytes,
                bus_bytes: batch.bus_bytes,
                tag: self.next_tag,
            });
            if batch.scatter.is_some() {
                self.trace.push(Event::Regcomm {
                    at: finish.saturating_sub(scatter),
                    cycles: scatter,
                    bytes: scattered,
                });
            }
        }
        self.reply_mut(reply)?.push(finish);
        self.next_tag += 1;
        Ok(chained)
    }

    /// Issue `batch` and, in functional mode, move the data of `lands`. The
    /// movement happens "at issue": the engine snapshots the source.
    /// Generated programs must not overwrite a source before waiting, which
    /// the wait discipline of the IR interpreter enforces.
    fn issue_and_copy(
        &mut self,
        batch: DmaBatch,
        lands: &[DmaRequest],
        reply: ReplyId,
    ) -> MachineResult<()> {
        let chained = self.issue(batch, reply)?;
        if self.mode != ExecMode::Functional
            || (chained && self.mis.as_mut().is_some_and(MiscompileSession::drop_fused_copy))
        {
            return Ok(());
        }
        for r in lands {
            self.copy(r)?;
            if self.mis.as_mut().is_some_and(MiscompileSession::corrupt_copy) {
                self.corrupt(r)?;
            }
        }
        Ok(())
    }

    /// Issue an asynchronous DMA batch (the `swDMA` primitive, one request
    /// per participating CPE). The compute stream pays only the issue cost;
    /// the transfer proceeds in the background and its completion time is
    /// recorded on `reply`.
    pub fn dma(
        &mut self,
        direction: DmaDirection,
        requests: &[DmaRequest],
        reply: ReplyId,
    ) -> MachineResult<()> {
        let batch = DmaBatch::of(&self.cfg, direction, requests, requests)?;
        self.issue_and_copy(batch, requests, reply)
    }

    /// Issue a *broadcast* DMA batch: one leader CPE per mesh row (or
    /// column) fetches the whole line's panels from DRAM and scatters them
    /// to its 7 peers over the register-communication bus. The DRAM side of
    /// the batch is `leader_requests` (8 wide fetches instead of 64 narrow
    /// ones — fewer descriptors, full transactions); `requests` still
    /// describes the per-CPE destination blocks and is what moves data in
    /// functional mode, so delivered SPM bytes are identical to the
    /// non-broadcast batch. The scatter (`scatter` cycles, see
    /// [`crate::regcomm::dma_scatter_cycles`]) serialises after the
    /// transfer and before the reply-word completion; the panel streams
    /// through the leader's registers, so no extra SPM staging is modelled.
    pub fn dma_bcast(
        &mut self,
        direction: DmaDirection,
        leader_requests: &[DmaRequest],
        requests: &[DmaRequest],
        scatter: Cycles,
        reply: ReplyId,
    ) -> MachineResult<()> {
        if leader_requests.is_empty() || requests.is_empty() {
            return Err(MachineError::BadDmaRequest("empty broadcast batch".into()));
        }
        let batch = DmaBatch::of(&self.cfg, direction, leader_requests, requests)?;
        self.issue_and_copy(DmaBatch { scatter: Some(scatter), ..batch }, requests, reply)
    }

    /// Issue a batch the caller priced itself — the cost-only interpreter,
    /// from its per-node [`crate::dma::StartClasses`] table: no request
    /// structures are built and no data moves. Clock, counters and trace are
    /// those of the equivalent [`CoreGroup::dma`] / [`CoreGroup::dma_bcast`].
    pub fn dma_priced(&mut self, batch: DmaBatch, reply: ReplyId) -> MachineResult<()> {
        self.issue(batch, reply).map(drop)
    }

    /// Wait for `times` completions on `reply` (the `swDMAWait` primitive).
    pub fn dma_wait(&mut self, reply: ReplyId, times: usize) -> MachineResult<()> {
        self.now += self.cfg.dma_wait_poll;
        let done = self.reply_mut(reply)?.wait(times)?;
        let stall = done.saturating_sub(self.now);
        self.counters.dma_waits += 1;
        self.counters.dma_stall_cycles += stall.get();
        if self.trace.is_enabled() {
            let at = self.now;
            let tag = self.next_tag;
            self.trace.push(Event::DmaWait { at, stall, tag });
        }
        self.now = self.now.max(done);
        Ok(())
    }

    /// Immutable access to one CPE's SPM.
    pub fn spm(&self, cpe: usize) -> &Spm {
        &self.spms[cpe]
    }

    /// Mutable access to one CPE's SPM.
    pub fn spm_mut(&mut self, cpe: usize) -> &mut Spm {
        &mut self.spms[cpe]
    }

    /// Achieved GFLOPS of the run so far.
    pub fn achieved_gflops(&self) -> f64 {
        crate::clock::gflops(self.flops, self.now, self.cfg.clock_ghz)
    }

    /// Fraction of peak achieved so far.
    pub fn efficiency(&self) -> f64 {
        self.cfg.efficiency(self.flops, self.now)
    }

    /// Flip an exponent bit of the first destination element of a request
    /// that just copied — the [`MiscompileKind::CorruptPayload`]
    /// (crate::fault::MiscompileKind) event. The change is far above any
    /// ulp-level comparison tolerance, so a validator that re-reads the
    /// result must see it (if the element ever reaches an output).
    fn corrupt(&mut self, r: &DmaRequest) -> MachineResult<()> {
        let flip = |x: f32| f32::from_bits(x.to_bits() ^ 0x4000_0000);
        match r.direction {
            DmaDirection::MemToSpm => {
                let s = self.spms[r.cpe].slice_mut(r.spm_offset, 1)?;
                s[0] = flip(s[0]);
            }
            DmaDirection::SpmToMem => {
                self.mem.check_abs(r.mem_offset, 1)?;
                let a = self.mem.arena_mut();
                a[r.mem_offset] = flip(a[r.mem_offset]);
            }
        }
        Ok(())
    }

    fn copy(&mut self, r: &DmaRequest) -> MachineResult<()> {
        let total = r.total_elems();
        match r.direction {
            DmaDirection::MemToSpm => {
                self.spms[r.cpe].slice(r.spm_offset, total)?;
                for b in 0..r.n_blocks {
                    let src = r.mem_offset + b * r.stride_elems;
                    self.mem.check_abs(src, r.block_elems)?;
                    let dst_off = r.spm_offset + b * r.block_elems;
                    let arena = self.mem.arena();
                    let block = &arena[src..src + r.block_elems];
                    self.spms[r.cpe]
                        .slice_mut(dst_off, r.block_elems)?
                        .copy_from_slice(block);
                }
            }
            DmaDirection::SpmToMem => {
                self.spms[r.cpe].slice(r.spm_offset, total)?;
                for b in 0..r.n_blocks {
                    let dst = r.mem_offset + b * r.stride_elems;
                    self.mem.check_abs(dst, r.block_elems)?;
                    let src_off = r.spm_offset + b * r.block_elems;
                    let block = self.spms[r.cpe].slice(src_off, r.block_elems)?;
                    self.mem.arena_mut()[dst..dst + r.block_elems].copy_from_slice(block);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::DmaDirection::*;

    fn cg() -> CoreGroup {
        CoreGroup::with_mode(ExecMode::Functional)
    }

    #[test]
    fn dma_roundtrip_moves_data() {
        let mut cg = cg();
        let src: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let a = cg.mem.alloc_from("a", &src);
        let b = cg.mem.alloc("b", 256);
        let base_a = cg.mem.base(a);
        let base_b = cg.mem.base(b);

        let reply = cg.alloc_reply();
        cg.dma(MemToSpm, &[DmaRequest::contiguous(3, MemToSpm, base_a, 0, 256)], reply)
            .unwrap();
        cg.dma_wait(reply, 1).unwrap();
        assert_eq!(cg.spm(3).load(255).unwrap(), 255.0);

        cg.dma(SpmToMem, &[DmaRequest::contiguous(3, SpmToMem, base_b, 0, 256)], reply)
            .unwrap();
        cg.dma_wait(reply, 1).unwrap();
        assert_eq!(cg.mem.buffer(b), src.as_slice());
    }

    #[test]
    fn strided_gather_distributes_rows() {
        // An 8×8 matrix in memory; CPE r takes row r via a strided request of
        // 1 block — then CPE 0 takes column 0 via 8 strided blocks of 1 elem.
        let mut cg = cg();
        let m: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let a = cg.mem.alloc_from("a", &m);
        let base = cg.mem.base(a);
        let reply = cg.alloc_reply();
        let req = DmaRequest {
            cpe: 0,
            direction: MemToSpm,
            mem_offset: base,
            spm_offset: 0,
            block_elems: 1,
            stride_elems: 8,
            n_blocks: 8,
        };
        cg.dma(MemToSpm, &[req], reply).unwrap();
        cg.dma_wait(reply, 1).unwrap();
        for r in 0..8 {
            assert_eq!(cg.spm(0).load(r).unwrap(), (r * 8) as f32);
        }
    }

    #[test]
    fn wait_stalls_until_completion() {
        let mut cg = cg();
        let a = cg.mem.alloc("a", 1 << 16);
        let base = cg.mem.base(a);
        let reply = cg.alloc_reply();
        cg.dma(MemToSpm, &[DmaRequest::contiguous(0, MemToSpm, base, 0, 8192)], reply)
            .unwrap();
        let before = cg.now();
        cg.dma_wait(reply, 1).unwrap();
        assert!(cg.now() > before, "wait must advance to DMA completion");
    }

    #[test]
    fn overlapped_compute_hides_dma() {
        // Issue DMA, do compute of equal length, then wait: total ≈ max.
        let mut cg = cg();
        let a = cg.mem.alloc("a", 1 << 16);
        let base = cg.mem.base(a);
        let reply = cg.alloc_reply();
        cg.dma(MemToSpm, &[DmaRequest::contiguous(0, MemToSpm, base, 0, 8192)], reply)
            .unwrap();
        let dma_len = {
            // Duration the engine will take (issue already accounted).
            let mut probe = cg.clone();
            let t0 = probe.now();
            probe.dma_wait(reply, 1).unwrap();
            probe.now() - t0
        };
        cg.kernel(dma_len, 0, 0, 0, 0); // compute as long as the transfer
        let before_wait = cg.now();
        cg.dma_wait(reply, 1).unwrap();
        let stall = cg.now() - before_wait;
        assert!(
            stall.get() <= cg.cfg.dma_wait_poll.get(),
            "fully overlapped DMA must not stall (stall = {stall})"
        );
    }

    #[test]
    fn cost_only_mode_skips_data() {
        let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
        let src: Vec<f32> = vec![5.0; 64];
        let a = cg.mem.alloc_from("a", &src);
        let base = cg.mem.base(a);
        let reply = cg.alloc_reply();
        cg.dma(MemToSpm, &[DmaRequest::contiguous(0, MemToSpm, base, 0, 64)], reply)
            .unwrap();
        cg.dma_wait(reply, 1).unwrap();
        // Clocks advanced but SPM stayed zero.
        assert!(cg.now().get() > 0);
        assert_eq!(cg.spm(0).load(0).unwrap(), 0.0);
    }

    #[test]
    fn mixed_direction_batch_rejected() {
        let mut cg = cg();
        let a = cg.mem.alloc("a", 64);
        let base = cg.mem.base(a);
        let reply = cg.alloc_reply();
        let reqs = vec![
            DmaRequest::contiguous(0, MemToSpm, base, 0, 8),
            DmaRequest::contiguous(1, SpmToMem, base, 0, 8),
        ];
        assert!(cg.dma(MemToSpm, &reqs, reply).is_err());
    }

    #[test]
    fn efficiency_reporting() {
        let mut cg = cg();
        cg.kernel(Cycles(1000), (64 * 8 * 1000) as u64, 8, 8, 8);
        assert!((cg.efficiency() - 1.0).abs() < 1e-12);
        assert!((cg.achieved_gflops() - 742.4).abs() < 0.1);
    }

    #[test]
    fn unknown_reply_is_an_error_not_a_panic() {
        let mut cg = cg();
        let stale = ReplyId(7); // never allocated on this core group
        assert!(cg.dma_wait(stale, 1).is_err());
        assert_eq!(cg.reply_pending(stale), 0);
        let a = cg.mem.alloc("a", 64);
        let base = cg.mem.base(a);
        let req = [DmaRequest::contiguous(0, MemToSpm, base, 0, 64)];
        let batch = DmaBatch::of(&cg.cfg, MemToSpm, &req, &req).unwrap();
        assert!(cg.dma(MemToSpm, &req, stale).is_err());
        assert!(cg.dma_priced(batch, stale).is_err());
    }

    #[test]
    fn extrapolating_a_repeating_stretch_equals_running_it() {
        // A double-buffered loop: issue the next get, wait for the previous
        // one, compute for less than a transfer takes — so the engine keeps
        // a backlog — on a second reply word, put every third iteration.
        let iteration = |cg: &mut CoreGroup, i: u64| {
            let get = DmaBatch {
                direction: MemToSpm,
                bus_bytes: 65536,
                blocks: 64,
                payload_bytes: 64000,
                spm_end: 1000 + 10 * (i % 3) as usize,
                scatter: None,
            };
            cg.dma_priced(get, ReplyId(0)).unwrap();
            cg.dma_wait(ReplyId(0), 1).unwrap();
            cg.kernel(Cycles(900), 4096, 8, 8, 8);
            if i % 3 == 2 {
                let put = DmaBatch { direction: SpmToMem, spm_end: 0, ..get };
                cg.dma_chain_next();
                cg.dma_priced(put, ReplyId(1)).unwrap();
                cg.dma_wait(ReplyId(1), 1).unwrap();
            }
        };
        let fresh = || {
            let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
            let (get, _) = (cg.alloc_reply(), cg.alloc_reply());
            let req = [DmaRequest::contiguous(0, MemToSpm, 0, 0, 1000)];
            cg.dma_priced(DmaBatch::of(&cg.cfg, MemToSpm, &req, &req).unwrap(), get).unwrap();
            cg
        };
        let finish = |mut cg: CoreGroup| {
            let underflow = cg.dma_wait(ReplyId(0), 2).unwrap_err();
            (cg.now(), cg.counters, cg.flops, cg.reply_pending(ReplyId(0)), underflow)
        };
        let mut plain = fresh();
        (0..60).for_each(|i| iteration(&mut plain, i));

        let mut cg = fresh();
        assert!(cg.can_extrapolate());
        let (mut from, mut to) = (Snapshot::default(), Snapshot::default());
        (0..10).for_each(|i| iteration(&mut cg, i));
        cg.snapshot(&mut from);
        (10..13).for_each(|i| iteration(&mut cg, i));
        cg.snapshot(&mut to);
        assert!(from.same_state(&to), "the loop settles with period 3: {from:?} {to:?}");
        assert!(to.backlog > Cycles::ZERO, "transfers outlast the compute");
        cg.extrapolate(&from, &to, 15);
        (58..60).for_each(|i| iteration(&mut cg, i));
        assert_eq!(finish(cg), finish(plain));
        // A completion still in flight is state even when the engine is idle:
        // a broadcast's scatter ends after the transfer.
        let scattered = |compute: u64| {
            let mut cg = fresh();
            cg.dma_wait(ReplyId(0), 1).unwrap();
            let req = [DmaRequest::contiguous(0, MemToSpm, 0, 0, 64)];
            let batch = DmaBatch::of(&cg.cfg, MemToSpm, &req, &req).unwrap();
            cg.dma_priced(DmaBatch { scatter: Some(Cycles(5000)), ..batch }, ReplyId(0)).unwrap();
            cg.compute(Cycles(compute), "pad");
            let mut s = Snapshot::default();
            cg.snapshot(&mut s);
            assert_eq!(s.backlog, Cycles::ZERO);
            s
        };
        assert!(!scattered(1000).same_state(&scattered(2000)));
        assert!(scattered(9000).same_state(&scattered(10_000)), "both completions are past");
        // A traced or faulted machine must take every step.
        let mut traced = fresh();
        traced.trace = Trace::enabled(4);
        assert!(!traced.can_extrapolate());
        assert!(!CoreGroup::new(faulty_cfg(1, 0, 0), ExecMode::CostOnly).can_extrapolate());
        assert!(!CoreGroup::with_mode(ExecMode::Functional).can_extrapolate());
    }

    fn faulty_cfg(dma_ppm: u32, steal: u32, jitter: u32) -> MachineConfig {
        MachineConfig {
            fault: Some(crate::fault::FaultPlan {
                seed: 0xBAD_5EED,
                dma_fail_ppm: dma_ppm,
                spm_pressure_ppm: if steal > 0 { 1_000_000 } else { 0 },
                spm_steal_max_permille: steal,
                jitter_permille: jitter,
                wedge_run: None,
                wedge_ms: 0,
            }),
            ..MachineConfig::default()
        }
    }

    #[test]
    fn certain_dma_fault_fails_both_issue_paths_transiently() {
        let mut cg = CoreGroup::new(faulty_cfg(1_000_000, 0, 0), ExecMode::CostOnly);
        let reply = cg.alloc_reply();
        let a = cg.mem.alloc("a", 64);
        let base = cg.mem.base(a);
        let req = [DmaRequest::contiguous(0, MemToSpm, base, 0, 64)];
        let batch = DmaBatch::of(&cg.cfg, MemToSpm, &req, &req).unwrap();
        let err = cg.dma_priced(batch, reply).unwrap_err();
        assert!(err.is_transient(), "injected DMA fault must be retryable: {err}");
        let err = cg.dma(MemToSpm, &req, reply).unwrap_err();
        assert!(matches!(err, MachineError::DmaFault { .. }));
    }

    #[test]
    fn spm_pressure_shrinks_effective_capacity_only_under_faults() {
        let cg = CoreGroup::new(faulty_cfg(0, 250, 0), ExecMode::CostOnly);
        let full = cg.cfg.spm_elems();
        assert!(cg.spm_capacity_elems() < full, "certain pressure must steal capacity");
        assert!(cg.spm_capacity_elems() >= full - full / 4, "steal bounded at 25%");
        let clean = CoreGroup::with_mode(ExecMode::CostOnly);
        assert_eq!(clean.spm_capacity_elems(), clean.cfg.spm_elems());
    }

    #[test]
    fn observed_is_identity_without_faults_and_bounded_with() {
        let mut clean = CoreGroup::with_mode(ExecMode::CostOnly);
        assert_eq!(clean.observed(Cycles(123_456)), Cycles(123_456));
        let mut noisy = CoreGroup::new(faulty_cfg(0, 0, 20), ExecMode::CostOnly);
        let c = noisy.observed(Cycles(1_000_000)).get();
        assert!((980_000..=1_020_000).contains(&c));
    }

    #[test]
    fn counters_track_dma_kernel_and_compute() {
        let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
        let a = cg.mem.alloc("a", 1 << 12);
        let base = cg.mem.base(a);
        let reply = cg.alloc_reply();
        // One strided request: 7-elem blocks waste part of each transaction,
        // so bus bytes exceed payload bytes.
        let req = DmaRequest {
            cpe: 0,
            direction: MemToSpm,
            mem_offset: base,
            spm_offset: 16,
            block_elems: 7,
            stride_elems: 64,
            n_blocks: 4,
        };
        cg.dma(MemToSpm, &[req], reply).unwrap();
        cg.dma_wait(reply, 1).unwrap();
        cg.kernel(Cycles(500), 1000, 8, 8, 8);
        cg.compute(Cycles(30), "pack");
        let c = cg.counters;
        assert_eq!(c.dma_payload_bytes, 4 * 7 * 4);
        assert!(c.dma_bus_bytes > c.dma_payload_bytes, "strided blocks waste bus bytes");
        assert_eq!(c.dma_batches, 1);
        assert_eq!(c.dma_waits, 1);
        assert!(c.dma_stall_cycles > 0, "nothing overlapped this transfer");
        assert_eq!(c.kernel_calls, 1);
        assert_eq!(c.kernel_cycles, 500);
        assert_eq!(c.compute_cycles, 30);
        assert_eq!(c.spm_high_water_elems, (16 + 4 * 7) as u64);
        assert!(c.dma_efficiency() < 1.0);
    }

    #[test]
    fn bcast_delivers_same_bytes_with_leader_side_traffic() {
        // 8×64 panel: row leaders fetch 64 contiguous elems each; the
        // per-CPE view is 8 elems per CPE. Broadcast must deliver exactly
        // what the plain batch delivers, while accounting DRAM traffic from
        // the 8 leader requests only.
        let src: Vec<f32> = (0..512).map(|i| i as f32).collect();
        let mk = |bcast: bool| -> CoreGroup {
            let mut cg = cg();
            let a = cg.mem.alloc_from("a", &src);
            let base = cg.mem.base(a);
            let reply = cg.alloc_reply();
            let per_cpe: Vec<DmaRequest> = (0..64)
                .map(|cpe| DmaRequest::contiguous(cpe, MemToSpm, base + cpe * 8, 0, 8))
                .collect();
            if bcast {
                let leaders: Vec<DmaRequest> = (0..8)
                    .map(|r| DmaRequest::contiguous(r * 8, MemToSpm, base + r * 64, 0, 64))
                    .collect();
                cg.dma_bcast(MemToSpm, &leaders, &per_cpe, Cycles(100), reply).unwrap();
            } else {
                cg.dma(MemToSpm, &per_cpe, reply).unwrap();
            }
            cg.dma_wait(reply, 1).unwrap();
            cg
        };
        let plain = mk(false);
        let bc = mk(true);
        for cpe in 0..64 {
            for e in 0..8 {
                assert_eq!(
                    bc.spm(cpe).load(e).unwrap(),
                    plain.spm(cpe).load(e).unwrap(),
                    "cpe {cpe} elem {e}"
                );
            }
        }
        assert_eq!(bc.counters.dma_payload_bytes, plain.counters.dma_payload_bytes);
        assert_eq!(bc.counters.dma_bcast_batches, 1);
        assert_eq!(plain.counters.dma_bcast_batches, 0);
        assert_eq!(bc.counters.regcomm_bytes, 512 * 4 / 8 * 7);
        // Same payload in 8 descriptors instead of 64 finishes sooner even
        // after paying the scatter.
        assert!(bc.now() < plain.now(), "bcast {} !< plain {}", bc.now(), plain.now());
    }

    #[test]
    fn arm_faults_makes_runs_reproducible() {
        let cfg = faulty_cfg(500_000, 0, 0);
        let run = |run_id: u64, attempt: u32| -> Vec<bool> {
            let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
            cg.arm_faults(run_id, attempt);
            let reply = cg.alloc_reply();
            let req = [DmaRequest::contiguous(0, MemToSpm, 0, 0, 32)];
            let batch = DmaBatch::of(&cg.cfg, MemToSpm, &req, &req).unwrap();
            (0..64).map(|_| cg.dma_priced(batch, reply).is_err()).collect()
        };
        assert_eq!(run(9, 0), run(9, 0), "same (run, attempt) must replay faults");
        assert_ne!(run(9, 0), run(9, 1), "retry must see a fresh stream");
    }
}
