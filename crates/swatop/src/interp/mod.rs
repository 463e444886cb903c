//! The IR interpreter: runs a [`Planned`] program on a [`CoreGroup`].
//!
//! This is the machine-facing back half of the code generator. Walking the
//! statement tree with a loop-variable environment, it
//!
//! * issues each `DMA_CPE` node as one batch of per-CPE — under broadcast
//!   tiling, per-leader — engine requests (the `rid`/`cid` terms of the
//!   node's affine offset give every CPE its own address;
//!   [`swatop_ir::DmaShape`]),
//! * resolves double-buffer slots through their parity selectors,
//! * invokes the `spm_gemm` tensorized primitive, and
//! * applies bulk host-side transforms with a bandwidth-based cost.
//!
//! In [`ExecMode::Functional`](sw26010::ExecMode) all data movement and
//! arithmetic really happen, so an incorrect schedule (wrong DMA offset,
//! wrong `ld`, wrong boundary guard) produces wrong output — the test suite
//! compares every generated schedule against the host references.
//!
//! A `DMA_CPE` node meets the same slot, capacity and bounds checks in both
//! modes, which part only then. Functional mode builds every request from
//! its own evaluation of the offset expression, and the machine prices and
//! copies each. Cost-only mode — the autotuner's measurement device — builds
//! none and prices the node once per run rather than once per execution: the
//! 64 (or 8 leader) start addresses are the first one plus distances fixed
//! by the node's `rid`/`cid` coefficients, so the node's bus bytes are a
//! function of the first start's address residue alone
//! ([`sw26010::dma::StartClasses`]) and are remembered per (node, residue)
//! for the duration of one [`execute`]. Either way the batch takes the one
//! path through the machine ([`sw26010::DmaBatch`]). In both modes a `Gemm`
//! node's kernel price ([`swkernels::GemmPrice`]) is likewise taken once per
//! node per run.
//!
//! Cost-only mode also skips the iterations of a loop that only repeat what
//! came before — *steady-state extrapolation*. The `For` arm snapshots the
//! machine's relative state at each iteration boundary
//! ([`sw26010::Snapshot`]: engine backlog, in-flight completions against the
//! clock, chain flag); once the state at `i` equals the state at `i − P`,
//! where `P` is a multiple of the period after which every DMA start residue
//! and double-buffer parity in the body repeats, and a static check of the
//! body's affine guards and DMA bounds shows the next iterations take the
//! reference period's path without error (the `steady` module, reading the
//! guard-range analysis [`swatop_ir::guards`] the model shares), the machine
//! is advanced over whole periods by the reference period's deltas
//! ([`CoreGroup::extrapolate`]). The rest of the loop runs normally. The
//! plain walk stays where it must: in Functional mode, under a fault plan
//! (one draw per batch) and with a trace on (one event per node). It, and
//! the functional path, which prices every request of every execution,
//! remain the oracles for clock, counters and errors
//! (`tests/evaluator_equiv.rs`; DESIGN.md §19).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use sw26010::cluster::ReplyId as CgReply;
use sw26010::dma::{start_period, StartClasses};
use sw26010::{
    cid, rid, CoreGroup, Cycles, DmaBatch, DmaDirection, DmaRequest, ExecMode, MachineConfig,
    MachineError, MachineResult, Snapshot, N_CPE,
};
use swkernels::spm_gemm::SpmMatrix;
use swkernels::GemmPrice;
use swtensor::Tensor;

use swatop_ir::guards::one_path;
use swatop_ir::{
    DmaCpe, DmaShape, Env, GemmOp, Link, MatDesc, SpmSlot, Stmt, TransformKind, VarId,
};

use crate::codegen::Planned;

mod steady;

static ITERATIONS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static LOOPS_ADVANCED: AtomicU64 = AtomicU64::new(0);

/// Process-wide tallies of steady-state extrapolation: loop iterations the
/// cost-only interpreter skipped, and the advances that skipped them.
/// Relaxed atomics — observability and anti-vacuity checks, never control
/// flow.
pub fn extrapolation_stats() -> (u64, u64) {
    (ITERATIONS_SKIPPED.load(Ordering::Relaxed), LOOPS_ADVANCED.load(Ordering::Relaxed))
}

/// Binding of a program's main-memory buffer table to concrete machine
/// buffers.
#[derive(Debug, Clone)]
pub struct Binding {
    pub bufs: Vec<sw26010::BufferId>,
}

/// Allocate machine buffers for every declaration of the program. In
/// cost-only mode the allocations are virtual (address ranges without a
/// backing store): the interpreter only needs bases and bounds, and skipping
/// the zero-fill keeps per-candidate instantiation cheap in the autotuner —
/// large conv workspaces would otherwise dominate candidate evaluation. A
/// functional run zero-fills each CPE's scratch pad up to the plan's
/// footprint (`spm_used`), not all of it, and materialises main memory in
/// one zeroed allocation, so the range of an intermediate a fused transform
/// chain never writes ([`swatop_ir::Link::Feeds`]) takes no pages.
pub fn instantiate(cg: &mut CoreGroup, exe: &Planned) -> Binding {
    let bufs = exe.program.mem_bufs.iter().map(|d| cg.mem.alloc_lazy(&d.name, d.len)).collect();
    if cg.mode() != ExecMode::CostOnly {
        cg.reserve_spm(exe.spm_used);
        cg.mem.materialise();
    }
    Binding { bufs }
}

struct Interp<'a> {
    exe: &'a Planned,
    binding: &'a Binding,
    replies: Vec<CgReply>,
    /// What this run has priced so far, per static node (see [`entry`]).
    dma_nodes: Vec<(&'a DmaCpe, DmaNode)>,
    gemm_nodes: Vec<(&'a GemmOp, Option<GemmPrice>)>,
    /// Whether loops may be extrapolated on this run's machine
    /// ([`CoreGroup::can_extrapolate`]).
    extrapolating: bool,
    /// Each `For` node's extrapolation period ([`steady::period`]), found on
    /// its first execution.
    loops: Vec<(&'a Stmt, Option<usize>)>,
    /// The snapshot rings of the loops being executed, innermost last, from
    /// `snaps_used` on free for reuse.
    snaps: Vec<Snapshot>,
    snaps_used: usize,
    /// A functional `DMA_CPE` node's per-CPE requests and broadcast
    /// leaders, refilled by every node this run issues (a cost-only run
    /// never allocates them).
    reqs: Vec<DmaRequest>,
    leaders: Vec<DmaRequest>,
    /// A functional run's unmaterialised intermediates ([`Link::Feeds`]):
    /// buffer, output, readers still to come.
    held: Vec<(swatop_ir::MemBufId, Vec<f32>, u32)>,
}

/// The entry of static node `node` in a per-run price table, made on the
/// node's first execution. Nodes are found by address — the executable is
/// borrowed for the whole run — in a list short enough (a program has a
/// handful of each kind) to search linearly.
fn entry<'t, 'a, N, V>(
    table: &'t mut Vec<(&'a N, V)>,
    node: &'a N,
    make: impl FnOnce() -> V,
) -> &'t mut V {
    let at = match table.iter().position(|&(n, _)| std::ptr::eq(n, node)) {
        Some(at) => at,
        None => {
            table.push((node, make()));
            table.len() - 1
        }
    };
    &mut table[at].1
}

/// What one run keeps of a static `DMA_CPE` node: its shape, how far the
/// requests reach to either side of CPE (0, 0)'s start, and — the cost-only
/// price table — the bus bytes per first-start residue met so far.
struct DmaNode {
    shape: DmaShape,
    /// Lowest and highest of the requests' relative starts.
    reach: (i64, i64),
    classes: StartClasses,
    /// `(residue of the first start, bus bytes of the whole node)`.
    bus_bytes: Vec<(usize, usize)>,
}

impl DmaNode {
    fn new(node: &DmaCpe, cfg: &MachineConfig) -> Self {
        let shape = node.shape();
        let reach = shape
            .relative_starts()
            .fold((0, 0), |(lo, hi), rel| (lo.min(rel), hi.max(rel)));
        let classes = StartClasses::new(shape.relative_starts(), cfg.dram_transaction_bytes);
        DmaNode { shape, reach, classes, bus_bytes: Vec::new() }
    }

    /// Cost-only DRAM bus bytes of every request of `d` together, the first
    /// of which starts at absolute element `first_start`: computed once per
    /// start residue per run.
    fn bus_bytes(&mut self, d: &DmaCpe, first_start: usize) -> usize {
        let residue = self.classes.residue(first_start);
        if let Some(&(_, bus)) = self.bus_bytes.iter().find(|&&(r, _)| r == residue) {
            return bus;
        }
        let bus = self.classes.bus_bytes(first_start, self.shape.block, d.stride, d.n_blocks);
        self.bus_bytes.push((residue, bus));
        bus
    }
}

/// Execute the program, returning the simulated cycles it took (the compute
/// clock advance from entry to exit).
pub fn execute(cg: &mut CoreGroup, exe: &Planned, binding: &Binding) -> MachineResult<Cycles> {
    if binding.bufs.len() != exe.program.mem_bufs.len() {
        return Err(MachineError::Invalid(format!(
            "binding has {} buffers but the program declares {}",
            binding.bufs.len(),
            exe.program.mem_bufs.len()
        )));
    }
    let replies = (0..exe.program.n_replies).map(|_| cg.alloc_reply()).collect();
    let mut interp = Interp {
        exe,
        binding,
        replies,
        dma_nodes: Vec::new(),
        gemm_nodes: Vec::new(),
        extrapolating: cg.can_extrapolate(),
        loops: Vec::new(),
        snaps: Vec::new(),
        snaps_used: 0,
        reqs: Vec::new(),
        leaders: Vec::new(),
        held: Vec::new(),
    };
    let start = cg.now();
    let mut env = Env::new(exe.program.n_vars());
    interp.stmt(cg, &exe.program.body, &mut env)?;
    Ok(cg.now() - start)
}

impl<'a> Interp<'a> {
    /// Checked lookup of a program buffer's machine binding: generated code
    /// referencing a buffer it never declared is rejected, not a panic.
    fn buf(&self, id: swatop_ir::MemBufId) -> MachineResult<sw26010::BufferId> {
        self.binding.bufs.get(id.0).copied().ok_or_else(|| {
            MachineError::Invalid(format!(
                "program references undeclared memory buffer {} ({} bound)",
                id.0,
                self.binding.bufs.len()
            ))
        })
    }

    /// Checked lookup of a program reply word's machine handle.
    fn reply(&self, id: swatop_ir::ReplyId) -> MachineResult<CgReply> {
        self.replies.get(id.0).copied().ok_or_else(|| {
            MachineError::Invalid(format!(
                "program references undeclared reply word {} ({} allocated)",
                id.0,
                self.replies.len()
            ))
        })
    }

    fn stmt(&mut self, cg: &mut CoreGroup, s: &'a Stmt, env: &mut Env) -> MachineResult<()> {
        match s {
            Stmt::Nop => Ok(()),
            Stmt::Seq(ss) => {
                for x in ss {
                    self.stmt(cg, x, env)?;
                }
                Ok(())
            }
            Stmt::For { var, extent, body } => match self.loop_period(cg, s) {
                Some(period) => self.steady_loop(cg, period, *var, *extent, body, env),
                None => {
                    for i in 0..*extent {
                        env.set(*var, i as i64);
                        self.stmt(cg, body, env)?;
                    }
                    Ok(())
                }
            },
            Stmt::If { cond, then_, else_ } => {
                if cond.eval(env, 0, 0) {
                    self.stmt(cg, then_, env)
                } else if let Some(e) = else_ {
                    self.stmt(cg, e, env)
                } else {
                    Ok(())
                }
            }
            Stmt::DmaCg(_) => Err(MachineError::Invalid(
                "DMA_CG node reached the interpreter: run DMA inference first".into(),
            )),
            Stmt::DmaCpe(d) => self.dma_cpe(cg, d, env),
            Stmt::DmaWait { reply, times } => {
                let r = self.reply(*reply)?;
                cg.dma_wait(r, *times)
            }
            Stmt::Gemm(g) => {
                let a = self.mat(cg, &g.a, env)?;
                let b = self.mat(cg, &g.b, env)?;
                let c = self.mat(cg, &g.c, env)?;
                // Dimensions, layouts and `vd` belong to the node, so its
                // kernel price is taken once and charged on every execution.
                let price = entry(&mut self.gemm_nodes, g, || None);
                swkernels::spm_gemm_priced(
                    cg, price, g.m, g.n, g.k, g.alpha, a, b, g.beta_at(env), c, g.vd,
                )
            }
            Stmt::Transform(t) => self.transform(cg, t),
        }
    }

    /// The period of `For` node `s` if this run may extrapolate it.
    fn loop_period(&mut self, cg: &CoreGroup, s: &'a Stmt) -> Option<usize> {
        let Stmt::For { var, extent, body } = s else { return None };
        if !self.extrapolating {
            return None;
        }
        *entry(&mut self.loops, s, || {
            steady::period(*var, *extent, body, start_period(cg.cfg.dram_transaction_bytes))
        })
    }

    /// A `For` loop under steady-state extrapolation: snapshot the machine
    /// at every iteration boundary; once the state at boundary `i` is the
    /// state at `i − P` for a multiple `P` of the loop's period, skip as many
    /// whole periods as the body repeats through ([`one_path`]), advancing
    /// the machine by the reference period's deltas; run the rest.
    fn steady_loop(
        &mut self,
        cg: &mut CoreGroup,
        period: usize,
        var: VarId,
        extent: usize,
        body: &'a Stmt,
        env: &mut Env,
    ) -> MachineResult<()> {
        /// The state may settle into a cycle of a few periods.
        const MULTIPLES: usize = 4;
        let longest = (MULTIPLES * period).min(extent / 2);
        let ring = longest + 1;
        let base = self.snaps_used;
        self.snaps_used += ring;
        if self.snaps.len() < self.snaps_used {
            self.snaps.resize_with(self.snaps_used, Snapshot::default);
        }
        // `since`: the first boundary of the current history.
        let (mut i, mut since) = (0, 0);
        while i < extent {
            let here = base + i % ring;
            cg.snapshot(&mut self.snaps[here]);
            let repeat = (period..=longest.min(i - since).min(extent - i))
                .step_by(period)
                .find(|p| self.snaps[here].same_state(&self.snaps[base + (i - p) % ring]));
            if let Some(p) = repeat {
                let n = self.periods_to_skip(cg, var, body, env, i, p, extent);
                if n > 0 {
                    let then = base + (i - p) % ring;
                    cg.extrapolate(&self.snaps[then], &self.snaps[here], n as u64);
                    ITERATIONS_SKIPPED.fetch_add((n * p) as u64, Ordering::Relaxed);
                    LOOPS_ADVANCED.fetch_add(1, Ordering::Relaxed);
                    i += n * p;
                    since = i;
                    continue;
                }
            }
            env.set(var, i as i64);
            self.stmt(cg, body, env)?;
            i += 1;
        }
        if extent > 0 {
            env.set(var, extent as i64 - 1);
        }
        self.snaps_used = base;
        Ok(())
    }

    /// How many whole periods `p` from boundary `i` on the body repeats
    /// through, the reference period `i − p .. i` included: the most that
    /// fit before `extent` when the check allows, else the longest run it
    /// allows (a guard flipping near the end is the common limit).
    #[allow(clippy::too_many_arguments)]
    fn periods_to_skip(
        &mut self,
        cg: &CoreGroup,
        var: VarId,
        body: &'a Stmt,
        env: &Env,
        i: usize,
        p: usize,
        extent: usize,
    ) -> usize {
        let mut repeats = |n: usize| {
            let range = ((i - p) as i64, (i + n * p) as i64 - 1);
            let (dma_nodes, bufs) = (&mut self.dma_nodes, &self.binding.bufs);
            // The bounds check of `dma_cpe`, over every offset of the range.
            let mut in_bounds = |d: &'a DmaCpe, (min, max): (i64, i64)| {
                let Some(&buf) = bufs.get(d.buf.0) else { return false };
                let len = cg.mem.len_of(buf) as i64;
                let node = entry(dma_nodes, d, || DmaNode::new(d, &cg.cfg));
                -node.reach.0 <= min && max <= len - node.shape.span as i64 - node.reach.1
            };
            one_path(var, body, env, range, Some(&mut in_bounds))
        };
        let most = (extent - i) / p;
        if repeats(most) {
            return most;
        }
        // `repeats(good)` holds (trivially at 0), `repeats(bad)` does not.
        let (mut good, mut bad) = (0, most);
        if most > 1 && repeats(most - 1) {
            return most - 1;
        }
        while bad - good > 1 {
            let mid = (good + bad) / 2;
            if repeats(mid) {
                good = mid;
            } else {
                bad = mid;
            }
        }
        good
    }

    /// Execute a `DMA_CPE` node: every CPE moves its own blocks, or — under
    /// broadcast tiling — the leader of each mesh row (column) moves its
    /// whole line, a get's fetched and scattered over the
    /// register-communication bus, a put's gathered over it and written,
    /// which moves the same bytes to or from every SPM in 8× fewer, 8×
    /// wider requests ([`DmaShape`]). The checks are the same in both modes;
    /// then cost-only prices the batch from the node's table, and functional
    /// builds, prices and copies every request.
    fn dma_cpe(&mut self, cg: &mut CoreGroup, d: &'a DmaCpe, env: &Env) -> MachineResult<()> {
        // Batch fusion: this node was issued back-to-back with its
        // predecessor, so its descriptors chain onto the engine's open batch
        // and skip the start-up latency.
        if d.fused {
            cg.dma_chain_next();
        }
        let spm_off = self.resolve_slot(cg, &d.spm, env)?;
        let machine_buf = self.buf(d.buf)?;
        let reply = self.reply(d.reply);
        let node = entry(&mut self.dma_nodes, d, || DmaNode::new(d, &cg.cfg));
        let shape = node.shape;
        if d.bcast.is_some() && d.n_blocks > 1 && d.stride < shape.block {
            return Err(MachineError::Invalid(format!(
                "broadcast DMA leader blocks of {} overlap stride {}",
                shape.block, d.stride
            )));
        }
        // The capacity bound is the run's *effective* one, which an active
        // fault session may have shrunk.
        let (spm_elems, capacity) = (d.spm_elems(), cg.spm_capacity_elems());
        if spm_off + spm_elems > capacity {
            return Err(MachineError::SpmOverflow {
                cpe: 0,
                offset: spm_off,
                len: spm_elems,
                capacity,
            });
        }
        // Request `i` starts at `o + relative_starts[i]`: one evaluation of
        // the expression bounds them all by the two that reach furthest, and
        // only a failing node is walked for the first request out of range.
        let (base, len) = (cg.mem.base(machine_buf), cg.mem.len_of(machine_buf));
        let o = d.offset.eval(env, 0, 0);
        if o + node.reach.0 < 0 || (o + node.reach.1) as usize + shape.span > len {
            let who = if d.bcast.is_some() { "broadcast leader" } else { "CPE" };
            for (i, rel) in shape.relative_starts().enumerate() {
                let off = o + rel;
                if off < 0 {
                    return Err(MachineError::Invalid(format!(
                        "negative DMA offset {off} on {who} {i}"
                    )));
                }
                // The last touched element must stay inside the buffer.
                if off as usize + shape.span > len {
                    return Err(MachineError::MainMemoryOutOfBounds {
                        offset: base + off as usize,
                        len: shape.span,
                        size: base + len,
                    });
                }
            }
        }
        if cg.mode() == ExecMode::CostOnly {
            let batch = DmaBatch {
                direction: d.direction,
                bus_bytes: node.bus_bytes(d, base + o as usize),
                blocks: shape.blocks,
                payload_bytes: shape.payload_bytes,
                spm_end: if d.direction == DmaDirection::MemToSpm { spm_off + spm_elems } else { 0 },
                regcomm: shape.regcomm,
            };
            return cg.dma_priced(batch, reply?);
        }
        // Every CPE's offset expression is evaluated for itself: what the
        // machine prices and copies owes nothing to the shortcuts above.
        let request = |cpe: usize, block: usize| -> MachineResult<DmaRequest> {
            let off = d.offset.eval(env, rid(cpe) as i64, cid(cpe) as i64);
            if off < 0 {
                return Err(MachineError::Invalid(format!(
                    "negative DMA offset {off} on CPE {cpe}"
                )));
            }
            Ok(DmaRequest {
                cpe,
                direction: d.direction,
                mem_offset: base + off as usize,
                spm_offset: spm_off,
                block_elems: block,
                stride_elems: d.stride,
                n_blocks: d.n_blocks,
            })
        };
        self.reqs.clear();
        self.reqs.reserve(N_CPE);
        for cpe in 0..N_CPE {
            self.reqs.push(request(cpe, d.block)?);
        }
        match shape.regcomm {
            None => cg.dma(d.direction, &self.reqs, reply?),
            Some(regcomm) => {
                self.leaders.clear();
                for cpe in shape.requesters() {
                    self.leaders.push(request(cpe, shape.block)?);
                }
                cg.dma_bcast(d.direction, &self.leaders, &self.reqs, regcomm, reply?)
            }
        }
    }

    fn resolve_slot(
        &self,
        cg: &mut CoreGroup,
        slot: &SpmSlot,
        env: &Env,
    ) -> MachineResult<usize> {
        let id = match slot {
            SpmSlot::Single(b) => *b,
            SpmSlot::Double { even, odd, sel } => {
                let v = sel.eval(env, 0, 0);
                // An armed swap-parity miscompile injection flips a sparse
                // subset of resolutions (functional mode only) — the hazard
                // the differential validator exists to catch.
                let even_wins = (v.rem_euclid(2) == 0) ^ cg.miscompile_flip_parity();
                if even_wins {
                    *even
                } else {
                    *odd
                }
            }
        };
        self.exe.try_spm_offset(id).ok_or_else(|| {
            MachineError::Invalid(format!(
                "program references unplanned SPM buffer {} ({} planned)",
                id.0,
                self.exe.spm_offsets.len()
            ))
        })
    }

    fn mat(&self, cg: &mut CoreGroup, m: &MatDesc, env: &Env) -> MachineResult<SpmMatrix> {
        Ok(SpmMatrix::new(self.resolve_slot(cg, &m.slot, env)? + m.offset, m.layout, m.ld))
    }

    fn transform(&mut self, cg: &mut CoreGroup, t: &swatop_ir::TransformOp) -> MachineResult<()> {
        let kind = &t.kind;
        // The model's own price, so transforms contribute no model error. A
        // fused transform chains onto the still-streaming engine pipeline of
        // its predecessor and skips the start-up latency. A chain's producer
        // and a sibling run's member cost nothing where they stand: the last
        // link pays.
        if t.link.pays() {
            let mut cycles = crate::model::transform_cost(&cg.cfg, t);
            if t.fused {
                cycles = cycles - cg.cfg.dma_startup;
            }
            cg.compute(cycles, transform_label(kind));
        }

        if cg.mode() != ExecMode::Functional {
            return Ok(());
        }
        let (src, dst) = (kind.src(), kind.dst());
        let (src_buf, dst_buf) = (self.buf(src)?, self.buf(dst)?);
        let name = &self.exe.program.mem_bufs[dst.0].name;
        // The source is read where it lies: an unmaterialised intermediate's
        // held output (moved out for its last reader), or main memory. The
        // output goes where it belongs: held host-side for a chain's
        // producer, whose address range is never written, or straight into
        // main memory.
        let held = self.held.iter().position(|(buf, ..)| *buf == src);
        let out = match held {
            Some(at) => {
                self.held[at].2 -= 1;
                let x = if self.held[at].2 == 0 {
                    Cow::Owned(self.held.swap_remove(at).1)
                } else {
                    Cow::Borrowed(&self.held[at].1[..])
                };
                let len = cg.mem.len_of(dst_buf);
                let to = if t.link.feeds() { None } else { Some(cg.mem.buffer_mut(dst_buf)) };
                apply_transform(kind, x, Out { to, len, name })?
            }
            None if t.link.feeds() => {
                let out = Out { to: None, len: cg.mem.len_of(dst_buf), name };
                apply_transform(kind, Cow::Borrowed(cg.mem.buffer(src_buf)), out)?
            }
            None => {
                let (x, to) = cg.mem.source_and_destination(src_buf, dst_buf)?;
                let out = Out { len: to.len(), to: Some(to), name };
                apply_transform(kind, Cow::Borrowed(x), out)?
            }
        };
        if let (Some(out), Link::Feeds { readers }) = (out, t.link) {
            self.held.push((dst, out, readers));
        }
        Ok(())
    }
}

/// Where a transform's output goes: into its buffer in main memory (`to`),
/// or, for a chain's producer, into a new host-side vector of `len`.
struct Out<'a> {
    to: Option<&'a mut [f32]>,
    len: usize,
    /// The destination buffer's name, for errors.
    name: &'a str,
}

impl Out<'_> {
    /// Write the output element by element; the held vector if there is one.
    fn write(
        self,
        f: impl FnOnce(&mut [f32]) -> MachineResult<()>,
    ) -> MachineResult<Option<Vec<f32>>> {
        match self.to {
            Some(to) => f(to).map(|()| None),
            None => {
                let mut held = vec![0.0; self.len];
                f(&mut held)?;
                Ok(Some(held))
            }
        }
    }

    /// The output computed whole: copied into memory, or kept.
    fn put(self, data: Vec<f32>) -> MachineResult<Option<Vec<f32>>> {
        self.fits(data.len())?;
        match self.to {
            Some(to) => {
                to.copy_from_slice(&data);
                Ok(None)
            }
            None => Ok(Some(data)),
        }
    }

    /// Check that an output of `len` elements fills the destination exactly.
    fn fits(&self, len: usize) -> MachineResult<()> {
        if len != self.len {
            return Err(MachineError::Invalid(format!(
                "transform output size {len} != buffer '{}' size {}",
                self.name, self.len
            )));
        }
        Ok(())
    }
}

/// Check that a transform's source holds exactly `want` elements; a mismatch
/// means the schedule sized it wrong.
fn sized<'x>(x: Cow<'x, [f32]>, want: usize, what: &str) -> MachineResult<Cow<'x, [f32]>> {
    if x.len() != want {
        return Err(MachineError::Invalid(format!(
            "{what}: buffer holds {} elems but the transform expects {want}",
            x.len()
        )));
    }
    Ok(x)
}

/// Compute a transform host-side from its source `x` into `out`, whose
/// memory holds the destination's current contents (a transform that keeps
/// part of its destination reads them). Returns a chain producer's output.
fn apply_transform(
    kind: &TransformKind,
    x: Cow<'_, [f32]>,
    out: Out<'_>,
) -> MachineResult<Option<Vec<f32>>> {
    match kind {
        TransformKind::Im2col { shape, .. } => {
            let dims = shape.input_shape().dims().to_vec();
            let x = sized(x, dims.iter().product(), "im2col")?;
            let cols = swtensor::im2col::im2col(shape, &Tensor::from_vec(dims, x.into_owned()));
            out.put(cols.into_vec())
        }
        TransformKind::PadImageNchw { shape, .. } => {
            let p = shape.pad;
            let (ri, ci) = (shape.ri(), shape.ci());
            let (rp, cp) = (ri + 2 * p, ci + 2 * p);
            let x = sized(x, shape.b * shape.ni * ri * ci, "pad_image")?;
            out.fits(shape.b * shape.ni * rp * cp)?;
            out.write(|out| {
                out.fill(0.0);
                for bi in 0..shape.b {
                    for n in 0..shape.ni {
                        for r in 0..ri {
                            let so = ((bi * shape.ni + n) * ri + r) * ci;
                            let d_o = ((bi * shape.ni + n) * rp + r + p) * cp + p;
                            out[d_o..d_o + ci].copy_from_slice(&x[so..so + ci]);
                        }
                    }
                }
                Ok(())
            })
        }
        TransformKind::WinogradFilter { shape, transposed, .. } => {
            let dims = shape.weight_shape().dims().to_vec();
            let x = sized(x, dims.iter().product(), "winograd_filter")?;
            let w = Tensor::from_vec(dims, x.into_owned());
            let u = swtensor::winograd::batched_filter_transform(shape, &w);
            let u = if *transposed { u.permuted(&[0, 2, 1]) } else { u };
            out.put(u.into_vec())
        }
        TransformKind::WinogradInput { shape, nt_pad, .. } => {
            let dims = shape.input_shape().dims().to_vec();
            let x = sized(x, dims.iter().product(), "winograd_input")?;
            let v = swtensor::winograd::batched_input_transform(
                shape,
                &Tensor::from_vec(dims, x.into_owned()),
            );
            let nt = swtensor::winograd::n_tiles(shape);
            if nt > *nt_pad {
                return Err(MachineError::Invalid(format!(
                    "winograd_input: {nt} tiles exceed padded stride {nt_pad}"
                )));
            }
            out.fits(16 * shape.ni * nt_pad)?;
            out.write(|out| {
                out.fill(0.0);
                for pos in 0..16 {
                    for n in 0..shape.ni {
                        let so = (pos * shape.ni + n) * nt;
                        let d_o = (pos * shape.ni + n) * nt_pad;
                        out[d_o..d_o + nt].copy_from_slice(&v.data()[so..so + nt]);
                    }
                }
                Ok(())
            })
        }
        TransformKind::WinogradOutput { shape, nt_pad, .. } => {
            let nt = swtensor::winograd::n_tiles(shape);
            if nt > *nt_pad {
                return Err(MachineError::Invalid(format!(
                    "winograd_output: {nt} tiles exceed padded stride {nt_pad}"
                )));
            }
            let padded = sized(x, 16 * shape.no * nt_pad, "winograd_output")?;
            let mut m = vec![0.0f32; 16 * shape.no * nt];
            for pos in 0..16 {
                for n in 0..shape.no {
                    let so = (pos * shape.no + n) * nt_pad;
                    let d_o = (pos * shape.no + n) * nt;
                    m[d_o..d_o + nt].copy_from_slice(&padded[so..so + nt]);
                }
            }
            let m = Tensor::from_vec(vec![16, shape.no, nt], m);
            let y = swtensor::winograd::batched_output_transform(shape, &m);
            out.put(y.into_vec())
        }
        TransformKind::PackTensor { src_dims, perm, .. } => {
            let x = sized(x, src_dims.iter().product(), "pack")?;
            out.put(Tensor::from_vec(src_dims.clone(), x.into_owned()).permuted(perm).into_vec())
        }
        TransformKind::RotateFilter { shape, .. } => {
            let dims = shape.weight_shape().dims().to_vec();
            let x = sized(x, dims.iter().product(), "rotate_filter")?;
            let w = Tensor::from_vec(dims, x.into_owned());
            out.put(swtensor::conv_grad::rotated_filter(shape, &w).into_vec())
        }
        TransformKind::PadSubmatrix {
            src_rows,
            src_cols,
            r0,
            c0,
            take_rows,
            take_cols,
            dst_rows,
            dst_cols,
            zero_first,
            ..
        } => {
            if x.len() != src_rows * src_cols {
                return Err(MachineError::Invalid("pad: src size mismatch".into()));
            }
            if out.len != dst_rows * dst_cols {
                return Err(MachineError::Invalid("pad: dst size mismatch".into()));
            }
            let rows = (*take_rows).min(src_rows.saturating_sub(*r0)).min(*dst_rows);
            let cols = (*take_cols).min(src_cols.saturating_sub(*c0)).min(*dst_cols);
            out.write(|out| {
                // A copy covering its whole destination reads none of it.
                if *zero_first || kind.pure() {
                    out.fill(0.0);
                }
                for r in 0..rows {
                    let so = (r0 + r) * src_cols + c0;
                    let d_o = r * dst_cols;
                    out[d_o..d_o + cols].copy_from_slice(&x[so..so + cols]);
                }
                Ok(())
            })
        }
        TransformKind::UnpadSubmatrix {
            src_rows,
            src_cols,
            dst_rows,
            dst_cols,
            r0,
            c0,
            take_rows,
            take_cols,
            ..
        } => {
            if x.len() != src_rows * src_cols {
                return Err(MachineError::Invalid("unpad: src size mismatch".into()));
            }
            if out.len != dst_rows * dst_cols {
                return Err(MachineError::Invalid("unpad: dst size mismatch".into()));
            }
            let rows = (*take_rows).min(*src_rows).min(dst_rows.saturating_sub(*r0));
            let cols = (*take_cols).min(*src_cols).min(dst_cols.saturating_sub(*c0));
            out.write(|out| {
                for r in 0..rows {
                    let so = r * src_cols;
                    let d_o = (r0 + r) * dst_cols + c0;
                    out[d_o..d_o + cols].copy_from_slice(&x[so..so + cols]);
                }
                Ok(())
            })
        }
        TransformKind::PackTiles { rows, cols, direction, iters, .. } => {
            let n_iters: usize = iters.iter().map(|&(e, _)| e).product();
            let n = n_iters * rows * cols;
            if *direction == DmaDirection::SpmToMem {
                let x = sized(x, n, "pack_tiles")?;
                let len = out.len;
                out.write(|out| tile_walk(kind, len, &mut |s, p| out[s].copy_from_slice(&x[p])))
            } else {
                out.fits(n)?;
                out.write(|out| tile_walk(kind, x.len(), &mut |s, p| out[p].copy_from_slice(&x[s])))
            }
        }
    }
}

/// The walk a `PackTiles` makes in either direction: every block row of
/// every CPE's block of every tile the nest moves, as (range in the strided
/// buffer of `strided_len` elements, range in the packed one). Mirrors DMA
/// inference's per-CPE block addressing exactly: the packed buffer must
/// hold for every CPE the elements its strided transfer would have moved.
fn tile_walk(
    kind: &TransformKind,
    strided_len: usize,
    f: &mut dyn FnMut(Range<usize>, Range<usize>),
) -> MachineResult<()> {
    let TransformKind::PackTiles { rows, cols, row_stride, mesh_swap, base, iters, .. } = kind
    else {
        unreachable!("a tile walk of {kind:?}");
    };
    let n_iters: usize = iters.iter().map(|&(e, _)| e).product();
    let (block_rows, block_cols) = (rows / 8, cols / 8);
    let e_per_cpe = block_rows * block_cols;
    let mut idx = vec![0usize; iters.len()];
    for lin in 0..n_iters {
        let mut rem = lin;
        for (i, &(ext, _)) in iters.iter().enumerate().rev() {
            idx[i] = rem % ext;
            rem /= ext;
        }
        let origin =
            base + iters.iter().zip(&idx).map(|(&(_, coef), &i)| coef * i as i64).sum::<i64>();
        let Ok(origin) = usize::try_from(origin) else {
            return Err(MachineError::Invalid(format!("pack_tiles: negative tile origin {origin}")));
        };
        for cpe in 0..N_CPE {
            let (r, c) = (rid(cpe), cid(cpe));
            let (br_sel, bc_sel) = if *mesh_swap { (c, r) } else { (r, c) };
            let cpe_base = origin + br_sel * block_rows * row_stride + bc_sel * block_cols;
            let packed = (lin * N_CPE + cpe) * e_per_cpe;
            for br in 0..block_rows {
                let at = cpe_base + br * row_stride;
                if at + block_cols > strided_len {
                    return Err(MachineError::Invalid(format!(
                        "pack_tiles: tile row [{at}, {}) exceeds buffer of {strided_len}",
                        at + block_cols
                    )));
                }
                let p = packed + br * block_cols;
                f(at..at + block_cols, p..p + block_cols);
            }
        }
    }
    Ok(())
}

fn transform_label(kind: &TransformKind) -> &'static str {
    match kind {
        TransformKind::Im2col { .. } => "im2col",
        TransformKind::PadImageNchw { .. } => "pad_image",
        TransformKind::WinogradFilter { .. } => "winograd_filter",
        TransformKind::WinogradInput { .. } => "winograd_input",
        TransformKind::WinogradOutput { .. } => "winograd_output",
        TransformKind::PackTensor { .. } => "pack",
        TransformKind::RotateFilter { .. } => "rotate_filter",
        TransformKind::PadSubmatrix { .. } => "pad",
        TransformKind::UnpadSubmatrix { .. } => "unpad",
        TransformKind::PackTiles { .. } => "pack_tiles",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::plan;
    use sw26010::DmaDirection::*;
    use sw26010::MachineConfig;
    use swatop_ir::{AVar, AffineExpr, DmaCpe, MemRole, Program};
    use swkernels::VecDim;
    use swtensor::init::random_vec;
    use swtensor::MatLayout;

    fn functional_cg() -> CoreGroup {
        CoreGroup::with_mode(ExecMode::Functional)
    }

    /// 64×64 matmul through IR: distribute A and B by DMA, gemm, collect C.
    /// Exercises DMA offset math end-to-end: wrong rid/cid coefficients
    /// would scramble the result.
    #[test]
    fn ir_matmul_roundtrip() {
        let (m, n, k) = (64, 64, 64);
        let (mb, nb, kb) = (m / 8, n / 8, k / 8);
        let mut p = Program::new("mm");
        let a = p.mem_buf("A", m * k, MemRole::Input);
        let b = p.mem_buf("B", k * n, MemRole::Input);
        let c = p.mem_buf("C", m * n, MemRole::Output);
        let sa = p.spm_buf("a", mb * kb);
        let sb = p.spm_buf("b", kb * nb);
        let sc = p.spm_buf("c", mb * nb);
        let r = p.fresh_reply();

        // Row-major matrices: CPE (rid, cid) takes block (rid, cid).
        let dma_in = |buf, rows: usize, cols: usize, spm| {
            Stmt::DmaCpe(DmaCpe {
                buf,
                offset: AffineExpr::zero()
                    .add_term(AVar::Rid, (rows / 8 * cols) as i64)
                    .add_term(AVar::Cid, (cols / 8) as i64),
                block: cols / 8,
                stride: cols,
                n_blocks: rows / 8,
                direction: MemToSpm,
                spm: SpmSlot::Single(spm),
                reply: r,
                bcast: None,
                fused: false,
            })
        };
        let dma_out = Stmt::DmaCpe(DmaCpe {
            buf: c,
            offset: AffineExpr::zero()
                .add_term(AVar::Rid, (mb * n) as i64)
                .add_term(AVar::Cid, nb as i64),
            block: nb,
            stride: n,
            n_blocks: mb,
            direction: SpmToMem,
            spm: SpmSlot::Single(sc),
            reply: r,
            bcast: None,
            fused: false,
        });
        let gemm = Stmt::gemm(swatop_ir::GemmOp {
            m,
            n,
            k,
            alpha: 1.0,
            beta: 1.0,
            a: MatDesc::new(SpmSlot::Single(sa), MatLayout::RowMajor, kb),
            b: MatDesc::new(SpmSlot::Single(sb), MatLayout::RowMajor, nb),
            c: MatDesc::new(SpmSlot::Single(sc), MatLayout::RowMajor, nb),
            vd: VecDim::M,
            k_step: None,
        });
        p.set_body(Stmt::seq(vec![
            dma_in(a, m, k, sa),
            dma_in(b, k, n, sb),
            Stmt::DmaWait { reply: r, times: 2 },
            gemm,
            dma_out,
            Stmt::DmaWait { reply: r, times: 1 },
        ]));

        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        let av = random_vec(m * k, 1);
        let bv = random_vec(k * n, 2);
        cg.mem.write(binding.bufs[0], 0, &av).unwrap();
        cg.mem.write(binding.bufs[1], 0, &bv).unwrap();

        let cycles = execute(&mut cg, &exe, &binding).unwrap();
        assert!(cycles.get() > 0);

        let mut expect = vec![0.0f32; m * n];
        swtensor::gemm::gemm_rowmajor(m, n, k, &av, &bv, &mut expect);
        let got = cg.mem.buffer(binding.bufs[2]).to_vec();
        swtensor::compare::assert_close(&got, &expect, 1e-4, 1e-5, "ir matmul");
    }

    #[test]
    fn unlowered_dma_cg_is_an_error() {
        let mut p = Program::new("bad");
        let buf = p.mem_buf("x", 64, MemRole::Input);
        let s = p.spm_buf("s", 8);
        let r = p.fresh_reply();
        p.set_body(Stmt::DmaCg(swatop_ir::DmaCg {
            buf,
            offset: AffineExpr::zero(),
            rows: 8,
            cols: 8,
            row_stride: 8,
            mesh_swap: false,
            direction: MemToSpm,
            spm: SpmSlot::Single(s),
            reply: r,
        }));
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        assert!(execute(&mut cg, &exe, &binding).is_err());
    }

    #[test]
    fn double_buffer_slot_alternates() {
        // A loop DMAs into alternating buffers; final contents of the even
        // buffer must come from the last even iteration.
        let mut p = Program::new("dbl");
        let v = p.fresh_var("i");
        let src = p.mem_buf("src", 4 * 64, MemRole::Input);
        let even = p.spm_buf("even", 1);
        let odd = p.spm_buf("odd", 1);
        let r = p.fresh_reply();
        let dma = Stmt::DmaCpe(DmaCpe {
            buf: src,
            // Element (i*64 + cpe_linear) — use rid*8+cid to spread CPEs.
            offset: AffineExpr::loop_var(v)
                .scale(64)
                .add_term(AVar::Rid, 8)
                .add_term(AVar::Cid, 1),
            block: 1,
            stride: 1,
            n_blocks: 1,
            direction: MemToSpm,
            spm: SpmSlot::Double { even, odd, sel: AffineExpr::loop_var(v) },
            reply: r,
            bcast: None,
            fused: false,
        });
        p.set_body(Stmt::for_(
            v,
            4,
            Stmt::seq(vec![dma, Stmt::DmaWait { reply: r, times: 1 }]),
        ));
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        let data: Vec<f32> = (0..4 * 64).map(|x| x as f32).collect();
        cg.mem.write(binding.bufs[0], 0, &data).unwrap();
        execute(&mut cg, &exe, &binding).unwrap();
        let even_off = exe.spm_offset(even);
        let odd_off = exe.spm_offset(odd);
        // Last even iteration is i=2 → value 128 + cpe; last odd is i=3.
        assert_eq!(cg.spm(0).load(even_off).unwrap(), 128.0);
        assert_eq!(cg.spm(0).load(odd_off).unwrap(), 192.0);
        assert_eq!(cg.spm(63).load(odd_off).unwrap(), 192.0 + 63.0);
    }

    #[test]
    fn guard_conditions_gate_execution() {
        let mut p = Program::new("guard");
        let v = p.fresh_var("i");
        let src = p.mem_buf("src", 1024, MemRole::Input);
        let s = p.spm_buf("s", 1);
        let r = p.fresh_reply();
        let dma = |off: i64| {
            Stmt::DmaCpe(DmaCpe {
                buf: src,
                offset: AffineExpr::konst(off),
                block: 1,
                stride: 1,
                n_blocks: 1,
                direction: MemToSpm,
                spm: SpmSlot::Single(s),
                reply: r,
                bcast: None,
                fused: false,
            })
        };
        // for i in 0..5 { if i < 4 { dma@0 } else { dma@100 } ; wait }
        p.set_body(Stmt::for_(
            v,
            5,
            Stmt::seq(vec![
                Stmt::if_else(
                    swatop_ir::Cond::lt_const(AffineExpr::loop_var(v), 4),
                    dma(0),
                    dma(100),
                ),
                Stmt::DmaWait { reply: r, times: 1 },
            ]),
        ));
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        let mut data = vec![0.0f32; 1024];
        data[100] = 42.0;
        cg.mem.write(binding.bufs[0], 0, &data).unwrap();
        execute(&mut cg, &exe, &binding).unwrap();
        // Final iteration hit the else branch.
        assert_eq!(cg.spm(0).load(exe.spm_offset(s)).unwrap(), 42.0);
    }

    #[test]
    fn dma_bounds_are_enforced() {
        let mut p = Program::new("oob");
        let src = p.mem_buf("src", 16, MemRole::Input);
        let s = p.spm_buf("s", 64);
        let r = p.fresh_reply();
        p.set_body(Stmt::DmaCpe(DmaCpe {
            buf: src,
            offset: AffineExpr::zero(),
            block: 32, // longer than the buffer
            stride: 32,
            n_blocks: 1,
            direction: MemToSpm,
            spm: SpmSlot::Single(s),
            reply: r,
            bcast: None,
            fused: false,
        }));
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        assert!(matches!(
            execute(&mut cg, &exe, &binding),
            Err(MachineError::MainMemoryOutOfBounds { .. })
        ));
    }

    #[test]
    fn pack_transform_permutes_and_costs() {
        let mut p = Program::new("pack");
        let src = p.mem_buf("src", 6, MemRole::Input);
        let dst = p.mem_buf("dst", 6, MemRole::Temp);
        p.set_body(Stmt::transform(TransformKind::PackTensor {
            src,
            dst,
            src_dims: vec![2, 3],
            perm: vec![1, 0],
        }));
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        cg.mem.write(binding.bufs[0], 0, &[0., 1., 2., 10., 11., 12.]).unwrap();
        let cycles = execute(&mut cg, &exe, &binding).unwrap();
        assert!(cycles.get() > 0);
        assert_eq!(cg.mem.buffer(binding.bufs[1]), &[0., 10., 1., 11., 2., 12.]);
    }

    #[test]
    fn pad_and_unpad_transforms() {
        let mut p = Program::new("pad");
        let src = p.mem_buf("src", 3 * 5, MemRole::Input);
        let padded = p.mem_buf("padded", 4 * 8, MemRole::Temp);
        let out = p.mem_buf("out", 3 * 5, MemRole::Output);
        p.set_body(Stmt::seq(vec![
            Stmt::transform(TransformKind::PadSubmatrix {
                src,
                src_rows: 3,
                src_cols: 5,
                r0: 0,
                c0: 0,
                take_rows: 3,
                take_cols: 5,
                dst: padded,
                dst_rows: 4,
                dst_cols: 8,
                zero_first: true,
            }),
            Stmt::transform(TransformKind::UnpadSubmatrix {
                src: padded,
                src_rows: 4,
                src_cols: 8,
                dst: out,
                dst_rows: 3,
                dst_cols: 5,
                r0: 0,
                c0: 0,
                take_rows: 3,
                take_cols: 5,
            }),
        ]));
        let exe = plan(p, &MachineConfig::default()).unwrap();
        let mut cg = functional_cg();
        let binding = instantiate(&mut cg, &exe);
        let data = random_vec(15, 9);
        cg.mem.write(binding.bufs[0], 0, &data).unwrap();
        execute(&mut cg, &exe, &binding).unwrap();
        assert_eq!(cg.mem.buffer(binding.bufs[2]), data.as_slice());
        // Padded region beyond the copied block is zero.
        let padded_data = cg.mem.buffer(binding.bufs[1]);
        assert_eq!(padded_data[5], 0.0);
        assert_eq!(padded_data[3 * 8 + 4], 0.0);
    }

    #[test]
    fn cost_only_mode_reports_same_cycles_as_functional() {
        // Clock advance must be identical between modes (determinism of the
        // cost model), so black-box tuning in CostOnly is faithful.
        let build = || {
            let mut p = Program::new("mm");
            let a = p.mem_buf("A", 64 * 64, MemRole::Input);
            let s = p.spm_buf("a", 64);
            let r = p.fresh_reply();
            let _ = a;
            p.set_body(Stmt::seq(vec![
                Stmt::DmaCpe(DmaCpe {
                    buf: swatop_ir::MemBufId(0),
                    offset: AffineExpr::zero().add_term(AVar::Rid, 64).add_term(AVar::Cid, 8),
                    block: 8,
                    stride: 64,
                    n_blocks: 8,
                    direction: MemToSpm,
                    spm: SpmSlot::Single(s),
                    reply: r,
                    bcast: None,
                    fused: false,
                }),
                Stmt::DmaWait { reply: r, times: 1 },
            ]));
            plan(p, &MachineConfig::default()).unwrap()
        };
        let exe = build();
        let mut f = functional_cg();
        let bf = instantiate(&mut f, &exe);
        let cf = execute(&mut f, &exe, &bf).unwrap();
        let mut c = CoreGroup::with_mode(ExecMode::CostOnly);
        let bc = instantiate(&mut c, &exe);
        let cc = execute(&mut c, &exe, &bc).unwrap();
        assert_eq!(cf, cc);
    }
}
