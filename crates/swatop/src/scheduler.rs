//! The scheduler (paper Sec. 4.3): enumerate the schedule space, lower each
//! valid strategy to IR, run the IR optimizer, and hand the candidates to
//! the autotuner.
//!
//! Validity filtering happens in two places, mirroring the paper: the
//! operator lowering itself rejects points whose factors violate kernel
//! constraints (mesh divisibility, vector alignment), and the code
//! generator's capacity filter rejects points whose working set exceeds the
//! 64 KB scratch pad. Double buffering doubles the streamed buffers; where
//! the twins no longer fit, the point keeps its un-prefetched schedule.
//!
//! Each front-end stage runs once per distinct input, not once per point
//! (DESIGN.md "Front-end pipeline"): `op.lower` per structural point (DMA
//! knobs zeroed), [`optimizer::dma_wall`] once per (structural point,
//! coalesce), and per point only two read-only questions — does `raw` fit,
//! and would its twins. Candidates are byte-identical to lowering and
//! optimizing every point on its own.
//!
//! Candidates hold handles, not copies (DESIGN.md "IR ownership"): a
//! `Program` clone shares its tree and tables, and the `bcast` siblings of a
//! (structural point, coalesce) group hold the one `raw` the block cache
//! holds, differing only in `hints`; the tier-0 screen estimates each
//! candidate's `raw` on its own, reading its `hints.bcast`. A candidate
//! owns no tree of its own when `enumerate` returns: its executable is a
//! deferred handle over `raw` that applies the hints — broadcast tagging,
//! the double-buffer rewrite — and lays out the SPM when it is first read:
//! by the tuner's validator, by whoever emits or runs the winner (measuring
//! builds a copy on the worker and drops it). An executable that is neither
//! broadcast nor double-buffered *is* its candidate's `raw` once built.

use sw26010::MachineConfig;
use swatop_dsl::{SchedulePoint, ScheduleSpace};
use swatop_ir::{Program, ScheduleHints};

use crate::codegen::{fits, fits_with, Executable};
use crate::ops::{dma_knob, dma_menu};
use crate::optimizer::{self, prefetch};

/// An operator that swATOP can tune: a schedule space, a lowering from
/// schedule points to IR, and the computation's golden reference.
pub trait Operator {
    /// Operator name (used in reports).
    fn name(&self) -> String;

    /// The DSL schedule space.
    fn space(&self) -> ScheduleSpace;

    /// Lower one schedule point to un-optimized IR. `None` marks the point
    /// invalid (factor combination violates a kernel or capacity rule that
    /// is cheaper to check here than to discover in `plan`).
    ///
    /// The `dma` knob ([`dma_knob`]) may reach the program only through
    /// `Program::hints` ([`dma_level`](crate::ops::dma_level)): points
    /// differing only there must lower to programs differing only in
    /// `hints`, and the scheduler lowers such points once. Debug builds
    /// compare every shared lowering against a direct one and panic where a
    /// lowering reads a DMA knob structurally.
    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program>;

    /// Deterministic input data for each `Input`-role buffer, in
    /// declaration order (used by functional verification).
    fn input_data(&self, program: &Program) -> Vec<Vec<f32>>;

    /// Golden output for the given inputs (row-major in the output buffer's
    /// declared layout).
    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32>;

    /// FLOPs of the operator (direct-convolution-normalised for convs).
    fn flops(&self) -> u64;
}

/// One lowered, optimized, plannable schedule strategy.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index of the schedule point within the space.
    pub point_index: usize,
    /// Human-readable knob assignment.
    pub describe: String,
    /// IR after the DMA-wall pipeline ([`optimizer::dma_wall`]: DMA
    /// inference, coalescing, fusion) but *before* broadcast tagging and
    /// prefetching — the form the static performance model evaluates, which
    /// reads `hints.bcast` to price the gets tagging would mark. Shared by
    /// the `bcast` siblings of its (structural point, coalesce).
    pub raw: Program,
    /// Fully optimized executable (broadcast-tagged when `raw.hints.bcast`,
    /// prefetched, SPM-planned), built on first read: `enumerate` decides
    /// *whether* it is double-buffered ([`Candidate::prefetched`]) and leaves
    /// the tagging, the rewrite and the SPM layout to whoever reads
    /// `exe.program`, `exe.spm_offsets`, … first.
    pub exe: Executable,
    /// Whether double buffering was applied (decides the overlap formula).
    pub prefetched: bool,
}

/// The scheduler: enumerates and lowers an operator's schedule space.
pub struct Scheduler {
    pub cfg: MachineConfig,
    /// Disable the prefetch pass (for the Fig. 10 ablation).
    pub enable_prefetch: bool,
}

impl Scheduler {
    pub fn new(cfg: MachineConfig) -> Self {
        Scheduler { cfg, enable_prefetch: true }
    }

    /// Enumerate all valid candidates of `op`'s space, in point-index order.
    /// One point walks the space in place.
    pub fn enumerate(&self, op: &dyn Operator) -> Vec<Candidate> {
        let space = op.space();
        let mut front = FrontEnd::new(self, op, &space);
        let mut point = space.point(0);
        let mut cands = Vec::new();
        loop {
            cands.extend(front.candidate(&point));
            if !point.advance(&space) {
                return cands;
            }
        }
    }

    /// Lower a single point (returns `None` if the point is invalid).
    pub fn lower_point(
        &self,
        op: &dyn Operator,
        space: &ScheduleSpace,
        point: &SchedulePoint,
    ) -> Option<Candidate> {
        FrontEnd::new(self, op, space).candidate(point)
    }

    /// Per-point stage: the capacity filter and the decision whether the
    /// executable is double-buffered — both answered by reading `raw`, the
    /// DMA-wall pipeline's output carrying the point's hints (broadcast
    /// tagging adds no buffer). Nothing is rewritten or planned here: the
    /// executable is built when it is read.
    fn assemble(
        &self,
        space: &ScheduleSpace,
        point: &SchedulePoint,
        raw: Program,
    ) -> Option<Candidate> {
        if !fits(&raw, &self.cfg) {
            return None;
        }
        // `optimize(p, true)` is `optimize(p, false)` plus double buffering.
        // Twins that blow the SPM budget fall back to the un-prefetched
        // schedule rather than dropping the point.
        let doubled = self.enable_prefetch
            && prefetch::twin_elems(&raw).is_some_and(|twins| fits_with(&raw, twins, &self.cfg));
        // The implicit-conv and Winograd lowerings emit double slots of
        // their own: such a `raw` is prefetched whatever the rewrite does.
        let prefetched = doubled || raw.body.uses_double_slot();
        Some(Candidate {
            point_index: point.index(space),
            describe: point.describe(space),
            exe: Executable::deferred(raw.clone(), doubled),
            raw,
            prefetched,
        })
    }
}

/// What the points of one structural point (same selection outside the
/// `dma` knob) share.
struct Shared {
    /// The point's selection with the `dma` knob zeroed.
    key: Vec<usize>,
    /// `op.lower` at `key` (`None`: the structural point is invalid) until
    /// the last `dma_wall` that reads it takes it.
    lowered: Option<Program>,
    /// [`optimizer::dma_wall`] output per `coalesce`, once asked for.
    raw: [Option<Program>; 2],
    /// A second handle on the lowering for [`check_shared`], which outlives
    /// the take. The chain then copies the tree it would have moved.
    #[cfg(debug_assertions)]
    check: Option<Program>,
}

/// The front-end stages of one pass over a space — lower, DMA-wall
/// pipeline, assemble — with a cache of the stage outputs that the points
/// of the current block share.
struct FrontEnd<'a> {
    sched: &'a Scheduler,
    op: &'a dyn Operator,
    space: &'a ScheduleSpace,
    /// Position of the `dma` knob, which reaches the program only through
    /// its hints; `None` for a space without one, and then every point is
    /// its own structural point.
    dma: Option<usize>,
    /// The hints of each `dma` level, in menu order.
    levels: Vec<ScheduleHints>,
    /// Points agreeing on the selection before this position form a block.
    block_prefix: usize,
    /// Stage outputs of the current block: at most the product of the
    /// arities after `block_prefix` entries.
    block: Vec<Shared>,
}

impl<'a> FrontEnd<'a> {
    fn new(sched: &'a Scheduler, op: &'a dyn Operator, space: &'a ScheduleSpace) -> Self {
        let (dma, levels) = (dma_knob(space), dma_menu(space));
        let block_prefix = dma.unwrap_or(space.knobs().len());
        FrontEnd { sched, op, space, dma, levels, block_prefix, block: Vec::new() }
    }

    fn candidate(&mut self, point: &SchedulePoint) -> Option<Candidate> {
        let (sel, n) = (point.sel(), self.block_prefix);
        if self.block.first().is_some_and(|s| s.key[..n] != sel[..n]) {
            self.block.clear();
        }
        // The block's keys carry a zero at the `dma` position, which is
        // `block_prefix`: compare around it.
        let dma = self.dma;
        let same_structure =
            |key: &[usize]| (n..sel.len()).all(|i| key[i] == sel[i] || Some(i) == dma);
        let slot = match self.block.iter().position(|s| same_structure(&s.key)) {
            Some(i) => i,
            None => {
                let mut key = sel.to_vec();
                dma.iter().for_each(|&i| key[i] = 0);
                let structural = SchedulePoint::from_sel(self.space, key.clone());
                let lowered = self.op.lower(self.space, &structural);
                self.block.push(Shared {
                    key,
                    #[cfg(debug_assertions)]
                    check: lowered.clone(),
                    lowered,
                    raw: Default::default(),
                });
                self.block.len() - 1
            }
        };
        let shared = &mut self.block[slot];
        // A shared lowering was made at the zeroed knobs: the point's own
        // hints are the only thing it lacks.
        let hints = match dma {
            Some(i) => self.levels[sel[i]],
            None => shared.lowered.as_ref()?.hints,
        };
        // `dma_wall` reads `coalesce` only: the siblings that differ in
        // `bcast` share its output — the same tree, not equal ones — and
        // differ in `hints`, which the screen and the executable's build
        // read. The lowering feeds one `dma_wall` per
        // `coalesce` value (just one where the space has no `dma` knob); the
        // last of them takes it and edits its tree in place instead of
        // copying it.
        let c = usize::from(hints.coalesce);
        let last = dma.is_none() || shared.raw[1 - c].is_some();
        if shared.raw[c].is_none() {
            let lowered = if last { shared.lowered.take() } else { shared.lowered.clone() };
            shared.raw[c] = lowered.map(|p| optimizer::dma_wall(Program { hints, ..p }));
        }
        let raw = shared.raw[c].as_ref().map(|raw| Program { hints, ..raw.clone() });
        #[cfg(debug_assertions)]
        check_shared(self.op, self.space, point, shared.check.as_ref(), raw.as_ref(), hints);
        self.sched.assemble(self.space, point, raw?)
    }
}

/// What the points of a structural point share, checked against the point
/// on its own. The contract of [`Operator::lower`]: lowering `point`
/// directly gives the shared lowering with `hints` overwritten. And the
/// invariant behind sharing `raw`: the DMA-wall pipeline run from scratch on
/// that direct lowering gives it.
#[cfg(debug_assertions)]
fn check_shared(
    op: &dyn Operator,
    space: &ScheduleSpace,
    point: &SchedulePoint,
    lowered: Option<&Program>,
    raw: Option<&Program>,
    hints: swatop_ir::ScheduleHints,
) {
    let at = || format!("{} at point {} ({})", op.name(), point.index(space), point.describe(space));
    let direct = op.lower(space, point);
    let specialised = lowered.map(|p| Program { hints, ..p.clone() });
    assert!(
        direct == specialised,
        "{}: the lowering reads a DMA knob structurally, not only into its hints",
        at(),
    );
    let from_scratch = direct.map(optimizer::dma_wall);
    assert!(from_scratch.as_ref() == raw, "{}: the shared raw is not dma_wall of the point", at());
}

// Its one test trips `check_shared`, which only debug builds run.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::ops::{dma_level, MatmulOp};

    /// A matmul whose lowering reads the `dma` knob structurally (an extra
    /// SPM buffer under coalescing, which only some levels of its menu turn
    /// on), breaking [`Operator::lower`]'s contract.
    struct CoalesceReader {
        inner: MatmulOp,
    }

    impl Operator for CoalesceReader {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn space(&self) -> ScheduleSpace {
            self.inner.space()
        }
        fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
            let mut p = self.inner.lower(space, point)?;
            if dma_level(point.choice(space, "dma")).coalesce {
                p.spm_buf("staging", 8);
            }
            Some(p)
        }
        fn input_data(&self, program: &Program) -> Vec<Vec<f32>> {
            self.inner.input_data(program)
        }
        fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
            self.inner.reference_output(inputs)
        }
        fn flops(&self) -> u64 {
            self.inner.flops()
        }
    }

    #[test]
    #[should_panic(expected = "reads a DMA knob structurally")]
    fn a_lowering_that_reads_coalesce_structurally_trips_the_debug_comparison() {
        let op = CoalesceReader { inner: MatmulOp::new(32, 32, 32) };
        Scheduler::new(MachineConfig::default()).enumerate(&op);
    }
}
