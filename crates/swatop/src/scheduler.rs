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
//! knobs zeroed), the DMA-wall pipeline as a derivation chain over the
//! (coalesce, bcast) siblings — [`optimizer::dma_wall`] once per `coalesce`,
//! and the `bcast` sibling as `tag_broadcast` on a copy of the untagged tree
//! that keeps sharing its tables — and per point only two read-only
//! questions — does `raw` fit, and would its twins. Candidates are
//! byte-identical to lowering and optimizing every point on its own.
//!
//! Candidates hold handles, not copies (DESIGN.md "IR ownership"): a
//! `Program` clone shares its tree and tables, the `dbuf` on/off siblings
//! of a (structural point, coalesce, bcast) group hold the one `raw` the
//! block cache holds, and the tier-0 screen relies on this identity to
//! estimate each distinct `raw` once. A candidate owns no tree of its own
//! when `enumerate` returns: its executable is a deferred handle over `raw`
//! that applies the double-buffer rewrite and lays out the SPM when it is
//! first read — by the tuner for the candidates it measures or validates,
//! by whoever emits or runs the winner. An executable that is not
//! double-buffered *is* its candidate's `raw` once built.

use sw26010::MachineConfig;
use swatop_dsl::{SchedulePoint, ScheduleSpace, Seed};
use swatop_ir::{Program, ScheduleHints};

use crate::codegen::{fits, fits_with, Executable};
use crate::ops::DmaKnobs;
use crate::optimizer::{self, coalesce, prefetch};

/// An operator that swATOP can tune: a schedule seed, a schedule space, and
/// a lowering from schedule points to IR.
pub trait Operator {
    /// Operator name (used in reports).
    fn name(&self) -> String;

    /// The DSL schedule seed (computation description).
    fn seed(&self) -> Seed;

    /// The DSL schedule space.
    fn space(&self) -> ScheduleSpace;

    /// Lower one schedule point to un-optimized IR. `None` marks the point
    /// invalid (factor combination violates a kernel or capacity rule that
    /// is cheaper to check here than to discover in `plan`).
    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program>;

    /// Deterministic input data for each `Input`-role buffer, in
    /// declaration order (used by functional verification).
    fn input_data(&self, program: &Program) -> Vec<Vec<f32>>;

    /// Golden output for the given inputs (row-major in the output buffer's
    /// declared layout).
    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32>;

    /// FLOPs of the operator (direct-convolution-normalised for convs).
    fn flops(&self) -> u64;

    /// Whether [`Operator::lower`] reads the knobs of
    /// [`DmaKnobs::positions`] *only* to copy them into `Program::hints`,
    /// so that points differing only there lower to programs differing only
    /// in `hints`. The scheduler then lowers such points once. Every
    /// lowering in `ops/` declares it; the default is the sound one, and a
    /// wrong `true` panics in debug builds, where every shared lowering is
    /// compared against a direct one.
    fn lowering_ignores_dma_knobs(&self) -> bool {
        false
    }
}

/// One lowered, optimized, plannable schedule strategy.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Index of the schedule point within the space.
    pub point_index: usize,
    /// Human-readable knob assignment.
    pub describe: String,
    /// IR after DMA inference but *before* prefetching — the form the
    /// static performance model evaluates.
    pub raw: Program,
    /// Fully optimized executable (prefetched + SPM-planned), built on
    /// first read: `enumerate` decides *whether* it is double-buffered
    /// ([`Candidate::prefetched`]) and leaves the rewrite and the SPM layout
    /// to whoever reads `exe.program`, `exe.spm_offsets`, … first.
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
    pub fn enumerate(&self, op: &dyn Operator) -> Vec<Candidate> {
        let space = op.space();
        let mut front = FrontEnd::new(self, op, &space);
        space.points().filter_map(|point| front.candidate(&point)).collect()
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
    /// DMA-wall pipeline's output carrying the point's hints. Nothing is
    /// rewritten or planned here: the executable is built when it is read.
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
            && raw.hints.dbuf
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
/// hint-only knobs) share.
struct Shared {
    /// The point's selection with the hint-only knobs zeroed.
    key: Vec<usize>,
    /// `op.lower` at `key` (`None`: the structural point is invalid) until
    /// the last DMA-wall chain that reads it takes it.
    lowered: Option<Program>,
    /// DMA-wall pipeline output per `[coalesce][bcast]`, once asked for.
    raw: [[Option<Program>; 2]; 2],
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
    /// Knob positions that reach the program only through its hints; empty
    /// unless the operator declares its lowering independent of them, and
    /// then every point is its own structural point.
    hint_only: Vec<usize>,
    /// Points agreeing on the selection before this position form a block.
    block_prefix: usize,
    /// Stage outputs of the current block: at most the product of the
    /// arities after `block_prefix` entries.
    block: Vec<Shared>,
}

impl<'a> FrontEnd<'a> {
    fn new(sched: &'a Scheduler, op: &'a dyn Operator, space: &'a ScheduleSpace) -> Self {
        let hint_only =
            if op.lowering_ignores_dma_knobs() { DmaKnobs::positions(space) } else { Vec::new() };
        let block_prefix = hint_only.iter().copied().min().unwrap_or(space.knobs().len());
        FrontEnd { sched, op, space, hint_only, block_prefix, block: Vec::new() }
    }

    fn candidate(&mut self, point: &SchedulePoint) -> Option<Candidate> {
        let (sel, n) = (point.sel(), self.block_prefix);
        if self.block.first().is_some_and(|s| s.key[..n] != sel[..n]) {
            self.block.clear();
        }
        // The block's keys carry zeros at the hint-only positions, all of
        // which lie at or after `block_prefix`: compare around them.
        let hint_only = &self.hint_only;
        let same_structure = |key: &[usize]| {
            (n..sel.len()).all(|i| key[i] == sel[i] || hint_only.contains(&i))
        };
        let slot = match self.block.iter().position(|s| same_structure(&s.key)) {
            Some(i) => i,
            None => {
                let mut key = sel.to_vec();
                hint_only.iter().for_each(|&i| key[i] = 0);
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
        let hints = if self.hint_only.is_empty() {
            shared.lowered.as_ref()?.hints
        } else {
            DmaKnobs::at(&self.hint_only, sel).hints()
        };
        // The (coalesce, bcast) siblings are a derivation chain, not four
        // pipeline runs: `dma_wall` reads `coalesce` only, and the tagged
        // form is `tag_broadcast` on a copy of the untagged tree — the
        // tables stay shared. No step reads `dbuf`: the dbuf on/off pair
        // shares its `raw` — the same tree, not two equal ones. The lowering
        // feeds one chain per `coalesce` value (just one where no knob is
        // hint-only); the last of them takes it and edits its tree in place
        // instead of copying it.
        let c = usize::from(hints.coalesce);
        let last = self.hint_only.is_empty() || shared.raw[1 - c][0].is_some();
        let [untagged, tagged] = &mut shared.raw[c];
        if untagged.is_none() {
            let lowered = if last { shared.lowered.take() } else { shared.lowered.clone() };
            *untagged = lowered.map(|lowered| {
                let hints = ScheduleHints { bcast: false, ..hints };
                optimizer::dma_wall(Program { hints, ..lowered })
            });
        }
        let raw = untagged.as_ref().map(|untagged| {
            let form = if hints.bcast {
                tagged.get_or_insert_with(|| {
                    let mut tagged = untagged.clone();
                    coalesce::tag_broadcast(tagged.body_mut());
                    tagged
                })
            } else {
                untagged
            };
            Program { hints, ..form.clone() }
        });
        #[cfg(debug_assertions)]
        if !self.hint_only.is_empty() {
            check_shared(self.op, self.space, point, shared.check.as_ref(), raw.as_ref(), hints);
        }
        self.sched.assemble(self.space, point, raw?)
    }
}

/// What the points of a declaring operator share, checked against the point
/// on its own. The invariant behind
/// [`Operator::lowering_ignores_dma_knobs`]: lowering `point` directly gives
/// the shared lowering with `hints` overwritten. And the one behind the
/// derivation chain: optimizing that direct lowering from scratch gives the
/// chained `raw`.
#[cfg(debug_assertions)]
fn check_shared(
    op: &dyn Operator,
    space: &ScheduleSpace,
    point: &SchedulePoint,
    lowered: Option<&Program>,
    raw: Option<&Program>,
    hints: ScheduleHints,
) {
    let at = || format!("{} at point {} ({})", op.name(), point.index(space), point.describe(space));
    let direct = op.lower(space, point);
    let specialised = lowered.map(|p| Program { hints, ..p.clone() });
    assert!(
        direct == specialised,
        "{}: lowering reads a DMA knob structurally, but lowering_ignores_dma_knobs() is true",
        at(),
    );
    let from_scratch = direct.map(|p| optimizer::optimize(p, false));
    assert!(from_scratch.as_ref() == raw, "{}: the chained raw is not optimize(_, false)", at());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MatmulOp;

    /// A matmul whose lowering reads the `dbuf` toggle structurally (an
    /// extra SPM buffer), declaring — rightly or wrongly — what it likes.
    struct DbufReader {
        inner: MatmulOp,
        declares_independence: bool,
    }

    impl Operator for DbufReader {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn seed(&self) -> Seed {
            self.inner.seed()
        }
        fn space(&self) -> ScheduleSpace {
            self.inner.space()
        }
        fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
            let mut p = self.inner.lower(space, point)?;
            if point.toggle(space, "dbuf") {
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
        fn lowering_ignores_dma_knobs(&self) -> bool {
            self.declares_independence
        }
    }

    #[test]
    fn undeclared_operator_is_lowered_point_by_point() {
        let op = DbufReader { inner: MatmulOp::new(32, 32, 32), declares_independence: false };
        let space = op.space();
        let cands = Scheduler::new(MachineConfig::default()).enumerate(&op);
        assert!(cands.iter().any(|c| c.raw.hints.dbuf) && cands.iter().any(|c| !c.raw.hints.dbuf));
        for c in &cands {
            let point = space.point(c.point_index);
            assert_eq!(c.raw.hints.dbuf, point.toggle(&space, "dbuf"), "{}", c.describe);
            let staged = |p: &Program| p.spm_bufs.iter().any(|b| b.name == "staging");
            assert_eq!(staged(&c.raw), c.raw.hints.dbuf, "{}", c.describe);
            assert_eq!(staged(&c.exe.program), c.raw.hints.dbuf, "{}", c.describe);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "reads a DMA knob structurally")]
    fn wrong_declaration_trips_the_debug_comparison() {
        let op = DbufReader { inner: MatmulOp::new(32, 32, 32), declares_independence: true };
        Scheduler::new(MachineConfig::default()).enumerate(&op);
    }
}
