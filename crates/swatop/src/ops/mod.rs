//! The operator library: tensorized DL operators expressed as DSL seeds,
//! schedule spaces and IR lowerings.
//!
//! * [`matmul`] — matrix multiplication (the xMath comparison, Tab. 2);
//! * [`implicit_conv`] — implicit-GEMM convolution (Alg. 2, Fig. 5);
//! * [`explicit_conv`] — explicit-GEMM (im2col) convolution (Fig. 7);
//! * [`winograd_conv`] — Winograd F(2×2,3×3) convolution (Fig. 6);
//! * [`tiling`] — the shared boundary-processing machinery: dimension
//!   tiling with parameter switching and lightweight / traditional zero
//!   padding (Sec. 4.5.3).

pub mod batched_matmul;
pub mod conv_grad;
pub mod explicit_conv;
pub mod implicit_conv;
pub mod matmul;
pub mod tiling;
pub mod winograd_conv;

pub use batched_matmul::BatchedMatmulOp;
pub use conv_grad::{ConvBackwardDataOp, ConvBackwardFilterOp};
pub use explicit_conv::ExplicitConvOp;
pub use implicit_conv::ImplicitConvOp;
pub use matmul::MatmulOp;
pub use winograd_conv::WinogradConvOp;

use sw26010::fault::MiscompilePlan;
use sw26010::{CoreGroup, ExecMode, MachineConfig, MachineResult};
use swatop_dsl::{factors_of, SchedulePoint, ScheduleSpace};
use swatop_ir::{AVar, AffineExpr, MemRole, ScheduleHints, VarId};

use crate::interp::{execute, instantiate};
use crate::scheduler::{Candidate, Operator};

/// The DMA-wall schedule dimensions every operator can expose: double
/// buffering, transaction coalescing, and register-broadcast tiling.
///
/// Matmul exposes the three as independent toggles; the convolution spaces
/// use one compact 4-value `dma` choice (a nested ladder — each level adds
/// one pass) to bound the black-box search blowup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaKnobs {
    pub dbuf: bool,
    pub coalesce: bool,
    pub bcast: bool,
}

impl DmaKnobs {
    /// Append the compact `dma` ladder knob to a space.
    pub fn add_compact(space: &mut ScheduleSpace) {
        space.choice(
            "dma",
            vec!["none".into(), "dbuf".into(), "dbuf+coal".into(), "all".into()],
        );
    }

    /// Append the three independent toggles to a space.
    pub fn add_toggles(space: &mut ScheduleSpace) {
        space.toggle("dbuf");
        space.toggle("coal");
        space.toggle("bcast");
    }

    /// Parse from a point, tolerating spaces that expose neither form
    /// (everything off — the pre-DMA-wall behaviour).
    pub fn from_point(space: &ScheduleSpace, point: &SchedulePoint) -> DmaKnobs {
        if space.has_knob("dma") {
            match point.choice(space, "dma") {
                "none" => DmaKnobs::default(),
                "dbuf" => DmaKnobs { dbuf: true, ..Default::default() },
                "dbuf+coal" => DmaKnobs { dbuf: true, coalesce: true, bcast: false },
                _ => DmaKnobs { dbuf: true, coalesce: true, bcast: true },
            }
        } else if space.has_knob("dbuf") {
            DmaKnobs {
                dbuf: point.toggle(space, "dbuf"),
                coalesce: point.toggle(space, "coal"),
                bcast: point.toggle(space, "bcast"),
            }
        } else {
            DmaKnobs::default()
        }
    }

    /// Positions in `space` of the knobs [`DmaKnobs::from_point`] reads —
    /// the knobs whose value reaches a library lowering's program only
    /// through [`DmaKnobs::hints`]. The scheduler shares one lowering among
    /// the points that differ only here (see
    /// [`Operator::lowering_ignores_dma_knobs`]).
    pub fn positions(space: &ScheduleSpace) -> Vec<usize> {
        let names: &[&str] = if space.has_knob("dma") {
            &["dma"]
        } else if space.has_knob("dbuf") {
            &["dbuf", "coal", "bcast"]
        } else {
            &[]
        };
        let pos = |name: &str| space.knobs().iter().position(|k| k.name() == name);
        names.iter().map(|n| pos(n).unwrap_or_else(|| panic!("unknown knob '{n}'"))).collect()
    }

    /// [`DmaKnobs::from_point`] with the knobs already located:
    /// `positions` is [`DmaKnobs::positions`] of the space `sel` (a point's
    /// [`SchedulePoint::sel`]) selects in. The compact ladder is read by
    /// level, in [`DmaKnobs::add_compact`]'s order.
    pub fn at(positions: &[usize], sel: &[usize]) -> DmaKnobs {
        match *positions {
            [dma] => DmaKnobs { dbuf: sel[dma] >= 1, coalesce: sel[dma] >= 2, bcast: sel[dma] >= 3 },
            [dbuf, coal, bcast] => {
                DmaKnobs { dbuf: sel[dbuf] == 1, coalesce: sel[coal] == 1, bcast: sel[bcast] == 1 }
            }
            _ => DmaKnobs::default(),
        }
    }

    /// The optimizer directives these knobs select.
    pub fn hints(self) -> ScheduleHints {
        ScheduleHints { dbuf: self.dbuf, coalesce: self.coalesce, bcast: self.bcast }
    }
}

/// Divisor candidates of `n` that are multiples of `mult`, capped in count
/// (the convolutions' channel-tile menus).
fn divisor_menu(n: usize, mult: usize, cap: usize) -> Vec<usize> {
    let v: Vec<usize> = factors_of(n).into_iter().filter(|d| d % mult == 0).collect();
    spread(v, cap)
}

/// The largest divisor of `n` that is a multiple of `mult` — the top of an
/// uncapped [`divisor_menu`] — or `mult` where there is none.
fn largest_divisor(n: usize, mult: usize) -> usize {
    (1..=n / mult).rev().map(|q| q * mult).find(|d| n.is_multiple_of(*d)).unwrap_or(mult)
}

/// `Σ stride·var + start` over loop variables: a tile address, built in one
/// allocation.
fn loop_sum(terms: &[(VarId, usize)], start: usize) -> AffineExpr {
    AffineExpr::from_terms(terms.iter().map(|&(v, k)| (AVar::Loop(v), k as i64)), start as i64)
}

/// Keep at most `cap` values, evenly spread (always including the largest).
fn spread(v: Vec<usize>, cap: usize) -> Vec<usize> {
    if v.len() <= cap {
        return v;
    }
    let step = (v.len() - 1) as f64 / (cap - 1) as f64;
    let mut out: Vec<usize> = (0..cap).map(|i| v[(i as f64 * step).round() as usize]).collect();
    out.dedup();
    out
}

/// Functionally execute a candidate and compare its output against the
/// operator's golden reference. Returns the maximum absolute error.
pub fn verify_candidate(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
) -> MachineResult<f32> {
    run_differential(cfg, op, cand, None).0
}

/// Differential execution core: run the candidate functionally (optionally
/// under an armed miscompile injection) and return the max-abs-diff against
/// the golden reference, plus the number of injection events that fired.
fn run_differential(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
    mis: Option<MiscompilePlan>,
) -> (MachineResult<f32>, u64) {
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    cg.arm_miscompile(mis);
    let binding = instantiate(&mut cg, &cand.exe);
    let inputs = op.input_data(&cand.exe.program);
    let input_ids = cand.exe.program.bufs_with_role(MemRole::Input);
    assert_eq!(inputs.len(), input_ids.len(), "input count mismatch");
    for (id, data) in input_ids.iter().zip(&inputs) {
        if let Err(e) = cg.mem.write(binding.bufs[id.0], 0, data) {
            return (Err(e), cg.miscompile_events());
        }
    }
    if let Err(e) = execute(&mut cg, &cand.exe, &binding) {
        return (Err(e), cg.miscompile_events());
    }
    let out_ids = cand.exe.program.bufs_with_role(MemRole::Output);
    assert_eq!(out_ids.len(), 1, "operators declare exactly one output");
    let got = cg.mem.buffer(binding.bufs[out_ids[0].0]);
    let expect = op.reference_output(&inputs);
    (Ok(swtensor::compare::max_abs_diff(got, &expect)), cg.miscompile_events())
}

/// Fully validate a candidate before it may be reported as a tuning winner:
/// the static legality checker first (cheap, catches structural hazards),
/// then differential functional execution against the operator's golden
/// reference under [`verify_tolerance`].
///
/// Validation always runs on a *fault-free* copy of `cfg`: injected
/// transient faults belong to the measurement path, and a validator that
/// could fail on a dropped batch would quarantine correct schedules
/// non-deterministically. A returned `Err` is therefore a deterministic
/// property of the candidate — never worth retrying.
pub fn validate_candidate(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
) -> Result<(), String> {
    let clean = MachineConfig { fault: None, ..cfg.clone() };
    crate::optimizer::verify::verify_message(&cand.exe, &clean)
        .map_err(|msg| format!("static: {msg}"))?;
    differential(&clean, op, cand, None).0
}

/// Self-test variant of [`validate_candidate`]: run only the differential
/// stage with a seeded miscompile injection armed, returning the validation
/// verdict and how many corruption events actually fired. Tests asserting
/// "the validator catches class X" must require `events > 0`, otherwise a
/// schedule that never exercised the corrupted path passes vacuously.
pub fn validate_candidate_injected(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
    mis: MiscompilePlan,
) -> (Result<(), String>, u64) {
    differential(cfg, op, cand, Some(mis))
}

/// The differential stage of validation, on a fault-free copy of `cfg`: the
/// functional run must succeed and land within [`verify_tolerance`] of the
/// golden reference. Also returns the injection events that fired.
fn differential(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
    mis: Option<MiscompilePlan>,
) -> (Result<(), String>, u64) {
    let clean = MachineConfig { fault: None, ..cfg.clone() };
    let tol = verify_tolerance(op.flops());
    let (res, events) = run_differential(&clean, op, cand, mis);
    let verdict = match res {
        Err(e) => Err(format!("differential: functional execution failed: {e}")),
        Ok(diff) if !diff.is_finite() || diff > tol => {
            Err(format!("differential: max |err| {diff:.3e} exceeds tolerance {tol:.3e}"))
        }
        Ok(_) => Ok(()),
    };
    (verdict, events)
}

/// Relative-error bound used when asserting functional correctness of
/// generated schedules (f32 accumulation over long K chains).
pub fn verify_tolerance(flops: u64) -> f32 {
    // Scale loosely with reduction depth; inputs are in [-1, 1).
    1e-4 * ((flops as f32).sqrt().log2().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_divisor_is_the_top_of_the_divisor_list() {
        for n in 0..600 {
            for mult in [1, 8, 32] {
                let top = factors_of(n).into_iter().filter(|d| d % mult == 0).max().unwrap_or(mult);
                assert_eq!(largest_divisor(n, mult), top, "{n} {mult}");
            }
        }
    }

    #[test]
    fn knobs_by_position_equal_knobs_by_name() {
        let spaces = [
            MatmulOp::new(32, 32, 32).space(),
            ImplicitConvOp::new(swtensor::ConvShape::square(8, 16, 16, 4)).space(),
            {
                let mut plain = ScheduleSpace::new();
                plain.toggle("other");
                plain
            },
        ];
        for space in &spaces {
            let positions = DmaKnobs::positions(space);
            for point in space.points() {
                assert_eq!(
                    DmaKnobs::at(&positions, point.sel()),
                    DmaKnobs::from_point(space, &point),
                    "{}",
                    point.describe(space)
                );
            }
        }
        assert_eq!(DmaKnobs::positions(&spaces[0]).len(), 3, "matmul exposes the toggles");
        assert_eq!(DmaKnobs::positions(&spaces[1]).len(), 1, "the convs expose the ladder");
    }
}
