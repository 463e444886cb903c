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
use swatop_dsl::{factors_of, Knob, ScheduleSpace};
use swatop_ir::{AVar, AffineExpr, MemRole, ScheduleHints, VarId};

use crate::interp::{execute, instantiate};
use crate::scheduler::{Candidate, Operator};

/// The `dma` menu of the operators that tune the GEMM space over
/// materialised matrices, and of implicit conv: a ladder on which each level
/// adds one DMA-wall pass.
pub const DMA_LADDER: [&str; 4] = ["none", "dbuf", "dbuf+coal", "all"];

/// The DMA-wall knob. Every operator appends one `dma` choice whose levels
/// name the passes they turn on — `dbuf`, `coal`, `bcast` joined with `+`,
/// or `none` / `all` — and each level parses straight to the
/// [`ScheduleHints`] its program carries. Panics on a pass it does not know.
pub fn dma_level(level: &str) -> ScheduleHints {
    match level {
        "none" => ScheduleHints::default(),
        "all" => ScheduleHints { dbuf: true, coalesce: true, bcast: true },
        _ => level.split('+').fold(ScheduleHints::default(), |h, pass| match pass {
            "dbuf" => ScheduleHints { dbuf: true, ..h },
            "coal" => ScheduleHints { coalesce: true, ..h },
            "bcast" => ScheduleHints { bcast: true, ..h },
            _ => panic!("unknown DMA-wall pass '{pass}' in level '{level}'"),
        }),
    }
}

/// The position of `space`'s `dma` knob: the one knob whose value reaches a
/// library lowering's program only through its hints. The scheduler shares
/// one lowering among the points that differ only here (see
/// [`Operator::lower`]).
pub fn dma_knob(space: &ScheduleSpace) -> Option<usize> {
    space.knobs().iter().position(|k| k.name() == "dma")
}

/// The hints of each level of `space`'s `dma` menu, in menu order (none
/// without a `dma` choice).
pub fn dma_menu(space: &ScheduleSpace) -> Vec<ScheduleHints> {
    match dma_knob(space).map(|i| &space.knobs()[i]) {
        Some(Knob::Choice { candidates, .. }) => candidates.iter().map(|l| dma_level(l)).collect(),
        _ => Vec::new(),
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
    let (res, events) = run_differential(&clean, op, cand, mis);
    (verdict(res, verify_tolerance(op.flops())), events)
}

/// The differential verdict on a functional run: it must have succeeded and
/// its max-abs-diff must be finite — a NaN or infinite output element makes
/// it so — and within `tol`.
fn verdict(res: MachineResult<f32>, tol: f32) -> Result<(), String> {
    match res {
        Err(e) => Err(format!("differential: functional execution failed: {e}")),
        Ok(diff) if !diff.is_finite() || diff > tol => {
            Err(format!("differential: max |err| {diff:.3e} exceeds tolerance {tol:.3e}"))
        }
        Ok(_) => Ok(()),
    }
}

/// Relative-error bound used when asserting functional correctness of
/// generated schedules (f32 accumulation over long K chains).
pub fn verify_tolerance(flops: u64) -> f32 {
    // Scale loosely with reduction depth; inputs are in [-1, 1).
    1e-4 * ((flops as f32).sqrt().log2().max(1.0))
}

/// [`verify_candidate`] with every buffer but the inputs full of non-zero
/// data before the run: the lowerings' contract is `C = A·B` whatever C
/// held, so a tile accumulated onto memory the program did not write first
/// shows up as a wrong answer.
#[cfg(test)]
pub(crate) fn verify_over_stale_memory(
    cfg: &MachineConfig,
    op: &dyn Operator,
    cand: &Candidate,
) -> MachineResult<f32> {
    let program = &cand.exe.program;
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    let binding = instantiate(&mut cg, &cand.exe);
    let inputs = op.input_data(program);
    for (id, data) in program.bufs_with_role(MemRole::Input).iter().zip(&inputs) {
        cg.mem.write(binding.bufs[id.0], 0, data)?;
    }
    for (decl, &buf) in program.mem_bufs.iter().zip(&binding.bufs) {
        if decl.role != MemRole::Input {
            let stale = swtensor::init::random_vec(decl.len, 0x5A1E);
            cg.mem.write(buf, 0, &stale.iter().map(|x| x + 2.0).collect::<Vec<_>>())?;
        }
    }
    execute(&mut cg, &cand.exe, &binding)?;
    let out = binding.bufs[program.bufs_with_role(MemRole::Output)[0].0];
    Ok(swtensor::compare::max_abs_diff(cg.mem.buffer(out), &op.reference_output(&inputs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_differential_verdict_rejects_an_output_holding_a_nan() {
        let expect = [0.5f32, -0.25, 1.0, 0.75];
        let tol = verify_tolerance(2 * 64 * 64 * 64);
        let mut got = expect;
        assert_eq!(verdict(Ok(swtensor::max_abs_diff(&got, &expect)), tol), Ok(()));
        got[2] = f32::NAN;
        let err = verdict(Ok(swtensor::max_abs_diff(&got, &expect)), tol).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        got[2] = f32::INFINITY;
        assert!(verdict(Ok(swtensor::max_abs_diff(&got, &expect)), tol).is_err());
    }

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
    fn a_dma_level_parses_to_the_passes_it_names() {
        let h = |dbuf, coalesce, bcast| ScheduleHints { dbuf, coalesce, bcast };
        for (level, want) in [
            ("none", h(false, false, false)),
            ("dbuf", h(true, false, false)),
            ("dbuf+coal", h(true, true, false)),
            ("bcast", h(false, false, true)),
            ("coal+bcast", h(false, true, true)),
            ("dbuf+bcast", h(true, false, true)),
            ("all", h(true, true, true)),
            ("dbuf+coal+bcast", h(true, true, true)),
        ] {
            assert_eq!(dma_level(level), want, "{level}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown DMA-wall pass 'dbuff'")]
    fn a_misspelt_dma_level_is_refused() {
        dma_level("dbuff+coal");
    }
}
