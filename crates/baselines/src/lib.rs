//! # baselines — the best-handcrafted implementations swATOP is compared to
//!
//! The paper evaluates against two manual libraries:
//!
//! * **swDNN** (Fang et al., IPDPS'17) for the implicit convolution —
//!   [`swdnn`] models it as an expert-chosen *fixed* schedule: row-major
//!   layouts, batch-dimension vectorisation, no output-pixel fusion, tile
//!   sizes tuned for large batches. It has **no batch-1 implementation**
//!   ("designing Implicit CONV of batch-size=1 is complicated, there is
//!   currently no manually optimized version in swDNN").
//! * **xMath** (Jiang et al., ICPP'17) for GEMM — [`xmath`] models it as a
//!   fixed square-blocked schedule (128×128×64, packed column-major A,
//!   M-vectorised) with **traditional whole-matrix zero padding** for
//!   unaligned shapes. For the Winograd and explicit convolution baselines
//!   the GEMMs are *library calls*: each of Winograd's 16 multiplications
//!   marshals its operands into per-call buffers and pads them separately —
//!   exactly the overhead swATOP's fused, batched schedule eliminates.
//!
//! Both baselines execute on the same simulated machine through the same
//! interpreter, so every comparison is apples-to-apples: the difference is
//! *only* the schedule.

pub mod naive;
pub mod swdnn;
pub mod xmath;

pub use naive::naive_conv_cycles;
pub use swdnn::swdnn_implicit_conv;
pub use xmath::{xmath_explicit_conv, xmath_gemm, xmath_winograd_conv};

use sw26010::MachineConfig;
use swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_dsl::{SchedulePoint, ScheduleSpace};

/// The expert's fixed schedule: among the *valid* points of `op`'s space,
/// the one maximising `score` (the score encodes the handcrafted design
/// rules — e.g. "largest output-channel tile up to 128, batch-vectorised,
/// row-major"). Ties break towards the lowest point index, making the
/// baseline fully deterministic; a knob the score does not read therefore
/// sits at its first value.
pub(crate) fn fixed_schedule(
    cfg: &MachineConfig,
    op: &dyn Operator,
    score: impl Fn(&ScheduleSpace, &SchedulePoint) -> i64,
) -> Option<Candidate> {
    let sched = Scheduler::new(cfg.clone());
    let space = op.space();
    let mut best: Option<(i64, Candidate)> = None;
    for point in space.points() {
        let s = score(&space, &point);
        if best.as_ref().is_some_and(|(bs, _)| *bs >= s) {
            continue;
        }
        if let Some(cand) = sched.lower_point(op, &space, &point) {
            best = Some((s, cand));
        }
    }
    best.map(|(_, cand)| cand)
}
