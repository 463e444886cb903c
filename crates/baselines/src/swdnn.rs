//! swDNN-like implicit convolution: the "best manual implementation"
//! baseline of the paper's Fig. 5.
//!
//! swDNN's design (Fang et al., IPDPS'17) targets training batches: the
//! GEMM N dimension comes entirely from the batch, data stays row-major,
//! the batch dimension is vectorised, and blocking is fixed at the largest
//! channel tiles that fit. The design rules are encoded as a scoring
//! function over the implicit-conv schedule space; the single best-scoring
//! valid point *is* the handcrafted kernel.
//!
//! Consequences faithfully reproduced:
//!
//! * **no batch-1 support** (`None` for `B < 32`, matching "there is
//!   currently no manually optimized version");
//! * a *constant* GEMM N target instead of adaptive pixel fusion, no
//!   layout adaptation, no vectorisation-dimension choice — exactly the
//!   degrees of freedom swATOP exploits.
//!
//! The rules score no DMA-wall pass and no reduction schedule: a knob the
//! score does not read falls to its first value, so swDNN's point holds
//! `dma=none` and `red=loop`, the first levels of those menus. Reordering
//! either menu moves Fig. 5's baseline (a test below pins it).

use sw26010::{Cycles, MachineConfig};
use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Candidate;
use swtensor::ConvShape;

use crate::fixed_schedule;

/// Simulated cycles of the swDNN implicit convolution, or `None` when the
/// library has no implementation for this configuration.
pub fn swdnn_implicit_conv(cfg: &MachineConfig, shape: &ConvShape) -> Option<Cycles> {
    swatop::tuner::run_candidate(cfg, &swdnn_schedule(cfg, shape)?).ok()
}

/// swDNN's fixed schedule for `shape`, or `None` where it has none.
fn swdnn_schedule(cfg: &MachineConfig, shape: &ConvShape) -> Option<Candidate> {
    if shape.b < 32 || !ImplicitConvOp::applicable(shape) {
        return None;
    }
    let op = ImplicitConvOp::new(*shape);
    fixed_schedule(cfg, &op, |space, point| {
        let t_no = point.factor(space, "t_no");
        let t_ni = point.factor(space, "t_ni");
        let t_co = point.factor(space, "t_co");
        let mut score: i64 = 0;
        // Design rule 1: the GEMM N dimension targets 128 elements — from
        // the batch alone when it suffices, with fixed Co-blocking
        // otherwise. (No *adaptive* pixel fusion: the target is constant.)
        let n_dim = (t_co * shape.b) as i64;
        score += 1_000_000 - (n_dim - 128).abs() * 1_000;
        // Design rule 2: vectorise along the batch (N) dimension.
        score += if !point.toggle(space, "vec_m") { 500_000 } else { 0 };
        // Design rule 3: row-major weight and data layouts.
        score += if point.choice(space, "w_layout") == "row" { 250_000 } else { 0 };
        score += if point.choice(space, "d_layout") == "row" { 125_000 } else { 0 };
        // Design rule 4: fixed channel blocking — 128-wide output-channel
        // panels over 256-deep input-channel panels (closest available
        // divisor wins; no shape adaptation).
        score += 100_000 - (t_no as i64 - 128).abs() * 100;
        score += 50_000 - (t_ni as i64 - 256).abs() * 10;
        score
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop::scheduler::Scheduler;
    use swatop::tuner::{tune, TierPolicy, TuneOptions};

    #[test]
    fn no_batch1_support() {
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(1, 64, 64, 16);
        assert!(swdnn_implicit_conv(&cfg, &shape).is_none());
    }

    #[test]
    fn no_strided_support() {
        let cfg = MachineConfig::default();
        let mut shape = ConvShape::square(32, 64, 64, 16);
        shape.stride = 2;
        assert!(swdnn_implicit_conv(&cfg, &shape).is_none());
    }

    #[test]
    fn batch32_runs_and_costs_cycles() {
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(32, 16, 16, 4);
        let c = swdnn_implicit_conv(&cfg, &shape).expect("swDNN supports batch 32");
        assert!(c.get() > 0);
    }

    #[test]
    fn the_unscored_knobs_sit_at_their_first_level() {
        // ResNet-50's res5 3x3 layer (Table 1) at batch 32: swDNN's point
        // and its cycles, so that reordering a menu cannot move Fig. 5's
        // baseline unseen.
        let cfg = MachineConfig::default();
        let shape =
            ConvShape { b: 32, ni: 512, no: 512, ro: 7, co: 7, kr: 3, kc: 3, stride: 1, pad: 1 };
        let cand = swdnn_schedule(&cfg, &shape).expect("swDNN supports batch 32");
        assert!(cand.describe.ends_with("dma=none, red=loop"), "{}", cand.describe);
        let cycles = swdnn_implicit_conv(&cfg, &shape).unwrap();
        assert_eq!(cycles.get(), 43_573_968, "{}", cand.describe);
    }

    #[test]
    fn swatop_black_box_never_loses_to_the_fixed_schedule() {
        // The fixed swDNN point is *in* swATOP's space, so the black-box
        // optimum is ≤ swDNN by construction. This is the structural
        // reason Table 1 shows zero "slower" cases for implicit conv.
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(32, 16, 16, 4);
        let swdnn = swdnn_implicit_conv(&cfg, &shape).unwrap();
        let op = ImplicitConvOp::new(shape);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        let opts = TuneOptions { tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
        let best = tune(&cfg, &cands, &opts, None).unwrap();
        assert!(best.cycles <= swdnn, "blackbox {} > swdnn {swdnn}", best.cycles);
    }
}
