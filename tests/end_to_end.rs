//! End-to-end integration: DSL → scheduler → optimizer → autotuner →
//! codegen → simulated execution, verified functionally and against the
//! handcrafted baselines.

use swatop_repro::baselines::{
    naive_conv_cycles, swdnn_implicit_conv, xmath_explicit_conv, xmath_gemm,
    xmath_winograd_conv,
};
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::{
    verify_candidate, ExplicitConvOp, ImplicitConvOp, MatmulOp, WinogradConvOp,
};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::swtensor::ConvShape;

fn cfg() -> MachineConfig {
    MachineConfig::default()
}

fn with(tiers: TierPolicy) -> TuneOptions {
    TuneOptions { tiers, ..TuneOptions::default() }
}

/// Model-tune an operator and functionally verify the winner.
fn tune_and_verify(op: &dyn Operator) -> (u64, usize) {
    let cfg = cfg();
    let sched = Scheduler::new(cfg.clone());
    let cands = sched.enumerate(op);
    assert!(!cands.is_empty(), "{}: empty space", op.name());
    let outcome = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).expect("tunable");
    let winner = &cands[outcome.best];
    let err = verify_candidate(&cfg, op, winner).expect("winner runs functionally");
    assert!(err < 5e-3, "{}: winner wrong, err {err}", op.name());
    (outcome.cycles.get(), cands.len())
}

#[test]
fn matmul_end_to_end() {
    let (cycles, space) = tune_and_verify(&MatmulOp::new(100, 72, 40));
    assert!(cycles > 0 && space > 8);
}

#[test]
fn implicit_conv_end_to_end() {
    let (cycles, space) = tune_and_verify(&ImplicitConvOp::new(ConvShape::square(8, 16, 16, 8)));
    assert!(cycles > 0 && space > 8);
}

#[test]
fn explicit_conv_end_to_end() {
    let shape = ConvShape { b: 2, ni: 8, no: 16, ro: 5, co: 5, kr: 3, kc: 3, stride: 2, pad: 1 };
    let (cycles, space) = tune_and_verify(&ExplicitConvOp::new(shape));
    assert!(cycles > 0 && space > 8);
}

#[test]
fn winograd_conv_end_to_end() {
    let (cycles, space) = tune_and_verify(&WinogradConvOp::new(ConvShape::square(2, 16, 16, 7)));
    assert!(cycles > 0 && space > 4);
}

#[test]
fn tuned_implicit_conv_beats_every_baseline() {
    let cfg = cfg();
    let shape = ConvShape::square(32, 32, 32, 8);
    let op = ImplicitConvOp::new(shape);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let best = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None).unwrap().cycles;
    let swdnn = swdnn_implicit_conv(&cfg, &shape).unwrap();
    assert!(best <= swdnn, "blackbox {best} > swDNN {swdnn}");
    let naive = naive_conv_cycles(&cfg, &shape);
    assert!(best < naive, "tensorized {best} must beat naive {naive}");
}

#[test]
fn tuned_winograd_beats_library_calls() {
    let cfg = cfg();
    let shape = ConvShape::square(8, 16, 16, 8);
    let op = WinogradConvOp::new(shape);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let ours = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).unwrap().cycles;
    let base = xmath_winograd_conv(&cfg, &shape).unwrap();
    assert!(
        ours < base,
        "fused winograd {ours} must beat 16 library calls {base}"
    );
}

#[test]
fn tuned_explicit_beats_fixed_library_gemm() {
    let cfg = cfg();
    let shape = ConvShape::square(2, 16, 24, 6);
    let op = ExplicitConvOp::new(shape);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let ours = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).unwrap().cycles;
    let base = xmath_explicit_conv(&cfg, &shape).unwrap();
    assert!(ours <= base, "ours {ours} vs xmath-based {base}");
}

#[test]
fn unaligned_gemm_beats_traditional_padding_library() {
    let cfg = cfg();
    let (m, n, k) = (200, 120, 72);
    let op = MatmulOp::new(m, n, k);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let ours = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).unwrap().cycles;
    let base = xmath_gemm(&cfg, m, n, k).unwrap();
    assert!(
        ours < base,
        "lightweight boundary ({ours}) must beat whole-matrix padding ({base})"
    );
}

#[test]
fn model_pick_close_to_bruteforce() {
    let cfg = cfg();
    let op = ImplicitConvOp::new(ConvShape::square(32, 32, 32, 8));
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let bb = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None).unwrap();
    let model = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).unwrap();
    let ratio = bb.cycles.get() as f64 / model.cycles.get() as f64;
    // The paper's worst case is 8%; allow slack for this single config.
    assert!(ratio > 0.85, "model pick lost {:.1}%", 100.0 * (1.0 - ratio));
    // And the model must be dramatically cheaper to run.
    assert!(model.executed <= 3, "model tuner executed {} candidates", model.executed);
    assert_eq!(bb.executed, cands.len());
}

#[test]
fn emitted_c_reflects_the_schedule() {
    let cfg = cfg();
    let op = MatmulOp::new(64, 64, 64);
    let cands = Scheduler::new(cfg.clone()).enumerate(&op);
    let outcome = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None).unwrap();
    let c = cands[outcome.best].exe.emit_c();
    for needle in ["spm_gemm(", "swDMA(", "swDMAWait(", "__thread_local float spm["] {
        assert!(c.contains(needle), "generated C lacks {needle}:\n{c}");
    }
}

#[test]
fn batch1_gap_is_bridged() {
    // swDNN has no batch-1 implicit conv; swATOP must produce one.
    let cfg = cfg();
    let shape = ConvShape::square(1, 32, 32, 8);
    assert!(swdnn_implicit_conv(&cfg, &shape).is_none());
    let (cycles, _) = tune_and_verify(&ImplicitConvOp::new(shape));
    assert!(cycles > 0);
}
