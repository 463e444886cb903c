//! End-to-end integration: DSL → scheduler → optimizer → autotuner →
//! codegen → simulated execution, verified functionally and against the
//! handcrafted baselines.

use swatop_repro::baselines::{
    naive_conv_cycles, swdnn_implicit_conv, xmath_explicit_conv, xmath_gemm,
    xmath_winograd_conv,
};
use swatop_repro::ir::Stmt;
use swatop_repro::sw26010::{DmaDirection, MachineConfig};
use swatop_repro::swatop::ops::{
    verify_candidate, ExplicitConvOp, ImplicitConvOp, MatmulOp, WinogradConvOp,
};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::swtensor::ConvShape;
use swatop_repro::workloads::{conv_sweep, resnet_layers, vgg16_layers, yolo_layers, CONV_BATCHES};

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
    let exe = &cands[outcome.best].exe;
    let c = exe.emit_c();
    // Each DMA node is the call of its kind: per CPE, a broadcast get or a
    // gathered put.
    let mut needles = vec!["spm_gemm(", "swDMAWait(", "__thread_local float spm["];
    exe.program.body.visit(&mut |s| {
        if let Stmt::DmaCpe(d) = s {
            needles.push(match (d.bcast, d.direction) {
                (None, _) => "swDMA(",
                (Some(_), DmaDirection::MemToSpm) => "swDMA_bcast(",
                (Some(_), DmaDirection::SpmToMem) => "swDMA_gather(",
            });
        }
    });
    assert!(needles.contains(&"swDMA_gather("), "the winner gathers its output:\n{c}");
    for needle in needles {
        assert!(c.contains(needle), "generated C lacks {needle}:\n{c}");
    }
}

/// The brute-force optimum of `op`'s space, in cycles.
fn optimum(op: &dyn Operator) -> u64 {
    let cfg = cfg();
    let cands = Scheduler::new(cfg.clone()).enumerate(op);
    let best = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None);
    best.unwrap_or_else(|e| panic!("{}: {e:?}", op.name())).cycles.get()
}

/// Fig. 8: explicit conv is the lowest method. At batch 1 that holds only
/// if implicit conv's optimum is no slower than explicit conv's.
fn assert_implicit_no_slower_than_explicit(shape: ConvShape) {
    let implicit = optimum(&ImplicitConvOp::new(shape));
    let explicit = optimum(&ExplicitConvOp::new(shape));
    assert!(implicit <= explicit, "{shape:?}: implicit {implicit} > explicit {explicit} cycles");
}

#[test]
fn batch1_gap_is_bridged() {
    // swDNN has no batch-1 implicit conv; swATOP must produce one, and a
    // fast one: merged output rows widen the GEMM's N (23,069 cycles against
    // explicit conv's 23,360).
    let cfg = cfg();
    let shape = ConvShape::square(1, 32, 32, 8);
    assert!(swdnn_implicit_conv(&cfg, &shape).is_none());
    tune_and_verify(&ImplicitConvOp::new(shape));
    assert_implicit_no_slower_than_explicit(shape);
}

#[test]
#[ignore = "ROADMAP item 16"]
fn implicit_is_no_slower_than_explicit_on_listing1_at_batch1() {
    // The 15 batch-1 configurations of Listing 1 at spatial cap 16 (release:
    // about 3 s). Implicit wins 8 and loses 7, the 6 with No >= 256 and
    // 512->128 (implicit / explicit optimum cycles): 256->256 941,570 /
    // 865,507; 384->256 1,386,581 / 1,275,326; 384->384 2,009,592 /
    // 1,748,946; 512->128 1,052,084 / 1,051,437; 512->256 1,824,683 /
    // 1,668,553; 512->384 2,646,857 / 2,285,669; 512->512 3,463,441 /
    // 2,902,785. Implicit conv repacks the 3x3 weight per call (9·No·Ni
    // elements, about 200,000 cycles at 256->256), which explicit conv's
    // GEMM reads in place, and at batch 1 explicit conv's GEMM writes the
    // output in place too. The cap folds Listing 1's 75 configurations into
    // these 15 shapes: each is compared once.
    let mut shapes: Vec<ConvShape> = Vec::new();
    for shape in conv_sweep(1, Some(16)) {
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    assert_eq!(shapes.len(), 15);
    for shape in shapes {
        assert_implicit_no_slower_than_explicit(shape);
    }
}

#[test]
fn every_applicable_table1_layer_has_an_implicit_schedule() {
    let sched = Scheduler::new(cfg());
    let mut shapes: Vec<ConvShape> = Vec::new();
    for batch in CONV_BATCHES {
        let layers = vgg16_layers().iter().chain(resnet_layers()).chain(yolo_layers());
        for shape in layers.map(|l| l.shape(batch, Some(28))) {
            if ImplicitConvOp::applicable(&shape) && !shapes.contains(&shape) {
                shapes.push(shape);
            }
        }
    }
    let missing: Vec<&ConvShape> = shapes
        .iter()
        .filter(|&&shape| {
            let op = ImplicitConvOp::new(shape);
            let space = op.space();
            let found = space.points().any(|p| sched.lower_point(&op, &space, &p).is_some());
            !found
        })
        .collect();
    let (n, of) = (missing.len(), shapes.len());
    assert!(missing.is_empty(), "{n} of {of} without a schedule: {missing:?}");
}
