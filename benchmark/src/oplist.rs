//! The four workloads and their seeded op lists.
//!
//! The shapes of a workload are fixed: every end-to-end metric is compared
//! across runs with different seeds (the driver's spread check, and a later
//! PR's parent/change pairs), so the amount of work and the simulated
//! cycles must not depend on the seed. The seed draws the *order* in which
//! the ops are tuned, which moves allocator state and the warmth of the
//! process-global caches between ops — the product sees only the generated
//! list. Exact metrics are computed in canonical op order.

use baselines::{swdnn_implicit_conv, xmath_explicit_conv, xmath_gemm, xmath_winograd_conv};
use sw26010::MachineConfig;
use swatop::ops::{
    BatchedMatmulOp, ConvBackwardDataOp, ConvBackwardFilterOp, ExplicitConvOp, ImplicitConvOp,
    MatmulOp, WinogradConvOp,
};
use swatop::scheduler::Operator;
use swatop::tuner::TierMode;
use swtensor::ConvShape;
use workloads::{resnet_layers, vgg16_layers, yolo_layers, ConvLayer};

/// What to tune: one operator instance of the `ops/` library.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    Matmul(usize, usize, usize),
    BatchedMatmul(usize, usize, usize, usize),
    Implicit(ConvShape),
    Winograd(ConvShape),
    Explicit(ConvShape),
    BackwardData(ConvShape),
    BackwardFilter(ConvShape),
}

/// A named op of a workload. `canon` is its position in the canonical
/// (seed-independent) list.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSpec {
    pub canon: usize,
    pub name: String,
    pub kind: OpKind,
}

impl OpSpec {
    pub fn build(&self) -> Box<dyn Operator> {
        match self.kind {
            OpKind::Matmul(m, n, k) => Box::new(MatmulOp::new(m, n, k)),
            OpKind::BatchedMatmul(b, m, n, k) => Box::new(BatchedMatmulOp::new(b, m, n, k)),
            OpKind::Implicit(s) => Box::new(ImplicitConvOp::new(s)),
            OpKind::Winograd(s) => Box::new(WinogradConvOp::new(s)),
            OpKind::Explicit(s) => Box::new(ExplicitConvOp::new(s)),
            OpKind::BackwardData(s) => Box::new(ConvBackwardDataOp::new(s)),
            OpKind::BackwardFilter(s) => Box::new(ConvBackwardFilterOp::new(s)),
        }
    }

    /// Simulated cycles of the hand-written library baseline (xMath /
    /// swDNN), where the paper compares against one.
    pub fn baseline_cycles(&self, cfg: &MachineConfig) -> Option<u64> {
        let cycles = match &self.kind {
            OpKind::Matmul(m, n, k) => xmath_gemm(cfg, *m, *n, *k).ok(),
            OpKind::Implicit(s) => swdnn_implicit_conv(cfg, s),
            OpKind::Winograd(s) => xmath_winograd_conv(cfg, s).ok(),
            OpKind::Explicit(s) => xmath_explicit_conv(cfg, s).ok(),
            _ => None,
        };
        cycles.map(|c| c.get())
    }
}

/// How a workload checks the winner the tuner reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validation {
    /// `ops::validate_candidate`: static legality, then functional
    /// execution against the `swtensor` golden reference.
    Functional,
    /// `optimizer::verify` only (functional validation of a paper-size
    /// layer costs minutes per op).
    Static,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub validation: Validation,
    pub mode: TierMode,
    pub jobs: usize,
    canonical: fn() -> Vec<(String, OpKind)>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gemm_space",
        validation: Validation::Functional,
        mode: TierMode::Tiered,
        jobs: 1,
        canonical: gemm_space,
    },
    Workload {
        name: "conv_net",
        validation: Validation::Static,
        mode: TierMode::Tiered,
        jobs: 1,
        canonical: conv_net,
    },
    Workload {
        name: "validated_mix",
        validation: Validation::Functional,
        mode: TierMode::Tiered,
        jobs: 1,
        canonical: validated_mix,
    },
    Workload {
        name: "exhaustive_ref",
        validation: Validation::Static,
        mode: TierMode::FullScoreboard,
        jobs: 2,
        canonical: exhaustive_ref,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The op list for `seed`: the canonical ops in a seeded order.
    pub fn ops(&self, seed: u64) -> Vec<OpSpec> {
        let mut ops: Vec<OpSpec> = (self.canonical)()
            .into_iter()
            .enumerate()
            .map(|(canon, (name, kind))| OpSpec { canon, name, kind })
            .collect();
        // Fisher–Yates with SplitMix64.
        let mut state = seed;
        for i in (1..ops.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            ops.swap(i, j);
        }
        ops
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Listing-2 GEMMs, one aligned and two unaligned: 5–17k-candidate spaces
/// where enumeration/lowering/optimization is nearly the whole pass.
fn gemm_space() -> Vec<(String, OpKind)> {
    [(256, 256, 256), (100, 100, 100), (72, 40, 200)]
        .into_iter()
        .map(|(m, n, k)| (format!("gemm_{m}x{n}x{k}"), OpKind::Matmul(m, n, k)))
        .collect()
}

/// Table-1 layers (batch 32, spatial cap 28, RGB first layers excluded) ×
/// every applicable method: a large and a small 3×3, a 1×1 and a strided
/// 1×1, from all three networks.
fn conv_net() -> Vec<(String, OpKind)> {
    let picks: [(&str, &ConvLayer); 4] = [
        ("vgg16", &vgg16_layers()[7]),
        ("resnet", &resnet_layers()[2]),
        ("resnet", &resnet_layers()[5]),
        ("yolo", &yolo_layers()[2]),
    ];
    let mut ops = Vec::new();
    for (net, layer) in picks {
        let shape = layer.shape(32, Some(28));
        let base = format!("{net}_{}", layer.name);
        if ImplicitConvOp::applicable(&shape) {
            ops.push((format!("{base}_implicit"), OpKind::Implicit(shape)));
        }
        if WinogradConvOp::applicable(&shape) {
            ops.push((format!("{base}_winograd"), OpKind::Winograd(shape)));
        }
        ops.push((format!("{base}_explicit"), OpKind::Explicit(shape)));
    }
    ops
}

/// One small op of every operator in `ops/`, all functionally validated.
fn validated_mix() -> Vec<(String, OpKind)> {
    let conv = ConvShape::square(4, 32, 32, 12);
    let batch1 = ConvShape::square(1, 32, 32, 8);
    vec![
        ("gemm_60x40x100".into(), OpKind::Matmul(60, 40, 100)),
        ("bmm_4x64x64x64".into(), OpKind::BatchedMatmul(4, 64, 64, 64)),
        ("implicit_b4".into(), OpKind::Implicit(conv)),
        ("implicit_b1".into(), OpKind::Implicit(batch1)),
        ("winograd_b4".into(), OpKind::Winograd(conv)),
        ("explicit_b4".into(), OpKind::Explicit(conv)),
        ("backward_data_b4".into(), OpKind::BackwardData(conv)),
        ("backward_filter_b4".into(), OpKind::BackwardFilter(conv)),
    ]
}

/// Small whole spaces for the brute-force tuner: every candidate pays the
/// CostOnly interpreter.
fn exhaustive_ref() -> Vec<(String, OpKind)> {
    let conv = ConvShape::square(8, 32, 32, 16);
    vec![
        ("implicit_full".into(), OpKind::Implicit(conv)),
        ("winograd_full".into(), OpKind::Winograd(conv)),
        ("explicit_full".into(), OpKind::Explicit(conv)),
        ("gemm_64x64x64_full".into(), OpKind::Matmul(64, 64, 64)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop::scheduler::Scheduler;

    #[test]
    fn same_seed_same_list_other_seed_other_order() {
        for w in WORKLOADS {
            assert_eq!(w.ops(7), w.ops(7), "{}", w.name);
            let orders: Vec<Vec<usize>> =
                (0..8).map(|s| w.ops(s).iter().map(|o| o.canon).collect()).collect();
            assert!(
                orders.iter().any(|o| *o != orders[0]),
                "{}: seed never moves the order",
                w.name
            );
            // Every seed tunes the same set of ops.
            for o in &orders {
                let mut sorted = o.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..o.len()).collect::<Vec<_>>(), "{}", w.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_workloads_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
            let mut names: Vec<String> = w.ops(0).into_iter().map(|o| o.name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), w.ops(0).len(), "{}", w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn every_generated_op_yields_a_candidate() {
        let sched = Scheduler::new(MachineConfig::default());
        for w in WORKLOADS {
            for spec in w.ops(0) {
                let op = spec.build();
                let space = op.space();
                let found =
                    space.points().any(|p| sched.lower_point(op.as_ref(), &space, &p).is_some());
                assert!(found, "{}/{} has no candidate", w.name, spec.name);
            }
        }
    }
}
