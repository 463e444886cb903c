//! Define a *new* tensorized operator against the framework: a scaled
//! residual update `C = alpha·A·B + C`, built from the DSL vocabulary and
//! the shared tiling machinery — the extension path a swATOP user would
//! take for an operator the library does not ship.
//!
//! ```sh
//! cargo run --release --example custom_operator
//! ```

use swatop_repro::dsl::{SchedulePoint, ScheduleSpace, Seed};
use swatop_repro::ir::{MemRole, Program, Stmt};
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::matmul::{lower_matmul_body, MatmulKnobs};
use swatop_repro::swatop::ops::tiling::PadMode;
use swatop_repro::swatop::ops::verify_candidate;
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::swtensor::init::random_vec;

/// `C = alpha·A·B + C0`: a GEMM that accumulates into an existing tensor
/// (the residual-connection pattern).
struct ResidualMatmul {
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
}

impl Operator for ResidualMatmul {
    fn name(&self) -> String {
        format!("residual_matmul_{}x{}x{}", self.m, self.n, self.k)
    }

    fn seed(&self) -> Seed {
        Seed::matmul(self.name(), self.m, self.n, self.k)
    }

    fn space(&self) -> ScheduleSpace {
        // Reuse the GEMM schedule vocabulary verbatim.
        MatmulKnobs::space(self.m, self.n, self.k)
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        let knobs = MatmulKnobs::from_point(space, point);
        let mut p = Program::new(self.name());
        let a = p.mem_buf("A", self.m * self.k, MemRole::Input);
        let b = p.mem_buf("B", self.k * self.n, MemRole::Input);
        // C is both input and output: declare as Input (caller-filled) and
        // copy into the output buffer first.
        let c0 = p.mem_buf("C0", self.m * self.n, MemRole::Input);
        let c = p.mem_buf("C", self.m * self.n, MemRole::Output);
        let copy = Stmt::Transform(swatop_repro::ir::TransformOp { fused: false,
            kind: swatop_repro::ir::TransformKind::PadSubmatrix {
                src: c0,
                src_rows: self.m,
                src_cols: self.n,
                r0: 0,
                c0: 0,
                take_rows: self.m,
                take_cols: self.n,
                dst: c,
                dst_rows: self.m,
                dst_cols: self.n,
                zero_first: false,
            },
        });
        let mut gemm = lower_matmul_body(
            &mut p,
            &knobs,
            a,
            b,
            c,
            self.m,
            self.n,
            self.k,
            PadMode::Lightweight,
        )?;
        // Scale the product: patch alpha into every GEMM node (the
        // accumulate-into-C semantics are already beta = 1).
        for s in &mut gemm {
            patch_alpha(s, self.alpha);
        }
        let mut body = vec![copy];
        body.extend(gemm);
        p.set_body(Stmt::seq(body));
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            random_vec(self.m * self.k, 1),
            random_vec(self.k * self.n, 2),
            random_vec(self.m * self.n, 3),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut c = inputs[2].clone();
        let mut prod = vec![0.0f32; self.m * self.n];
        swatop_repro::swtensor::gemm::gemm_rowmajor(
            self.m, self.n, self.k, &inputs[0], &inputs[1], &mut prod,
        );
        for (ci, pi) in c.iter_mut().zip(&prod) {
            *ci += self.alpha * pi;
        }
        c
    }

    fn flops(&self) -> u64 {
        2 * (self.m * self.n * self.k) as u64
    }
}

fn patch_alpha(s: &mut Stmt, alpha: f32) {
    match s {
        Stmt::Seq(ss) => ss.iter_mut().for_each(|x| patch_alpha(x, alpha)),
        Stmt::For { body, .. } => patch_alpha(body, alpha),
        Stmt::If { then_, else_, .. } => {
            patch_alpha(then_, alpha);
            if let Some(e) = else_ {
                patch_alpha(e, alpha);
            }
        }
        Stmt::Gemm(g) => g.alpha = alpha,
        _ => {}
    }
}

fn main() {
    let cfg = MachineConfig::default();
    let op = ResidualMatmul { m: 96, n: 160, k: 72, alpha: 0.5 };
    println!("custom operator: {}", op.name());

    let scheduler = Scheduler::new(cfg.clone());
    let cands = scheduler.enumerate(&op);
    println!("schedule space: {} points, {} valid candidates", op.space().size(), cands.len());

    let opts = TuneOptions { tiers: TierPolicy::top_k(3), ..TuneOptions::default() };
    let outcome = tune(&cfg, &cands, &opts, None).expect("tunable");
    let best = &cands[outcome.best];
    println!("best schedule: {}", best.describe);
    println!("simulated cycles: {}", outcome.cycles.get());

    let err = verify_candidate(&cfg, &op, best).expect("runs");
    println!("functional check vs reference: max |err| = {err:.2e}");
    assert!(err < 1e-3);
    println!("custom operator tuned and verified ✓");
}
