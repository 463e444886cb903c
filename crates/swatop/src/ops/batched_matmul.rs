//! Batched matrix multiplication: `C[i] = A[i]·B[i]` for `batch`
//! independent GEMMs of identical shape.
//!
//! This is the generalisation of Winograd's 16-position batch to arbitrary
//! batch sizes (the building block of attention layers and grouped
//! convolutions). When all multiplications share the A operand the batch
//! always **fuses** into the GEMM N dimension — the paper's loop fusion rule
//! ("if n independent matrix multiplications share the same input, then
//! they can be combined into one larger matrix multiplication with an
//! output n times larger"), applied by rule rather than searched. With
//! per-batch A operands the batch is a plain outer loop with shared SPM
//! workspace.

use swatop_dsl::{SchedulePoint, ScheduleSpace, Seed};
use swatop_ir::{MemRole, Program, Stmt};

use crate::ops::matmul::{lower_matmul_body_with_spm, MatmulKnobs, LAYOUTS};
use crate::ops::tiling::PadMode;
use crate::ops::DMA_LADDER;
use crate::scheduler::Operator;

/// Batched GEMM operator instance.
#[derive(Debug, Clone)]
pub struct BatchedMatmulOp {
    pub batch: usize,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// All batch elements share the same A operand (the batch fuses).
    pub shared_a: bool,
}

impl BatchedMatmulOp {
    pub fn new(batch: usize, m: usize, n: usize, k: usize) -> Self {
        BatchedMatmulOp { batch, m, n, k, shared_a: false }
    }

    pub fn with_shared_a(mut self) -> Self {
        self.shared_a = true;
        self
    }
}

impl Operator for BatchedMatmulOp {
    fn name(&self) -> String {
        format!(
            "batched_matmul_{}x_{}x{}x{}{}",
            self.batch,
            self.m,
            self.n,
            self.k,
            if self.shared_a { "_sharedA" } else { "" }
        )
    }

    fn seed(&self) -> Seed {
        Seed::matmul(self.name(), self.m, self.n * self.batch, self.k)
    }

    fn space(&self) -> ScheduleSpace {
        MatmulKnobs::space(self.m, self.n, self.k, &LAYOUTS, &DMA_LADDER)
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        let knobs = MatmulKnobs::from_point(space, point);
        let mut p = Program::new(self.name());
        let a_len = if self.shared_a { self.m * self.k } else { self.batch * self.m * self.k };
        let a = p.mem_buf("A", a_len, MemRole::Input);
        let b = p.mem_buf("B", self.batch * self.k * self.n, MemRole::Input);
        let c = p.mem_buf("C", self.batch * self.m * self.n, MemRole::Output);

        if self.shared_a {
            // One big GEMM: B batches are concatenated along N. The stored
            // B is [batch][k][n]; the fused GEMM needs [k][batch·n], which
            // is a dimension permutation.
            let bt = p.mem_buf("B_fused", self.batch * self.k * self.n, MemRole::Temp);
            let ct = p.mem_buf("C_fused", self.batch * self.m * self.n, MemRole::Temp);
            let pack = Stmt::transform(swatop_ir::TransformKind::PackTensor {
                src: b,
                dst: bt,
                src_dims: vec![self.batch, self.k, self.n],
                perm: vec![1, 0, 2], // [k][batch][n] = k × (batch·n)
            });
            let body = lower_matmul_body_with_spm(
                &mut p,
                &knobs,
                a,
                bt,
                ct,
                self.m,
                self.batch * self.n,
                self.k,
                PadMode::Lightweight,
                None,
            )?;
            // C_fused is [m][batch][n]; the interface layout is [batch][m][n].
            let unpack = Stmt::transform(swatop_ir::TransformKind::PackTensor {
                src: ct,
                dst: c,
                src_dims: vec![self.m, self.batch, self.n],
                perm: vec![1, 0, 2],
            });
            let mut stmts = vec![pack];
            stmts.extend(body);
            stmts.push(unpack);
            p.set_body(Stmt::seq(stmts));
            return Some(p);
        }

        // Per-batch A: one GEMM per batch element, sharing the SPM workspace.
        // Per-batch main-memory views are separate Temp buffers filled by
        // sub-matrix copies (the batch stride is uniform, so a single
        // strided DMA family per element would also work; the copy keeps
        // the matmul core reusable). The copies are not cheap: each is a
        // full pass over main memory per batch element. A copy-in whose only
        // reader is a coalescing gather fuses into it; reading each element
        // in place would save the rest.
        let a_el = p.mem_buf("A_el", self.m * self.k, MemRole::Temp);
        let b_el = p.mem_buf("B_el", self.k * self.n, MemRole::Temp);
        let c_el = p.mem_buf("C_el", self.m * self.n, MemRole::Temp);
        let spm = [
            p.spm_buf("spm_a", (knobs.t_m / 8) * (knobs.t_k / 8)),
            p.spm_buf("spm_b", (knobs.t_k / 8) * (knobs.t_n / 8)),
            p.spm_buf("spm_c", (knobs.t_m / 8) * (knobs.t_n / 8)),
        ];
        let mut stmts = Vec::new();
        for i in 0..self.batch {
            stmts.push(copy_in(a, self.batch, i, self.m * self.k, a_el));
            stmts.push(copy_in(b, self.batch, i, self.k * self.n, b_el));
            let body = lower_matmul_body_with_spm(
                &mut p,
                &knobs,
                a_el,
                b_el,
                c_el,
                self.m,
                self.n,
                self.k,
                PadMode::Lightweight,
                Some(spm),
            )?;
            stmts.extend(body);
            stmts.push(copy_out(c_el, self.m * self.n, c, self.batch, i));
        }
        p.set_body(Stmt::seq(stmts));
        Some(p)
    }

    fn input_data(&self, program: &Program) -> Vec<Vec<f32>> {
        let a_len = program.mem_bufs[0].len;
        vec![
            swtensor::init::random_vec(a_len, 0x7A),
            swtensor::init::random_vec(self.batch * self.k * self.n, 0x7B),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut c = vec![0.0f32; self.batch * self.m * self.n];
        for i in 0..self.batch {
            let a = if self.shared_a {
                &inputs[0][..]
            } else {
                &inputs[0][i * self.m * self.k..(i + 1) * self.m * self.k]
            };
            let b = &inputs[1][i * self.k * self.n..(i + 1) * self.k * self.n];
            let ci = &mut c[i * self.m * self.n..(i + 1) * self.m * self.n];
            swtensor::gemm::gemm_rowmajor(self.m, self.n, self.k, a, b, ci);
        }
        c
    }

    fn flops(&self) -> u64 {
        2 * (self.batch * self.m * self.n * self.k) as u64
    }
}

/// Copy row `row` of `src` (viewed as `src_rows × len` row-major) into the
/// whole of `dst` (a `1 × len` buffer).
fn copy_in(
    src: swatop_ir::MemBufId,
    src_rows: usize,
    row: usize,
    len: usize,
    dst: swatop_ir::MemBufId,
) -> Stmt {
    Stmt::transform(swatop_ir::TransformKind::PadSubmatrix {
        src,
        src_rows,
        src_cols: len,
        r0: row,
        c0: 0,
        take_rows: 1,
        take_cols: len,
        dst,
        dst_rows: 1,
        dst_cols: len,
        zero_first: false,
    })
}

/// Copy the whole of `src` (a `1 × len` buffer) into row `row` of `dst`
/// (viewed as `dst_rows × len` row-major).
fn copy_out(
    src: swatop_ir::MemBufId,
    len: usize,
    dst: swatop_ir::MemBufId,
    dst_rows: usize,
    row: usize,
) -> Stmt {
    Stmt::transform(swatop_ir::TransformKind::UnpadSubmatrix {
        src,
        src_rows: 1,
        src_cols: len,
        dst,
        dst_rows,
        dst_cols: len,
        r0: row,
        c0: 0,
        take_rows: 1,
        take_cols: len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::verify_candidate;
    use crate::scheduler::Scheduler;
    use sw26010::MachineConfig;

    fn verify_some(op: &BatchedMatmulOp, max_points: usize) {
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let space = op.space();
        let mut checked = 0;
        for point in space.points() {
            let Some(cand) = sched.lower_point(op, &space, &point) else {
                continue;
            };
            let err = verify_candidate(&cfg, op, &cand)
                .unwrap_or_else(|e| panic!("{}: {e}", point.describe(&space)));
            assert!(err < 2e-3, "{}: err {err}", point.describe(&space));
            checked += 1;
            if checked >= max_points {
                break;
            }
        }
        assert!(checked > 0, "no valid candidate for {}", op.name());
    }

    #[test]
    fn unfused_batched_matmul_correct() {
        verify_some(&BatchedMatmulOp::new(3, 40, 48, 24), 3);
    }

    #[test]
    fn shared_a_fused_correct() {
        verify_some(&BatchedMatmulOp::new(4, 32, 40, 16).with_shared_a(), 3);
    }

    #[test]
    fn fusion_beats_per_element_calls_for_small_n() {
        // Small per-element N: one wide GEMM amortises the kernel overheads
        // that `batch` separately tuned calls each pay — the paper's
        // loop-fusion motivation.
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let best = |op: &dyn crate::scheduler::Operator| {
            let cands = sched.enumerate(op);
            cands.iter().filter_map(|c| crate::tuner::run_candidate(&cfg, c).ok()).min().unwrap()
        };
        let fused = best(&BatchedMatmulOp::new(8, 32, 8, 32).with_shared_a());
        let one = best(&crate::ops::MatmulOp::new(32, 8, 32));
        assert!(fused.get() < 8 * one.get(), "fused {fused:?} must beat 8 calls of {one:?}");
    }
}
