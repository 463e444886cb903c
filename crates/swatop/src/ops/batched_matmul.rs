//! Batched matrix multiplication: `C[i] = A[i]·B[i]` for `batch`
//! independent GEMMs of identical shape.
//!
//! This is the generalisation of Winograd's 16-position batch to arbitrary
//! batch sizes (the building block of attention layers and grouped
//! convolutions). When all multiplications share the A operand the batch
//! always **fuses** into the GEMM N dimension — the paper's loop fusion rule
//! ("if n independent matrix multiplications share the same input, then
//! they can be combined into one larger matrix multiplication with an
//! output n times larger"), applied by rule rather than searched, and the
//! space tiles that `batch·n`-column GEMM. With per-batch A operands element
//! `i` is row block `i` of the stacked operands: the GEMM body reads and
//! writes each block in place, one loop nest per element over one SPM
//! workspace, and a column-major layout packs every block in one pass.

use swatop_dsl::{SchedulePoint, ScheduleSpace};
use swatop_ir::{MemRole, Program, Stmt};

use crate::ops::matmul::{lower_matmul_body, lower_matmul_body_with_spm, MatmulKnobs, LAYOUTS};
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

    fn space(&self) -> ScheduleSpace {
        // A shared-A batch runs one GEMM of `batch·n` columns: tile that.
        let n = if self.shared_a { self.batch * self.n } else { self.n };
        MatmulKnobs::space(self.m, n, self.k, &LAYOUTS, &DMA_LADDER)
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
            let body = lower_matmul_body(
                &mut p,
                &knobs,
                a,
                bt,
                ct,
                self.m,
                self.batch * self.n,
                self.k,
                PadMode::Lightweight,
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

        // Per-batch A: element `i` is row block `i` of the stacked operands,
        // which one GEMM body reads and writes in place.
        let body = lower_matmul_body_with_spm(
            &mut p,
            &knobs,
            a,
            b,
            c,
            self.m,
            self.n,
            self.k,
            self.batch,
            PadMode::Lightweight,
            None,
        )?;
        p.set_body(Stmt::seq(body));
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

    /// Whether some transform of `cand`'s program writes its output `C`.
    fn a_transform_writes_c(cand: &crate::scheduler::Candidate) -> bool {
        let p = &cand.exe.program;
        let mut writes = false;
        p.body.visit(&mut |s| {
            if let Stmt::Transform(t) = s {
                writes |= p.mem_bufs[t.kind.dst().0].name == "C";
            }
        });
        writes
    }

    #[test]
    fn per_element_batches_read_and_write_in_place() {
        // No element is copied through a scratch buffer, and on an aligned
        // shape every tile put lands in its row block of C directly. The
        // unaligned shape's boundary strips do unpad into C: the check sees
        // such a write.
        let sched = Scheduler::new(MachineConfig::default());
        let aligned = BatchedMatmulOp::new(2, 32, 32, 32);
        let unaligned = BatchedMatmulOp::new(3, 40, 48, 24);
        for (op, aligned) in [(aligned, true), (unaligned, false)] {
            let cands = sched.enumerate(&op);
            for cand in &cands {
                let bufs = &cand.exe.program.mem_bufs;
                assert!(bufs.iter().all(|b| !b.name.ends_with("_el")), "{}", cand.describe);
            }
            let writes = cands.iter().filter(|c| a_transform_writes_c(c)).count();
            assert_eq!(writes == 0, aligned, "{}: {writes} of {}", op.name(), cands.len());
        }
    }

    #[test]
    fn per_element_batches_correct_at_every_layout_and_dma_level() {
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        for op in [BatchedMatmulOp::new(2, 32, 32, 32), BatchedMatmulOp::new(3, 40, 48, 24)] {
            let space = op.space();
            for layout in LAYOUTS {
                for level in DMA_LADDER {
                    let what = format!("{} layout={layout} dma={level}", op.name());
                    let cand = space
                        .points()
                        .filter(|p| {
                            p.choice(&space, "layout") == layout && p.choice(&space, "dma") == level
                        })
                        .find_map(|p| sched.lower_point(&op, &space, &p))
                        .unwrap_or_else(|| panic!("{what}: no candidate"));
                    let err = verify_candidate(&cfg, &op, &cand)
                        .unwrap_or_else(|e| panic!("{what} {}: {e}", cand.describe));
                    assert!(err < 2e-3, "{what} {}: err {err}", cand.describe);
                }
            }
        }
    }

    #[test]
    fn shared_a_batches_tile_the_fused_gemm() {
        // Four 64-column elements run as one 256-column GEMM, whose whole
        // width is a tile.
        let space = BatchedMatmulOp::new(4, 64, 64, 64).with_shared_a().space();
        assert!(space.points().any(|p| p.factor(&space, "t_n") == 256));
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
