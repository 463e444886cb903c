//! The `spm_gemm` tensorized primitive.
//!
//! Mirrors the paper's interface (Sec. 4.1):
//!
//! ```c
//! spm_gemm(int M, int N, int K, float ALPHA, float* A, int LDA,
//!          float* B, int LDB, float BETA, float* C, int LDC, swVecDim vd)
//! ```
//!
//! `A`, `B`, `C` reside in the SPMs, block-partitioned 8×8 across the mesh
//! (the paper's Fig. 12): CPE `(r, c)` owns block `(r, c)` of each, so every
//! dimension must divide by the mesh side, which [`validate`] checks. The
//! kernel variant is determined by the operand layouts plus the
//! vectorisation dimension `vd`; its cycle cost comes from the
//! pipeline-scoreboard simulation ([`crate::cost`]), and in
//! [`ExecMode::Functional`](sw26010::ExecMode) the arithmetic is actually
//! performed so that schedule bugs surface as wrong results.

use sw26010::{
    cid, rid, CoreGroup, Cycles, ExecMode, MachineConfig, MachineError, MachineResult, MESH, N_CPE,
};
use swtensor::gemm_ref;
use swtensor::MatLayout::{self, ColMajor, RowMajor};

use crate::cost::{gemm_cycles, gemm_flops};
use crate::microkernel::{per_cpe_issue_counts, IssueCounts};
use crate::variant::{GemmVariant, VecDim};

/// Descriptor of one SPM-resident distributed matrix operand: every CPE
/// holds its block at the same SPM `offset`, stored with `layout` and
/// leading dimension `ld` (in elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmMatrix {
    pub offset: usize,
    pub layout: MatLayout,
    pub ld: usize,
}

impl SpmMatrix {
    pub fn new(offset: usize, layout: MatLayout, ld: usize) -> Self {
        SpmMatrix { offset, layout, ld }
    }

    /// SPM elements spanned by an `rows × cols` block in this descriptor.
    fn span(&self, rows: usize, cols: usize) -> usize {
        match self.layout {
            MatLayout::RowMajor => (rows - 1) * self.ld + cols,
            MatLayout::ColMajor => (cols - 1) * self.ld + rows,
        }
    }

    fn check_ld(&self, rows: usize, cols: usize, name: &str) -> MachineResult<()> {
        if self.ld < self.layout.min_ld(rows, cols) {
            return Err(MachineError::BadKernelArgs(format!(
                "{name}: ld {} < minimum {} for {rows}×{cols} {:?} block",
                self.ld,
                self.layout.min_ld(rows, cols),
                self.layout
            )));
        }
        Ok(())
    }
}

/// Lanes of one SIMD vector: the per-CPE extent of the vectorised
/// dimension (M or N over [`MESH`]) must be a multiple of it.
pub const VEC_WIDTH: usize = 4;

/// Validate an `spm_gemm` call and return the kernel variant it will use.
pub fn validate(
    m: usize,
    n: usize,
    k: usize,
    a: &SpmMatrix,
    b: &SpmMatrix,
    c: &SpmMatrix,
    vd: VecDim,
) -> MachineResult<GemmVariant> {
    if m == 0 || n == 0 || k == 0 {
        return Err(MachineError::BadKernelArgs("zero dimension".into()));
    }
    if !m.is_multiple_of(MESH) || !n.is_multiple_of(MESH) || !k.is_multiple_of(MESH) {
        return Err(MachineError::BadKernelArgs(format!(
            "dims ({m},{n},{k}) not divisible by the {MESH}×{MESH} mesh"
        )));
    }
    let (mb, nb, kb) = (m / MESH, n / MESH, k / MESH);
    let v_len = match vd {
        VecDim::M => mb,
        VecDim::N => nb,
    };
    if !v_len.is_multiple_of(VEC_WIDTH) {
        return Err(MachineError::BadKernelArgs(format!(
            "vectorised per-CPE dim {v_len} not divisible by the vector width {VEC_WIDTH}"
        )));
    }
    a.check_ld(mb, kb, "A")?;
    b.check_ld(kb, nb, "B")?;
    c.check_ld(mb, nb, "C")?;
    Ok(GemmVariant { a_layout: a.layout, b_layout: b.layout, vec: vd })
}

/// What one valid `spm_gemm` call charges the machine — a pure function of
/// the kernel timing in `cfg`, the variant and the dimensions, whatever the
/// operands' SPM offsets and leading dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmPrice {
    pub cycles: Cycles,
    pub flops: u64,
    /// Analytic per-CPE issue counts (the memoised cycle cache bypasses the
    /// scoreboard on hits, so they cannot come from the simulation itself).
    pub issue: IssueCounts,
}

impl GemmPrice {
    /// Price of a call that [`validate`] accepted as `variant`.
    pub fn of(cfg: &MachineConfig, variant: GemmVariant, m: usize, n: usize, k: usize) -> Self {
        let (mb, nb, kb) = (m / MESH, n / MESH, k / MESH);
        let (v_len, s_len) = match variant.vec {
            VecDim::M => (mb, nb),
            VecDim::N => (nb, mb),
        };
        GemmPrice {
            cycles: gemm_cycles(cfg, variant, m, n, k),
            flops: gemm_flops(m, n, k),
            issue: per_cpe_issue_counts(v_len, s_len, kb, variant.vector_load_ok()),
        }
    }
}

/// Execute `C = ALPHA·A·B + BETA·C` on the distributed SPM operands.
#[allow(clippy::too_many_arguments)]
pub fn spm_gemm(
    cg: &mut CoreGroup,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: SpmMatrix,
    b: SpmMatrix,
    beta: f32,
    c: SpmMatrix,
    vd: VecDim,
) -> MachineResult<()> {
    spm_gemm_priced(cg, &mut None, m, n, k, alpha, a, b, beta, c, vd)
}

/// [`spm_gemm`] for a call site that executes many times: `price` is the
/// site's own slot, filled by the first valid call and charged by every
/// later one. The caller keeps one slot per (machine timing, dimensions,
/// operand layouts, `vd`) — a static `Gemm` node during one program run.
/// Everything that depends on the operands' SPM placement or the machine's
/// current state is still checked on every call.
#[allow(clippy::too_many_arguments)]
pub fn spm_gemm_priced(
    cg: &mut CoreGroup,
    price: &mut Option<GemmPrice>,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: SpmMatrix,
    b: SpmMatrix,
    beta: f32,
    c: SpmMatrix,
    vd: VecDim,
) -> MachineResult<()> {
    let variant = validate(m, n, k, &a, &b, &c, vd)?;
    let (mb, nb, kb) = (m / MESH, n / MESH, k / MESH);

    if cg.mode() == ExecMode::Functional {
        // Gather the distributed operands into whole row-major host matrices,
        // held in one buffer. On the machine this data movement is the
        // register communication already priced into the kernel cycles.
        let mut host = vec![0.0f32; m * k + k * n + m * n];
        let (ga, rest) = host.split_at_mut(m * k);
        let (gb, gc) = rest.split_at_mut(k * n);
        gather(cg, a, ga, k, mb, kb)?;
        gather(cg, b, gb, n, kb, nb)?;
        gather(cg, c, gc, n, mb, nb)?;
        gemm_ref(m, n, k, alpha, ga, RowMajor, k, gb, RowMajor, n, beta, gc, RowMajor, n);
        scatter(cg, c, gc, n, mb, nb)?;
    } else {
        // Cost-only: still verify the blocks fit in the SPM. The capacity is
        // the *effective* one — an active fault session may have shrunk it.
        for (mat, rows, cols) in [(&a, mb, kb), (&b, kb, nb), (&c, mb, nb)] {
            let span = mat.span(rows, cols);
            let cap = cg.spm_capacity_elems();
            if mat.offset + span > cap {
                return Err(MachineError::SpmOverflow {
                    cpe: 0,
                    offset: mat.offset,
                    len: span,
                    capacity: cap,
                });
            }
        }
    }

    // SPM high-water mark: the furthest element any operand block reaches
    // (same in both modes — functional gather/scatter touch the same spans).
    for (mat, rows, cols) in [(&a, mb, kb), (&b, kb, nb), (&c, mb, nb)] {
        cg.counters.note_spm_use((mat.offset + mat.span(rows, cols)) as u64);
    }

    let GemmPrice { cycles, flops, issue } =
        *price.get_or_insert_with(|| GemmPrice::of(&cg.cfg, variant, m, n, k));
    cg.counters.issue_p0 += issue.p0;
    cg.counters.issue_p1 += issue.p1;
    cg.counters.regcomm_broadcasts += issue.broadcasts;
    cg.kernel(cycles, flops, m, n, k);
    Ok(())
}

/// Read a distributed matrix out of the 64 SPMs into `out`, a row-major host
/// matrix of `cols` columns: a row-major block moves row by row, a
/// column-major one element by element.
fn gather(
    cg: &CoreGroup,
    mat: SpmMatrix,
    out: &mut [f32],
    cols: usize,
    br: usize,
    bc: usize,
) -> MachineResult<()> {
    for cpe in 0..N_CPE {
        let (r0, c0) = (rid(cpe) * br, cid(cpe) * bc);
        let block = cg.spm(cpe).slice(mat.offset, mat.span(br, bc))?;
        for lr in 0..br {
            let row = &mut out[(r0 + lr) * cols + c0..][..bc];
            match mat.layout {
                RowMajor => row.copy_from_slice(&block[lr * mat.ld..][..bc]),
                ColMajor => {
                    for (lc, x) in row.iter_mut().enumerate() {
                        *x = block[lc * mat.ld + lr];
                    }
                }
            }
        }
    }
    Ok(())
}

/// Write a row-major host matrix of `cols` columns back into its 64
/// distributed SPM blocks: [`gather`] run backwards.
fn scatter(
    cg: &mut CoreGroup,
    mat: SpmMatrix,
    data: &[f32],
    cols: usize,
    br: usize,
    bc: usize,
) -> MachineResult<()> {
    for cpe in 0..N_CPE {
        let (r0, c0) = (rid(cpe) * br, cid(cpe) * bc);
        let block = cg.spm_mut(cpe).slice_mut(mat.offset, mat.span(br, bc))?;
        for lr in 0..br {
            let row = &data[(r0 + lr) * cols + c0..][..bc];
            match mat.layout {
                RowMajor => block[lr * mat.ld..][..bc].copy_from_slice(row),
                ColMajor => {
                    for (lc, &x) in row.iter().enumerate() {
                        block[lc * mat.ld + lr] = x;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::{CoreGroup, ExecMode};
    use swtensor::compare::assert_close;
    use swtensor::gemm::gemm_rowmajor;
    use swtensor::init::random_vec;

    fn load(cg: &mut CoreGroup, mat: SpmMatrix, data: &[f32], rows: usize, cols: usize) {
        scatter(cg, mat, data, cols, rows / 8, cols / 8).unwrap();
    }

    /// [`gather`] into a fresh host matrix.
    fn read(cg: &CoreGroup, mat: SpmMatrix, rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0; rows * cols];
        gather(cg, mat, &mut out, cols, rows / 8, cols / 8).unwrap();
        out
    }

    fn run_case(m: usize, n: usize, k: usize, la: MatLayout, lb: MatLayout, vd: VecDim) {
        let mut cg = CoreGroup::with_mode(ExecMode::Functional);
        let (mb, nb, kb) = (m / 8, n / 8, k / 8);
        let a_desc = SpmMatrix::new(0, la, la.min_ld(mb, kb));
        let b_off = a_desc.span(mb, kb);
        let b_desc = SpmMatrix::new(b_off, lb, lb.min_ld(kb, nb));
        let c_off = b_off + b_desc.span(kb, nb);
        let c_desc = SpmMatrix::new(c_off, RowMajor, nb);

        let a = random_vec(m * k, 1);
        let b = random_vec(k * n, 2);
        let c0 = random_vec(m * n, 3);
        load(&mut cg, a_desc, &a, m, k);
        load(&mut cg, b_desc, &b, k, n);
        load(&mut cg, c_desc, &c0, m, n);

        spm_gemm(&mut cg, m, n, k, 1.0, a_desc, b_desc, 1.0, c_desc, vd).unwrap();

        let mut expect = c0.clone();
        gemm_rowmajor(m, n, k, &a, &b, &mut expect);
        assert_close(&read(&cg, c_desc, m, n), &expect, 1e-4, 1e-5, "spm_gemm");
        assert!(cg.now().get() > 0, "kernel must cost cycles");
        assert_eq!(cg.flops, 2 * (m * n * k) as u64);
    }

    #[test]
    fn all_eight_variants_compute_correctly() {
        for la in [RowMajor, ColMajor] {
            for lb in [RowMajor, ColMajor] {
                for vd in [VecDim::M, VecDim::N] {
                    run_case(32, 32, 16, la, lb, vd);
                }
            }
        }
    }

    #[test]
    fn rectangular_shapes() {
        run_case(64, 32, 8, ColMajor, RowMajor, VecDim::M);
        run_case(32, 64, 24, RowMajor, RowMajor, VecDim::N);
    }

    #[test]
    fn alpha_beta() {
        let (m, n, k) = (32, 32, 8);
        let mut cg = CoreGroup::with_mode(ExecMode::Functional);
        let a_desc = SpmMatrix::new(0, RowMajor, k / 8);
        let b_desc = SpmMatrix::new(64, RowMajor, n / 8);
        let c_desc = SpmMatrix::new(128, RowMajor, n / 8);
        let a = random_vec(m * k, 4);
        let b = random_vec(k * n, 5);
        let c0 = random_vec(m * n, 6);
        load(&mut cg, a_desc, &a, m, k);
        load(&mut cg, b_desc, &b, k, n);
        load(&mut cg, c_desc, &c0, m, n);
        spm_gemm(&mut cg, m, n, k, 2.0, a_desc, b_desc, -1.0, c_desc, VecDim::M).unwrap();
        let mut prod = vec![0.0; m * n];
        gemm_rowmajor(m, n, k, &a, &b, &mut prod);
        let expect: Vec<f32> =
            prod.iter().zip(&c0).map(|(p, c)| 2.0 * p - c).collect();
        assert_close(&read(&cg, c_desc, m, n), &expect, 1e-4, 1e-5, "alpha/beta");
    }

    #[test]
    fn contract_violations_rejected() {
        let mut cg = CoreGroup::with_mode(ExecMode::Functional);
        let d = SpmMatrix::new(0, RowMajor, 8);
        // Not divisible by mesh.
        assert!(spm_gemm(&mut cg, 30, 32, 8, 1.0, d, d, 1.0, d, VecDim::M).is_err());
        // Vector dim (mb = 16/8 = 2) not divisible by 4.
        assert!(spm_gemm(&mut cg, 16, 32, 8, 1.0, d, d, 1.0, d, VecDim::M).is_err());
        // ld too small for the block.
        let tiny = SpmMatrix::new(0, RowMajor, 1);
        assert!(spm_gemm(&mut cg, 32, 32, 32, 1.0, tiny, d, 1.0, d, VecDim::M).is_err());
        // Zero dimension.
        assert!(spm_gemm(&mut cg, 0, 32, 8, 1.0, d, d, 1.0, d, VecDim::M).is_err());
    }

    #[test]
    fn cost_only_skips_math_but_counts_cycles() {
        let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
        let (m, n, k) = (32, 32, 8);
        let a_desc = SpmMatrix::new(0, RowMajor, k / 8);
        let b_desc = SpmMatrix::new(64, RowMajor, n / 8);
        let c_desc = SpmMatrix::new(128, RowMajor, n / 8);
        spm_gemm(&mut cg, m, n, k, 1.0, a_desc, b_desc, 1.0, c_desc, VecDim::M).unwrap();
        assert!(cg.now().get() > 0);
        // SPM untouched.
        assert_eq!(cg.spm(0).load(128).unwrap(), 0.0);
    }

    #[test]
    fn kernel_updates_machine_counters() {
        let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
        let (m, n, k) = (32, 32, 8);
        let a_desc = SpmMatrix::new(0, RowMajor, k / 8);
        let b_desc = SpmMatrix::new(64, RowMajor, n / 8);
        let c_desc = SpmMatrix::new(128, RowMajor, n / 8);
        spm_gemm(&mut cg, m, n, k, 1.0, a_desc, b_desc, 1.0, c_desc, VecDim::M).unwrap();
        let counters = cg.counters;
        assert_eq!(counters.kernel_calls, 1);
        assert_eq!(counters.kernel_cycles, cg.now().get());
        // vec M: v_len = mb = 4, s_len = nb = 4, kb = 1.
        let variant = validate(m, n, k, &a_desc, &b_desc, &c_desc, VecDim::M).unwrap();
        let issue = per_cpe_issue_counts(4, 4, 1, variant.vector_load_ok());
        assert_eq!(counters.issue_p0, issue.p0);
        assert_eq!(counters.issue_p1, issue.p1);
        assert_eq!(counters.regcomm_broadcasts, issue.broadcasts);
        assert!(counters.issue_p0 > 0 && counters.regcomm_broadcasts > 0);
        // C ends at offset 128 + span(4×4 row-major, ld 4) = 128 + 16.
        assert_eq!(counters.spm_high_water_elems, 144);
        assert!(counters.issue_slot_utilization() > 0.0);
    }

    #[test]
    fn cost_only_still_checks_spm_capacity() {
        let mut cg = CoreGroup::with_mode(ExecMode::CostOnly);
        let cap = cg.cfg.spm_elems();
        let a_desc = SpmMatrix::new(cap - 4, RowMajor, 8);
        let d = SpmMatrix::new(0, RowMajor, 8);
        assert!(spm_gemm(&mut cg, 64, 64, 64, 1.0, a_desc, d, 1.0, d, VecDim::M).is_err());
    }
}
