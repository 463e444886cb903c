//! xMath-like GEMM and the convolution baselines built on it.
//!
//! xMath (Jiang et al., ICPP'17) is the hand-optimised linear-algebra
//! library of the Sunway stack. Its design rules, encoded here:
//!
//! * fixed blocking tuned for large square matrices — 256×512 output
//!   tiles over a 256-deep K panel (which is why it shines there and
//!   degrades on skinny or small shapes);
//! * row-major operand format with N-dimension vectorisation;
//! * **traditional zero padding**: unaligned matrices are copied whole into
//!   freshly padded buffers (the Fig. 11 baseline).
//!
//! The Winograd and explicit-convolution baselines call this GEMM as a
//! *library*: each multiplication marshals its operands into contiguous
//! per-call buffers (xMath's packed-format interface), pads them
//! separately, and cannot fuse across calls — Winograd pays this 16 times.

use sw26010::{Cycles, MachineConfig, MachineResult};
use swatop::ops::matmul::{lower_matmul_body, lower_matmul_body_with_spm, MatmulKnobs};
use swatop::ops::tiling::PadMode;
use swatop::ops::ExplicitConvOp;
use swatop::scheduler::Operator as _;
use swatop::tuner::{run_program, run_program_with_launches};
use swatop_ir::{MemRole, Program, Stmt, TransformKind, TransformOp};
use swtensor::ConvShape;

/// The fixed xMath blocking, independent of the problem shape: the
/// square-matrix optimum (what the library's authors hand-tuned for).
pub fn xmath_knobs() -> MatmulKnobs {
    MatmulKnobs {
        t_m: 256,
        t_n: 512,
        t_k: 256,
        a_col: false,
        b_col: false,
        vec_m: false,
        n_outer: false,
        dma: Default::default(),
        resident: swatop::ops::matmul::Resident::None,
    }
}

/// Simulated cycles of an xMath `sgemm(M, N, K)` call.
pub fn xmath_gemm(cfg: &MachineConfig, m: usize, n: usize, k: usize) -> MachineResult<Cycles> {
    let mut p = Program::new(format!("xmath_gemm_{m}x{n}x{k}"));
    let a = p.mem_buf("A", m * k, MemRole::Input);
    let b = p.mem_buf("B", k * n, MemRole::Input);
    let c = p.mem_buf("C", m * n, MemRole::Output);
    let body = lower_matmul_body(&mut p, &xmath_knobs(), a, b, c, m, n, k, PadMode::Traditional)
        .ok_or_else(|| sw26010::MachineError::Invalid("xmath blocking inapplicable".into()))?;
    p.set_body(Stmt::seq(body));
    run_program(cfg, p)
}

/// Simulated cycles of the explicit-GEMM convolution using xMath for the
/// big multiplication (the Fig. 7 baseline).
pub fn xmath_explicit_conv(cfg: &MachineConfig, shape: &ConvShape) -> MachineResult<Cycles> {
    let op = ExplicitConvOp::new(*shape);
    let (m, n, k) = op.gemm_dims();
    let s = shape;
    let mut p = Program::new(format!("xmath_{}", op.name()));
    let in_buf = p.mem_buf("in", s.input_shape().numel(), MemRole::Input);
    let w_buf = p.mem_buf("weight", s.weight_shape().numel(), MemRole::Input);
    let out_buf = p.mem_buf("out", s.output_shape().numel(), MemRole::Output);
    let cols = p.mem_buf("cols", k * n, MemRole::Temp);
    let prod = p.mem_buf("prod", m * n, MemRole::Temp);
    let im2col = Stmt::Transform(TransformOp { fused: false,
        kind: TransformKind::Im2col { shape: *s, src: in_buf, dst: cols },
    });
    let gemm =
        lower_matmul_body(&mut p, &xmath_knobs(), w_buf, cols, prod, m, n, k, PadMode::Traditional)
            .ok_or_else(|| sw26010::MachineError::Invalid("xmath blocking inapplicable".into()))?;
    let reorder = Stmt::Transform(TransformOp { fused: false,
        kind: TransformKind::PackTensor {
            src: prod,
            dst: out_buf,
            src_dims: vec![s.no, s.b, s.ro, s.co],
            perm: vec![1, 0, 2, 3],
        },
    });
    let mut body = vec![im2col];
    body.extend(gemm);
    body.push(reorder);
    p.set_body(Stmt::seq(body));
    run_program(cfg, p)
}

/// Simulated cycles of the Winograd convolution with its 16 element-wise
/// multiplications executed as **separate xMath library calls** (the
/// Fig. 6 baseline): each call marshals `U[pos]`/`V[pos]` into contiguous
/// buffers, pads them traditionally, and un-marshals the result.
pub fn xmath_winograd_conv(cfg: &MachineConfig, shape: &ConvShape) -> MachineResult<Cycles> {
    if !shape.winograd_applicable() {
        return Err(sw26010::MachineError::Invalid("winograd inapplicable".into()));
    }
    let s = shape;
    let (no, ni) = (s.no, s.ni);
    let nt = swtensor::winograd::n_tiles(s);
    let mut p = Program::new(format!(
        "xmath_winograd_b{}_ni{}_no{}_r{}x{}",
        s.b, s.ni, s.no, s.ro, s.co
    ));
    let in_buf = p.mem_buf("in", s.input_shape().numel(), MemRole::Input);
    let w_buf = p.mem_buf("weight", s.weight_shape().numel(), MemRole::Input);
    let out_buf = p.mem_buf("out", s.output_shape().numel(), MemRole::Output);
    let u_all = p.mem_buf("U", 16 * no * ni, MemRole::Temp);
    let v_all = p.mem_buf("V", 16 * ni * nt, MemRole::Temp);
    let m_all = p.mem_buf("M", 16 * no * nt, MemRole::Temp);
    // Per-call marshalling buffers, reused by all 16 calls.
    let u_call = p.mem_buf("U_call", no * ni, MemRole::Temp);
    let v_call = p.mem_buf("V_call", ni * nt, MemRole::Temp);
    let m_call = p.mem_buf("M_call", no * nt, MemRole::Temp);
    // The library reuses its SPM workspace across calls.
    let knobs = xmath_knobs();
    let spm = [
        p.spm_buf("spm_a", (knobs.t_m / 8) * (knobs.t_k / 8)),
        p.spm_buf("spm_b", (knobs.t_k / 8) * (knobs.t_n / 8)),
        p.spm_buf("spm_c", (knobs.t_m / 8) * (knobs.t_n / 8)),
    ];

    let mut body = vec![
        Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::WinogradFilter {
                shape: *s,
                src: w_buf,
                dst: u_all,
                transposed: false,
            },
        }),
        Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::WinogradInput {
                shape: *s,
                src: in_buf,
                dst: v_all,
                nt_pad: nt,
            },
        }),
    ];

    for pos in 0..16 {
        // Marshal U[pos] and V[pos] out of the batched tensors (viewed as
        // (16·no × ni) and (16·ni × nt) row-major matrices).
        body.push(Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::PadSubmatrix {
                src: u_all,
                src_rows: 16 * no,
                src_cols: ni,
                r0: pos * no,
                c0: 0,
                take_rows: no,
                take_cols: ni,
                dst: u_call,
                dst_rows: no,
                dst_cols: ni,
                zero_first: false,
            },
        }));
        body.push(Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::PadSubmatrix {
                src: v_all,
                src_rows: 16 * ni,
                src_cols: nt,
                r0: pos * ni,
                c0: 0,
                take_rows: ni,
                take_cols: nt,
                dst: v_call,
                dst_rows: ni,
                dst_cols: nt,
                zero_first: false,
            },
        }));
        let gemm = lower_matmul_body_with_spm(
            &mut p,
            &knobs,
            u_call,
            v_call,
            m_call,
            no,
            nt,
            ni,
            PadMode::Traditional,
            Some(spm),
        )
        .ok_or_else(|| sw26010::MachineError::Invalid("xmath blocking inapplicable".into()))?;
        body.extend(gemm);
        body.push(Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::UnpadSubmatrix {
                src: m_call,
                src_rows: no,
                src_cols: nt,
                dst: m_all,
                dst_rows: 16 * no,
                dst_cols: nt,
                r0: pos * no,
                c0: 0,
                take_rows: no,
                take_cols: nt,
            },
        }));
    }

    body.push(Stmt::Transform(TransformOp { fused: false,
        kind: TransformKind::WinogradOutput { shape: *s, src: m_all, dst: out_buf, nt_pad: nt },
    }));
    p.set_body(Stmt::seq(body));
    // 16 xMath calls + 3 transform kernels, each a separate CPE spawn.
    run_program_with_launches(cfg, p, 19)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn gemm_runs_on_aligned_and_unaligned_shapes() {
        let aligned = xmath_gemm(&cfg(), 256, 256, 256).unwrap();
        let unaligned = xmath_gemm(&cfg(), 250, 250, 250).unwrap();
        assert!(aligned.get() > 0);
        // Traditional padding makes the unaligned case pay noticeably more
        // despite computing slightly *less* useful work.
        assert!(unaligned > aligned.min(unaligned));
    }

    #[test]
    fn explicit_conv_runs() {
        let shape = ConvShape::square(2, 16, 16, 4);
        let c = xmath_explicit_conv(&cfg(), &shape).unwrap();
        assert!(c.get() > 0);
    }

    #[test]
    fn winograd_conv_runs_and_marshals_16_calls() {
        let shape = ConvShape::square(2, 16, 16, 8);
        let c = xmath_winograd_conv(&cfg(), &shape).unwrap();
        assert!(c.get() > 0);
    }

    #[test]
    fn winograd_rejects_non_3x3() {
        let mut shape = ConvShape::square(2, 16, 16, 8);
        shape.stride = 2;
        assert!(xmath_winograd_conv(&cfg(), &shape).is_err());
    }
}
