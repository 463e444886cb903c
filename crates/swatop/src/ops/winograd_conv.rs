//! Winograd F(2×2,3×3) convolution (paper Fig. 2, middle).
//!
//! The input and filter are transformed into the 4×4 tile domain; each of
//! the **16** transform positions becomes an independent GEMM
//!
//! ```text
//! M[pos] (No × nt) = U[pos] (No × Ni) · V[pos] (Ni × nt)
//! ```
//!
//! and the results are inverse-transformed back. The tile axis is padded to
//! `nt_pad = ⌈nt/32⌉·32` *inside the input transform*, so every GEMM shape
//! is kernel-legal without boundary buffers — generation-time padding is
//! cheaper than runtime boundary switching here because the transform
//! already touches every element.
//!
//! Schedule knobs: channel tiles `t_no`/`t_ni`, tile-axis tile `t_nt`,
//! the U layout (row/column-major — the latter enables the fast
//! vector-load path under M-vectorisation), the vectorised dimension and
//! the DMA ladder. The reduction is always SPM-resident: it unrolls the
//! `ni` steps with per-step SPM slots, one fused get run per tile and a
//! double-buffered M tile with deferred puts — the schedule that lifted
//! implicit conv off the DMA wall. A looped reduction that re-waits per
//! `ni` step held no optimum of the knob census (`tests/knob_census.rs`).

use sw26010::DmaDirection::{MemToSpm, SpmToMem};
use swatop_dsl::{SchedulePoint, ScheduleSpace, Seed};
use swatop_ir::{
    AffineExpr, Cond, DmaCg, GemmOp, MatDesc, MemRole, Program, SpmSlot, Stmt, TransformKind,
    TransformOp,
};
use swkernels::VecDim;
use swtensor::{ConvShape, MatLayout};

use crate::ops::{divisor_menu, dma_level, largest_divisor, loop_sum};
use crate::ops::tiling::DimTiles;
use crate::optimizer::boundary::round_up;
use crate::scheduler::Operator;

/// Winograd convolution operator instance.
#[derive(Debug, Clone)]
pub struct WinogradConvOp {
    pub shape: ConvShape,
}

impl WinogradConvOp {
    pub fn new(shape: ConvShape) -> Self {
        WinogradConvOp { shape }
    }

    /// Winograd applies to 3×3 stride-1 layers with mesh-aligned channels.
    pub fn applicable(shape: &ConvShape) -> bool {
        shape.winograd_applicable() && shape.ni.is_multiple_of(8) && shape.no.is_multiple_of(8)
    }

    fn nt(&self) -> usize {
        swtensor::winograd::n_tiles(&self.shape)
    }

    fn nt_pad(&self) -> usize {
        round_up(self.nt(), 32)
    }
}

/// Cap on unrolled reduction steps (matches the implicit-conv ladder):
/// beyond this the per-step slots bloat the SPM footprint and the program,
/// so the point is rejected.
const MAX_RESIDENT_STEPS: usize = 16;

const NT_MENU: &[usize] = &[32, 64, 128, 256, 512];

/// Winograd's `dma` menu: the two levels of the implicit-conv ladder that
/// hold optima in the knob census (`tests/knob_census.rs`); `none` and
/// `dbuf+coal` held none of its 73 Winograd optima.
const WINOGRAD_DMA: [&str; 2] = ["dbuf", "all"];

impl Operator for WinogradConvOp {
    fn name(&self) -> String {
        let s = &self.shape;
        format!("winograd_conv_b{}_ni{}_no{}_r{}x{}", s.b, s.ni, s.no, s.ro, s.co)
    }

    fn seed(&self) -> Seed {
        Seed::winograd_conv(self.name(), self.shape)
    }

    fn space(&self) -> ScheduleSpace {
        let s = &self.shape;
        let mut sp = ScheduleSpace::new();
        sp.factor("t_no", divisor_menu(s.no, 8, 4));
        sp.factor("t_ni", divisor_menu(s.ni, 8, 4));
        sp.factor("t_nt", crate::ops::matmul::tile_menu(self.nt_pad(), 32, NT_MENU, 64));
        sp.choice("u_layout", vec!["row".into(), "col".into()]);
        sp.toggle("vec_m");
        sp.choice("dma", WINOGRAD_DMA.map(String::from).into());
        sp
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        if !Self::applicable(&self.shape) {
            return None;
        }
        let s = &self.shape;
        let t_no = point.factor(space, "t_no");
        let t_ni = point.factor(space, "t_ni");
        let t_nt = point.factor(space, "t_nt");
        let u_col = point.choice(space, "u_layout") == "col";
        let vec_m = point.toggle(space, "vec_m");
        let dma = dma_level(point.choice(space, "dma"));

        if !t_no.is_multiple_of(8) || !t_ni.is_multiple_of(8) || !t_nt.is_multiple_of(32) {
            return None;
        }
        if vec_m && !(t_no / 8).is_multiple_of(4) {
            return None;
        }
        let (no, ni) = (s.no, s.ni);
        let nt_pad = self.nt_pad();
        // Prior-knowledge pruning (see implicit conv): cap the GEMM
        // invocation count relative to the best achievable.
        {
            let (max_no, max_ni) = (largest_divisor(no, 8), largest_divisor(ni, 8));
            let max_nt = 512usize.min(crate::optimizer::boundary::round_up(nt_pad, 32));
            let min_inv = 16 * (no / max_no).max(1) * nt_pad.div_ceil(max_nt) * (ni / max_ni).max(1);
            let inv = 16 * (no / t_no) * nt_pad.div_ceil(t_nt) * (ni / t_ni);
            if inv > 16 * min_inv && inv > 4096 {
                return None;
            }
        }
        // Tile-axis segments: full tiles plus an aligned (switchable) tail.
        let nt_tiles = DimTiles::new(nt_pad, t_nt, 32);
        debug_assert!(!nt_tiles.tail_aux, "nt_pad and t_nt are 32-aligned");

        let mut p = Program::new(self.name());
        p.hints = dma;
        let in_buf = p.mem_buf("in", s.input_shape().numel(), MemRole::Input);
        let w_buf = p.mem_buf("weight", s.weight_shape().numel(), MemRole::Input);
        let out_buf = p.mem_buf("out", s.output_shape().numel(), MemRole::Output);
        let u_buf = p.mem_buf("U", 16 * no * ni, MemRole::Temp);
        let v_buf = p.mem_buf("V", 16 * ni * nt_pad, MemRole::Temp);
        let m_buf = p.mem_buf("M", 16 * no * nt_pad, MemRole::Temp);

        let setup = vec![
            Stmt::Transform(TransformOp { fused: false,
                kind: TransformKind::WinogradFilter {
                    shape: *s,
                    src: w_buf,
                    dst: u_buf,
                    transposed: u_col,
                },
            }),
            Stmt::Transform(TransformOp { fused: false,
                kind: TransformKind::WinogradInput {
                    shape: *s,
                    src: in_buf,
                    dst: v_buf,
                    nt_pad,
                },
            }),
        ];

        // Unrolled `ni` reduction steps: every step keeps its own U/V slot
        // so all the fetches of a tile issue as one back-to-back run (one
        // engine batch under get fusion).
        let k_steps = ni / t_ni;
        if k_steps > MAX_RESIDENT_STEPS {
            return None;
        }
        let u_words = (t_no / 8) * (t_ni / 8);
        let v_words = (t_ni / 8) * (t_nt / 8);
        let m_words = (t_no / 8) * (t_nt / 8);
        let spm_m = p.spm_buf("spm_m", m_words);
        // Parity twin for the deferred M puts.
        let spm_m_dbl = p.spm_buf("spm_m_dbl", m_words);
        // Per-step slots. Segments run sequentially, so the slots (sized for
        // the full `t_nt` tile) are reused across them.
        let step_slots: Vec<(swatop_ir::SpmBufId, swatop_ir::SpmBufId)> = (0..k_steps)
            .map(|i| {
                (
                    p.spm_buf(format!("spm_u_s{i}"), u_words),
                    p.spm_buf(format!("spm_v_s{i}"), v_words),
                )
            })
            .collect();
        let r_in = p.fresh_reply();
        let r_mput = p.fresh_reply();

        let mut nests = Vec::new();
        for seg in nt_tiles.segs() {
            let v_pos = p.fresh_var("pos");
            let v_not = p.fresh_var("no_t");
            let v_ntt = p.fresh_var("nt_t");
            let v_nit = p.fresh_var("ni_t");

            let (u_rows, u_cols, u_rs, u_offset) = if u_col {
                (t_ni, t_no, no, loop_sum(&[(v_pos, ni * no), (v_nit, t_ni * no), (v_not, t_no)], 0))
            } else {
                (t_no, t_ni, ni, loop_sum(&[(v_pos, no * ni), (v_not, t_no * ni), (v_nit, t_ni)], 0))
            };
            let u_get_to = |spm: swatop_ir::SpmBufId, offset: AffineExpr| {
                Stmt::DmaCg(DmaCg {
                    buf: u_buf,
                    offset,
                    rows: u_rows,
                    cols: u_cols,
                    row_stride: u_rs,
                    mesh_swap: u_col,
                    direction: MemToSpm,
                    spm: SpmSlot::Single(spm),
                    reply: r_in,
                })
            };
            let v_offset = loop_sum(
                &[(v_pos, ni * nt_pad), (v_nit, t_ni * nt_pad), (v_ntt, seg.stride)],
                seg.start,
            );
            let v_get_to = |spm: swatop_ir::SpmBufId, offset: AffineExpr| {
                Stmt::DmaCg(DmaCg {
                    buf: v_buf,
                    offset,
                    rows: t_ni,
                    cols: seg.size,
                    row_stride: nt_pad,
                    mesh_swap: false,
                    direction: MemToSpm,
                    spm: SpmSlot::Single(spm),
                    reply: r_in,
                })
            };
            let m_offset = loop_sum(
                &[(v_pos, no * nt_pad), (v_not, t_no * nt_pad), (v_ntt, seg.stride)],
                seg.start,
            );
            let m_put = |slot: SpmSlot| {
                Stmt::DmaCg(DmaCg {
                    buf: m_buf,
                    offset: m_offset.clone(),
                    rows: t_no,
                    cols: seg.size,
                    row_stride: nt_pad,
                    mesh_swap: false,
                    direction: SpmToMem,
                    spm: slot,
                    reply: r_mput,
                })
            };
            let gemm_with = |ua: swatop_ir::SpmBufId, vb: swatop_ir::SpmBufId, c_slot: SpmSlot, beta: f32| {
                Stmt::gemm(GemmOp {
                    m: t_no,
                    n: seg.size,
                    k: t_ni,
                    alpha: 1.0,
                    beta,
                    a: MatDesc::new(
                        SpmSlot::Single(ua),
                        if u_col { MatLayout::ColMajor } else { MatLayout::RowMajor },
                        if u_col { t_no / 8 } else { t_ni / 8 },
                    ),
                    b: MatDesc::new(SpmSlot::Single(vb), MatLayout::RowMajor, seg.size / 8),
                    c: MatDesc::new(c_slot, MatLayout::RowMajor, seg.size / 8),
                    vd: if vec_m { VecDim::M } else { VecDim::N },
                    k_step: None,
                })
            };

            // Unroll the `ni` steps, issue all 2·k_steps gets as one leading
            // run with a single wait, and double-buffer the M tile by tile
            // parity with each put's wait deferred by two tiles. The M tile
            // is visited exactly once, so the first step initialises it
            // (β = 0) and the accumulator get disappears entirely.
            let tiles = 16 * (no / t_no) * seg.count;
            let lin = crate::optimizer::prefetch::linear_index(&[
                (v_pos, 16),
                (v_not, no / t_no),
                (v_ntt, seg.count),
            ]);
            let m_slot = SpmSlot::Double { even: spm_m, odd: spm_m_dbl, sel: lin.clone() };
            let mut body = Vec::with_capacity(3 * k_steps + 3);
            for (i, &(su, _)) in step_slots.iter().enumerate() {
                let at = AffineExpr::konst(i as i64);
                body.push(u_get_to(su, u_offset.subst(v_nit, &at)));
            }
            for (i, &(_, sv)) in step_slots.iter().enumerate() {
                let at = AffineExpr::konst(i as i64);
                body.push(v_get_to(sv, v_offset.subst(v_nit, &at)));
            }
            body.push(Stmt::DmaWait { reply: r_in, times: 2 * k_steps });
            if tiles >= 3 {
                // Reclaim the parity slot we are about to write: the put
                // issued two tiles ago targeted the same twin.
                body.push(Stmt::if_(
                    Cond::Ge(lin.clone(), AffineExpr::konst(2)),
                    Stmt::DmaWait { reply: r_mput, times: 1 },
                ));
            }
            for (i, &(su, sv)) in step_slots.iter().enumerate() {
                body.push(gemm_with(su, sv, m_slot.clone(), if i == 0 { 0.0 } else { 1.0 }));
            }
            body.push(m_put(m_slot));
            let seg_nest = Stmt::for_(
                v_pos,
                16,
                Stmt::for_(v_not, no / t_no, Stmt::for_(v_ntt, seg.count, Stmt::seq(body))),
            );
            // Drain the (up to two) in-flight deferred puts before the next
            // segment (or the output transform) reads M.
            let seg_nest =
                Stmt::seq(vec![seg_nest, Stmt::DmaWait { reply: r_mput, times: tiles.min(2) }]);
            nests.push(seg_nest);
        }

        let output = Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::WinogradOutput { shape: *s, src: m_buf, dst: out_buf, nt_pad },
        });

        let mut body = setup;
        body.extend(nests);
        body.push(output);
        p.set_body(Stmt::seq(body));
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            swtensor::init::random_vec(self.shape.input_shape().numel(), 0x5F),
            swtensor::init::random_vec(self.shape.weight_shape().numel(), 0x6F),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let input = swtensor::Tensor::from_vec(
            self.shape.input_shape().dims().to_vec(),
            inputs[0].clone(),
        );
        let weight = swtensor::Tensor::from_vec(
            self.shape.weight_shape().dims().to_vec(),
            inputs[1].clone(),
        );
        swtensor::conv::conv2d_ref(&self.shape, &input, &weight).into_vec()
    }

    fn flops(&self) -> u64 {
        // Direct-convolution FLOPs: the efficiency denominator, which is why
        // Winograd "efficiency" may exceed 100% (paper Fig. 8).
        self.shape.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::verify_candidate;
    use crate::scheduler::Scheduler;
    use sw26010::MachineConfig;

    fn verify_some(shape: ConvShape, max_points: usize) {
        let cfg = MachineConfig::default();
        let op = WinogradConvOp::new(shape);
        let sched = Scheduler::new(cfg.clone());
        let space = op.space();
        let mut checked = 0;
        for point in space.points() {
            let Some(cand) = sched.lower_point(&op, &space, &point) else {
                continue;
            };
            let err = verify_candidate(&cfg, &op, &cand)
                .unwrap_or_else(|e| panic!("{}: {e}", point.describe(&space)));
            assert!(err < 5e-3, "{}: max err {err}", point.describe(&space));
            checked += 1;
            if checked >= max_points {
                break;
            }
        }
        assert!(checked > 0, "no valid candidates for {shape:?}");
    }

    #[test]
    fn square_conv_correct() {
        verify_some(ConvShape::square(2, 16, 16, 8), 6);
    }

    #[test]
    fn odd_output_needs_padded_tiles() {
        // ro = 7 → 4×4 tile grid with cropped edges; nt = 2·16 = 32.
        verify_some(ConvShape::square(2, 8, 8, 7), 3);
    }

    #[test]
    fn unaligned_tile_count_padded() {
        // b=1, ro=14 → nt = 49, padded to 64.
        let op = WinogradConvOp::new(ConvShape::square(1, 8, 8, 14));
        assert_eq!(op.nt(), 49);
        assert_eq!(op.nt_pad(), 64);
        verify_some(op.shape, 3);
    }

    #[test]
    fn padded_conv_correct() {
        let shape = ConvShape { b: 1, ni: 8, no: 8, ro: 8, co: 8, kr: 3, kc: 3, stride: 1, pad: 1 };
        verify_some(shape, 3);
    }

    #[test]
    fn inapplicable_shapes() {
        let mut shape = ConvShape::square(1, 8, 8, 8);
        shape.kr = 5;
        shape.kc = 5;
        assert!(!WinogradConvOp::applicable(&shape));
        let mut strided = ConvShape::square(1, 8, 8, 8);
        strided.stride = 2;
        assert!(!WinogradConvOp::applicable(&strided));
    }
}
