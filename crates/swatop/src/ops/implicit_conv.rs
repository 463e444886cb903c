//! Implicit-GEMM convolution (paper Alg. 2, Fig. 2 right).
//!
//! The direct convolution is tensorized by replacing the innermost loops
//! with GEMM primitives: for each tile of `t_ro` output rows, filter tap
//! `(kr, kc)` and channel chunk, a `No × Ni` weight slab multiplies an
//! `Ni × (B · t_ro · t_co)` input slab, accumulating into an
//! `No × (B · t_ro · t_co)` output slab. Fusing `t_co` adjacent output
//! pixels — and, where a row is too narrow, `t_ro` whole rows — into the
//! GEMM's N dimension is the paper's loop fusion, "enlarging a specific
//! dimension of GEMM primitives by merging loops". The reduction runs filter
//! taps outer, channel chunks inner: the channel-outer order held no optimum
//! of the knob census (`tests/knob_census.rs`).
//!
//! Layouts are schedule decisions: the input is packed to
//! `[Ri][Ni][Ci][B]` (row-major `D_i`) or `[Ri][Ci][B][Ni]` (column-major
//! `D_i`), the weight to `[Kr][Kc][No][Ni]` or `[Kr][Kc][Ni][No]`, and the
//! output accumulates in `[Ro][No][Co][B]` before being unpacked to NCHW.
//!
//! Row tiles (`t_ro > 1`) are offered only where a whole row cannot give the
//! primitive an N it vectorises (B·Co not a multiple of `MESH ×
//! VEC_WIDTH`), and only with `t_co = Co`, so N = B·t_ro·Co. A tap's window
//! of `t_ro` rows skips the `Kc − 1` halo columns between rows, which no 2-D
//! tile DMA can, so the input is first unfolded along the kernel width into
//! `Kc` column-shifted copies (im2col unfolds `Kr·Kc`), `[Ni][Kc][Ri][Co][B]`
//! or `[Kc][Ri][Co][B][Ni]`, in which a window is `t_ro` consecutive rows.
//! Where `t_ro` does not divide Ro, zero tail rows pad the input to whole
//! tiles. The output accumulates in `[No][Ro][Co][B]`, one tile's rows
//! contiguous per output channel, and the unpack drops the tail rows. At
//! batch 1 the row-major unfold and the accumulator are the packed layouts
//! already, so neither is repacked.
//!
//! Constraints: stride 1 (strided layers take the explicit-GEMM path, as
//! swDNN does) and mesh-divisible channel counts — which is why the paper
//! excludes each network's first layer ("its input channel is too small to
//! be handled by implicit CONV"). Spatial padding is materialised by a
//! padded-input transform before packing (by the unfold, for row tiles).

use sw26010::DmaDirection::{MemToSpm, SpmToMem};
use sw26010::MESH;
use swatop_dsl::{factors_of, SchedulePoint, ScheduleSpace, Seed};
use swatop_ir::{
    AVar, AffineExpr, Cond, DmaCg, GemmOp, MatDesc, MemBufId, MemRole, Program, SpmSlot, Stmt,
    TransformKind, TransformOp,
};
use swkernels::{VecDim, VEC_WIDTH};
use swtensor::{ConvShape, MatLayout};

use crate::ops::{divisor_menu, dma_level, largest_divisor, loop_sum, spread, DMA_LADDER};
use crate::scheduler::Operator;

/// Implicit-GEMM convolution operator instance.
#[derive(Debug, Clone)]
pub struct ImplicitConvOp {
    pub shape: ConvShape,
}

impl ImplicitConvOp {
    pub fn new(shape: ConvShape) -> Self {
        ImplicitConvOp { shape }
    }

    /// Whether the implicit method applies to this shape at all.
    pub fn applicable(shape: &ConvShape) -> bool {
        shape.stride == 1 && shape.ni.is_multiple_of(8) && shape.no.is_multiple_of(8)
    }

    /// The shape after materialising spatial padding.
    fn padded_shape(&self) -> ConvShape {
        ConvShape { pad: 0, ..self.shape }
    }

    /// The input of row tiles covering `ro_pad` output rows: zero tail rows
    /// past the image, then the `Kc` column-shifted copies
    /// `u[kc][ni][r][c][b] = padded[b][ni][r][c + kc]`, laid out
    /// `[Ni][Kc][Ri][Co][B]` (`[Kc][Ri][Co][B][Ni]` with `d_col`). Pushes the
    /// transforms onto `setup` (none for an unpadded 1-wide kernel at batch 1
    /// with whole tiles) and returns the buffer.
    fn unfold_rows(
        &self,
        p: &mut Program,
        setup: &mut Vec<Stmt>,
        in_buf: MemBufId,
        ro_pad: usize,
        d_col: bool,
    ) -> MemBufId {
        let s = &self.shape;
        let (b, ni, co, kc) = (s.b, s.ni, s.co, s.kc);
        let (ri, ci) = (s.ri(), s.ci());
        let tail = ro_pad - s.ro;
        // Rows of each copy: the padded input's and the tail.
        let rows = ro_pad + s.kr - 1;
        let transform = |kind| Stmt::Transform(TransformOp { fused: false, kind });
        let tailed = if tail > 0 {
            let planes = b * ni;
            let dst = p.mem_buf("in_tail", planes * (ri + tail) * ci, MemRole::Temp);
            setup.push(transform(TransformKind::PadSubmatrix {
                src: in_buf,
                src_rows: planes,
                src_cols: ri * ci,
                r0: 0,
                c0: 0,
                take_rows: planes,
                take_cols: ri * ci,
                dst,
                dst_rows: planes,
                dst_cols: (ri + tail) * ci,
                zero_first: true,
            }));
            dst
        } else {
            in_buf
        };
        let len = kc * ni * rows * co * b;
        let (src, src_dims, perm) = if kc == 1 && s.pad == 0 {
            // The one copy is the input itself: [B][Ni][Ri][Co].
            let perm = if d_col { vec![2, 3, 0, 1] } else { vec![1, 2, 3, 0] };
            (tailed, vec![b, ni, rows, co], perm)
        } else {
            // im2col of a one-row kernel over every input row, which also
            // pads: [Ni][Kc] × [B][Ri][Co].
            let shifted = p.mem_buf("in_unfolded", len, MemRole::Temp);
            let window = ConvShape { ro: rows, kr: 1, stride: 1, ..*s };
            let kind = TransformKind::Im2col { shape: window, src: tailed, dst: shifted };
            setup.push(transform(kind));
            let perm = if d_col { vec![1, 3, 4, 2, 0] } else { vec![0, 1, 3, 4, 2] };
            (shifted, vec![ni, kc, b, rows, co], perm)
        };
        // At batch 1 the row-major layout is the source's own.
        if b == 1 && !d_col {
            return src;
        }
        let d_buf = p.mem_buf("d_packed", len, MemRole::Temp);
        setup.push(transform(TransformKind::PackTensor { src, dst: d_buf, src_dims, perm }));
        d_buf
    }
}

/// The N a whole-row tile must be a multiple of for the primitive to
/// vectorise along it: `spm_gemm` needs N/MESH to be a multiple of its
/// vector width.
const WIDE_N: usize = MESH * VEC_WIDTH;

/// Most row counts the `t_ro` menu offers besides 1.
const MAX_ROW_TILES: usize = 3;

/// The `t_ro` menu: `1` alone where B·Co is a multiple of [`WIDE_N`] (whole
/// rows already vectorise), else `1` and up to [`MAX_ROW_TILES`] row counts
/// `r` with B·r·Co a multiple of the mesh. Per number of row tiles the menu
/// holds the fewest rows that reach it, so `r` may exceed Ro by the padding
/// the last tile needs but never pads a tile count a smaller `r` reaches.
fn row_menu(s: &ConvShape) -> Vec<usize> {
    let width = s.b * s.co;
    if width.is_multiple_of(WIDE_N) {
        return vec![1];
    }
    let step = (1..=MESH).find(|r| (r * width).is_multiple_of(MESH)).expect("MESH itself");
    let mut rows: Vec<usize> = (1..=s.ro)
        .map(|tiles| s.ro.div_ceil(tiles).next_multiple_of(step))
        .filter(|&r| r > 1)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let mut menu = vec![1];
    menu.extend(spread(rows, MAX_ROW_TILES));
    menu
}

/// Cap on unrolled reduction steps for the SPM-resident schedule: beyond
/// this the per-step slots bloat both the SPM footprint and the program
/// (2 gets + 1 GEMM per step), so larger reductions must use `red=loop`.
const MAX_RESIDENT_STEPS: usize = 16;

impl Operator for ImplicitConvOp {
    fn name(&self) -> String {
        let s = &self.shape;
        format!("implicit_conv_b{}_ni{}_no{}_r{}x{}", s.b, s.ni, s.no, s.ro, s.co)
    }

    fn seed(&self) -> Seed {
        Seed::implicit_conv(self.name(), self.shape)
    }

    fn space(&self) -> ScheduleSpace {
        let s = &self.shape;
        let mut sp = ScheduleSpace::new();
        sp.factor("t_no", divisor_menu(s.no, 8, 4));
        sp.factor("t_ni", divisor_menu(s.ni, 8, 4));
        sp.factor("t_co", spread(factors_of(s.co), 4));
        // Whole output rows merged into N; present only where the menu
        // offers more than one row (see `row_menu`).
        let rows = row_menu(s);
        if rows.len() > 1 {
            sp.factor("t_ro", rows);
        }
        sp.choice("w_layout", vec!["row".into(), "col".into()]);
        sp.choice("d_layout", vec!["row".into(), "col".into()]);
        sp.toggle("vec_m");
        sp.choice("dma", DMA_LADDER.map(String::from).into());
        // Reduction schedule: `loop` iterates the (kr, kc, ni_t) nest and
        // re-waits per step; `resident` unrolls it — every step's weight and
        // input tile gets its own SPM slot, all fetched up front as one run
        // of back-to-back gets (one engine batch group under fusion, one
        // latency instead of kr·kc·ni_t of them).
        sp.choice("red", vec!["loop".into(), "resident".into()]);
        sp
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        let s = self.padded_shape();
        if !Self::applicable(&self.shape) {
            return None;
        }
        let t_no = point.factor(space, "t_no");
        let t_ni = point.factor(space, "t_ni");
        let t_co = point.factor(space, "t_co");
        let t_ro = if space.has_knob("t_ro") { point.factor(space, "t_ro") } else { 1 };
        let w_col = point.choice(space, "w_layout") == "col";
        let d_col = point.choice(space, "d_layout") == "col";
        let vec_m = point.toggle(space, "vec_m");
        let dma = dma_level(point.choice(space, "dma"));
        let resident = space.has_knob("red") && point.choice(space, "red") == "resident";

        // Rows join whole.
        if t_ro > 1 && t_co != s.co {
            return None;
        }
        let n_dim = t_ro * t_co * s.b;
        // Kernel contract: mesh divisibility + vector alignment.
        if !n_dim.is_multiple_of(8) || !t_no.is_multiple_of(8) || !t_ni.is_multiple_of(8) {
            return None;
        }
        // Prior-knowledge pruning: candidates whose GEMM-invocation count
        // is far above the best achievable for this shape are DMA-latency
        // bound and never competitive; drop them before they slow black-box
        // tuning to a crawl.
        {
            let space_min = |len: usize, menu_max: usize| len.div_ceil(menu_max).max(1);
            let (max_no, max_ni) = (largest_divisor(s.no, 8), largest_divisor(s.ni, 8));
            let max_co = s.co;
            let min_inv = s.ro
                * space_min(s.no, max_no)
                * space_min(s.co, max_co)
                * s.kr
                * s.kc
                * space_min(s.ni, max_ni);
            let inv =
                s.ro.div_ceil(t_ro) * (s.no / t_no) * (s.co / t_co) * s.kr * s.kc * (s.ni / t_ni);
            if inv > 16 * min_inv && inv > 4096 {
                return None;
            }
        }
        if vec_m && !(t_no / 8).is_multiple_of(4) {
            return None;
        }
        if !vec_m && !(n_dim / 8).is_multiple_of(4) {
            return None;
        }

        let (b, ni, no) = (s.b, s.ni, s.no);
        let (ro, co) = (s.ro, s.co);
        let (kr, kc) = (s.kr, s.kc);
        let (ri, ci) = (s.ri(), s.ci());
        // Row tiles, and the rows they cover: Ro plus the zero tail rows.
        let row_tiles = ro.div_ceil(t_ro);
        let ro_pad = row_tiles * t_ro;

        let mut p = Program::new(self.name());
        p.hints = dma;
        let in_buf = p.mem_buf("in", self.shape.input_shape().numel(), MemRole::Input);
        let w_buf = p.mem_buf("weight", s.weight_shape().numel(), MemRole::Input);
        let out_buf = p.mem_buf("out", s.output_shape().numel(), MemRole::Output);

        let mut setup = Vec::new();

        let d_buf = if t_ro == 1 {
            // Materialise spatial zero padding, if any, as a padded NCHW copy.
            let nchw_buf = if self.shape.pad > 0 {
                let padded = p.mem_buf("in_padded", b * ni * ri * ci, MemRole::Temp);
                setup.push(Stmt::Transform(TransformOp { fused: false,
                    kind: TransformKind::PadImageNchw {
                        shape: self.shape,
                        src: in_buf,
                        dst: padded,
                    },
                }));
                padded
            } else {
                in_buf
            };

            // Layout packing.
            let d_buf = p.mem_buf("d_packed", b * ni * ri * ci, MemRole::Temp);
            setup.push(Stmt::Transform(TransformOp { fused: false,
                kind: TransformKind::PackTensor {
                    src: nchw_buf,
                    dst: d_buf,
                    src_dims: vec![b, ni, ri, ci],
                    // [Ri][Ni][Ci][B] or [Ri][Ci][B][Ni].
                    perm: if d_col { vec![2, 3, 0, 1] } else { vec![2, 1, 3, 0] },
                },
            }));
            d_buf
        } else {
            self.unfold_rows(&mut p, &mut setup, in_buf, ro_pad, d_col)
        };
        let w_packed = p.mem_buf("w_packed", no * ni * kr * kc, MemRole::Temp);
        setup.push(Stmt::Transform(TransformOp { fused: false,
            kind: TransformKind::PackTensor {
                src: w_buf,
                dst: w_packed,
                src_dims: vec![no, ni, kr, kc],
                // [Kr][Kc][No][Ni] or [Kr][Kc][Ni][No].
                perm: if w_col { vec![2, 3, 1, 0] } else { vec![2, 3, 0, 1] },
            },
        }));
        // At batch 1 the row tiles' accumulator, [No][Ro][Co], is the NCHW
        // output itself unless there are tail rows to drop.
        let o_buf = if t_ro > 1 && b == 1 && ro_pad == ro {
            out_buf
        } else {
            p.mem_buf("o_acc", ro_pad * no * co * b, MemRole::Temp)
        };

        // Unrolled reduction steps of the SPM-resident schedule: every
        // (kr, kc, ni_t) tap keeps its own weight/input slot, so all the
        // fetches of a tile issue as one back-to-back run.
        let k_steps = kr * kc * (ni / t_ni);
        if resident && k_steps > MAX_RESIDENT_STEPS {
            return None;
        }

        // SPM buffers (the resident per-step slots are created below).
        let spm_o = p.spm_buf("spm_o", (t_no / 8) * (n_dim / 8));
        let r_in = p.fresh_reply();
        let r_oput = p.fresh_reply();

        // Loop variables.
        let v_ro = p.fresh_var("ro");
        let v_not = p.fresh_var("no_t");
        let v_cot = p.fresh_var("co_t");
        let v_kr = p.fresh_var("kr");
        let v_kc = p.fresh_var("kc");
        let v_nit = p.fresh_var("ni_t");

        // Weight tile DMA (target slot and offset are supplied per use: the
        // resident schedule substitutes the reduction variables away and
        // lands each step in its own slot). The (kr, kc) slab, then the
        // tile within it.
        let (slab_kr, slab_kc) = ((v_kr, kc * no * ni), (v_kc, no * ni));
        let (w_rows, w_cols, w_row_stride, w_offset) = if w_col {
            (t_ni, t_no, no, loop_sum(&[slab_kr, slab_kc, (v_nit, t_ni * no), (v_not, t_no)], 0))
        } else {
            (t_no, t_ni, ni, loop_sum(&[slab_kr, slab_kc, (v_not, t_no * ni), (v_nit, t_ni)], 0))
        };
        let w_get_to = |spm: swatop_ir::SpmBufId, offset: AffineExpr| {
            Stmt::DmaCg(DmaCg {
                buf: w_packed,
                offset,
                rows: w_rows,
                cols: w_cols,
                row_stride: w_row_stride,
                mesh_swap: w_col,
                direction: MemToSpm,
                spm: SpmSlot::Single(spm),
                reply: r_in,
            })
        };

        // Input tile DMA: ri = ro + kr, ci window = (co_t·t_co + kc)·B; with
        // row tiles, `t_ro` consecutive rows of the `kc`-shifted copy.
        let (d_rows, d_cols, d_row_stride, d_offset) = match (t_ro, d_col) {
            (1, true) => {
                // [Ri][Ci][B][Ni]
                let ri = ci * b * ni;
                (
                    n_dim,
                    t_ni,
                    ni,
                    loop_sum(
                        &[
                            (v_ro, ri),
                            (v_kr, ri),
                            (v_cot, t_co * b * ni),
                            (v_kc, b * ni),
                            (v_nit, t_ni),
                        ],
                        0,
                    ),
                )
            }
            (1, false) => {
                // [Ri][Ni][Ci][B]
                let ri = ni * ci * b;
                (
                    t_ni,
                    n_dim,
                    ci * b,
                    loop_sum(
                        &[
                            (v_ro, ri),
                            (v_kr, ri),
                            (v_nit, t_ni * ci * b),
                            (v_cot, t_co * b),
                            (v_kc, b),
                        ],
                        0,
                    ),
                )
            }
            (_, true) => {
                // [Kc][Ri][Co][B][Ni]
                let row = co * b * ni;
                let copy = (ro_pad + kr - 1) * row;
                (
                    n_dim,
                    t_ni,
                    ni,
                    loop_sum(&[(v_ro, t_ro * row), (v_kr, row), (v_kc, copy), (v_nit, t_ni)], 0),
                )
            }
            (_, false) => {
                // [Ni][Kc][Ri][Co][B]
                let copy = (ro_pad + kr - 1) * co * b;
                (
                    t_ni,
                    n_dim,
                    kc * copy,
                    loop_sum(
                        &[
                            (v_ro, t_ro * co * b),
                            (v_kr, co * b),
                            (v_kc, copy),
                            (v_nit, t_ni * kc * copy),
                        ],
                        0,
                    ),
                )
            }
        };
        let d_get_to = |spm: swatop_ir::SpmBufId, offset: AffineExpr| {
            Stmt::DmaCg(DmaCg {
                buf: d_buf,
                offset,
                rows: d_rows,
                cols: d_cols,
                row_stride: d_row_stride,
                mesh_swap: d_col,
                direction: MemToSpm,
                spm: SpmSlot::Single(spm),
                reply: r_in,
            })
        };

        // Output accumulator tile in [Ro][No][Co][B], or [No][Ro][Co][B] for
        // row tiles (one tile's rows contiguous per output channel).
        let (o_row, o_offset) = if t_ro == 1 {
            let o_row = co * b;
            (o_row, loop_sum(&[(v_ro, no * o_row), (v_not, t_no * o_row), (v_cot, t_co * b)], 0))
        } else {
            let o_row = ro_pad * co * b;
            (o_row, loop_sum(&[(v_ro, n_dim), (v_not, t_no * o_row)], 0))
        };
        let o_dma = |direction, reply, slot: SpmSlot| {
            Stmt::DmaCg(DmaCg {
                buf: o_buf,
                offset: o_offset.clone(),
                rows: t_no,
                cols: n_dim,
                row_stride: o_row,
                mesh_swap: false,
                direction,
                spm: slot,
                reply,
            })
        };

        let gemm_with = |wa: swatop_ir::SpmBufId,
                         db: swatop_ir::SpmBufId,
                         c_slot: SpmSlot,
                         beta: f32,
                         k_step: Option<AffineExpr>| {
            Stmt::gemm(GemmOp {
                m: t_no,
                n: n_dim,
                k: t_ni,
                alpha: 1.0,
                beta,
                a: MatDesc::new(
                    SpmSlot::Single(wa),
                    if w_col { MatLayout::ColMajor } else { MatLayout::RowMajor },
                    if w_col { t_no / 8 } else { t_ni / 8 },
                ),
                b: MatDesc::new(
                    SpmSlot::Single(db),
                    if d_col { MatLayout::ColMajor } else { MatLayout::RowMajor },
                    if d_col { t_ni / 8 } else { n_dim / 8 },
                ),
                c: MatDesc::new(c_slot, MatLayout::RowMajor, n_dim / 8),
                vd: if vec_m { VecDim::M } else { VecDim::N },
                k_step,
            })
        };

        let w_words = (t_no / 8) * (t_ni / 8);
        let d_words = (t_ni / 8) * (n_dim / 8);

        let tile_body = if resident {
            // SPM-resident reduction: unroll the (kr, kc, ni_t) nest, give
            // every step its own weight/input slot, and issue all 2·k_steps
            // gets as one leading run followed by a single wait. Under
            // get-batch fusion the run chains into one engine batch (one
            // start-up latency per tile); the GEMMs execute in the same step
            // order as the loop schedule, so accumulation is bit-identical.
            let ni_t = ni / t_ni;
            let mut steps = Vec::with_capacity(k_steps);
            for ikr in 0..kr {
                for ikc in 0..kc {
                    for init in 0..ni_t {
                        steps.push((ikr, ikc, init));
                    }
                }
            }
            // Double-buffer the output tile by tile parity and defer each
            // put's wait by two tiles: the put streams out behind the next
            // tile's compute instead of stalling the issue slot, and the
            // parity twin guarantees the tile being written out is never the
            // one the current GEMMs accumulate into.
            let o_words = (t_no / 8) * (n_dim / 8);
            let spm_o_dbl = p.spm_buf("spm_o_dbl", o_words);
            let tiles = row_tiles * (no / t_no) * (co / t_co);
            let lin = crate::optimizer::prefetch::linear_index(&[
                (v_ro, row_tiles),
                (v_not, no / t_no),
                (v_cot, co / t_co),
            ]);
            let o_slot = SpmSlot::Double { even: spm_o, odd: spm_o_dbl, sel: lin.clone() };
            let mut gets = Vec::with_capacity(2 * k_steps);
            let mut gemms = Vec::with_capacity(k_steps);
            for (i, &(ikr, ikc, init)) in steps.iter().enumerate() {
                let spm_w_s = p.spm_buf(format!("spm_w_s{i}"), w_words);
                let spm_d_s = p.spm_buf(format!("spm_d_s{i}"), d_words);
                let at = [(v_kr, ikr as i64), (v_kc, ikc as i64), (v_nit, init as i64)];
                gets.push(w_get_to(spm_w_s, w_offset.subst_consts(&at)));
                gets.push(d_get_to(spm_d_s, d_offset.subst_consts(&at)));
                // The output tile is visited exactly once, so the first
                // step initialises it (β = 0) instead of accumulating onto
                // a preloaded tile — the accumulator get (and its wait,
                // which would queue behind the next tile's prefetched run
                // on the FIFO engine) disappears entirely.
                gemms.push(gemm_with(
                    spm_w_s,
                    spm_d_s,
                    o_slot.clone(),
                    if i == 0 { 0.0 } else { 1.0 },
                    None,
                ));
            }
            let mut body = gets;
            body.push(Stmt::DmaWait { reply: r_in, times: 2 * k_steps });
            if tiles >= 3 {
                // Reclaim the parity slot we are about to accumulate into:
                // the put issued two tiles ago targeted the same twin.
                body.push(Stmt::if_(
                    Cond::Ge(lin.clone(), AffineExpr::konst(2)),
                    Stmt::DmaWait { reply: r_oput, times: 1 },
                ));
            }
            body.extend(gemms);
            body.push(o_dma(SpmToMem, r_oput, o_slot));
            Stmt::seq(body)
        } else {
            // Looped reduction nest over (kr, kc, ni_t), filter taps outer;
            // one shared slot pair, re-waited per step. The nest's first
            // step overwrites the output tile (β = 0), so no get fetches it.
            let spm_w = p.spm_buf("spm_w", w_words);
            let spm_d = p.spm_buf("spm_d", d_words);
            let red_loops = [(v_kr, kr), (v_kc, kc), (v_nit, ni / t_ni)];
            let k_step = crate::optimizer::prefetch::linear_index(&red_loops);
            let inner_body = Stmt::seq(vec![
                w_get_to(spm_w, w_offset.clone()),
                d_get_to(spm_d, d_offset.clone()),
                Stmt::DmaWait { reply: r_in, times: 2 },
                gemm_with(spm_w, spm_d, SpmSlot::Single(spm_o), 1.0, Some(k_step)),
            ]);
            let red_nest = swatop_ir::transform::build_nest(&red_loops, inner_body);
            Stmt::seq(vec![
                red_nest,
                o_dma(SpmToMem, r_oput, SpmSlot::Single(spm_o)),
                Stmt::DmaWait { reply: r_oput, times: 1 },
            ])
        };

        let mut nest = Stmt::for_(
            v_ro,
            row_tiles,
            Stmt::for_(v_not, no / t_no, Stmt::for_(v_cot, co / t_co, tile_body)),
        );
        if resident {
            // Drain the (up to two) in-flight deferred puts before unpacking.
            let tiles = row_tiles * (no / t_no) * (co / t_co);
            nest = Stmt::seq(vec![
                nest,
                Stmt::DmaWait { reply: r_oput, times: tiles.min(2) },
            ]);
        }

        // Unpack [Ro][No][Co][B] → NCHW.
        let mut unpack = vec![];
        if t_ro == 1 {
            unpack.push(Stmt::Transform(TransformOp { fused: false,
                kind: TransformKind::PackTensor {
                    src: o_buf,
                    dst: out_buf,
                    src_dims: vec![ro, no, co, b],
                    perm: vec![3, 1, 0, 2],
                },
            }));
        } else {
            // [No][Ro + tail][Co][B] → [B][No][Ro + tail][Co] (the same at
            // batch 1), then drop the tail rows of each plane.
            let planes = b * no;
            let mut nchw = o_buf;
            if b > 1 {
                nchw = if ro_pad == ro {
                    out_buf
                } else {
                    p.mem_buf("o_nchw", planes * ro_pad * co, MemRole::Temp)
                };
                unpack.push(Stmt::Transform(TransformOp { fused: false,
                    kind: TransformKind::PackTensor {
                        src: o_buf,
                        dst: nchw,
                        src_dims: vec![no, ro_pad, co, b],
                        perm: vec![3, 0, 1, 2],
                    },
                }));
            }
            if ro_pad > ro {
                unpack.push(Stmt::Transform(TransformOp { fused: false,
                    kind: TransformKind::UnpadSubmatrix {
                        src: nchw,
                        src_rows: planes,
                        src_cols: ro_pad * co,
                        dst: out_buf,
                        dst_rows: planes,
                        dst_cols: ro * co,
                        r0: 0,
                        c0: 0,
                        take_rows: planes,
                        take_cols: ro * co,
                    },
                }));
            }
        }

        let mut body = setup;
        body.push(nest);
        body.extend(unpack);
        p.set_body(Stmt::seq(body));
        let _ = AVar::Rid; // (mesh terms are injected by DMA inference)
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            swtensor::init::random_vec(self.shape.input_shape().numel(), 0x1D),
            swtensor::init::random_vec(self.shape.weight_shape().numel(), 0x2D),
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
        self.shape.flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::verify_candidate;
    use crate::scheduler::Scheduler;
    use sw26010::MachineConfig;

    fn verify_shape(shape: ConvShape, max_points: usize) {
        let cfg = MachineConfig::default();
        let op = ImplicitConvOp::new(shape);
        let sched = Scheduler::new(cfg.clone());
        let space = op.space();
        let mut checked = 0;
        for point in space.points() {
            let Some(cand) = sched.lower_point(&op, &space, &point) else {
                continue;
            };
            let err = verify_candidate(&cfg, &op, &cand)
                .unwrap_or_else(|e| panic!("{}: {e}", point.describe(&space)));
            assert!(err < 1e-3, "{}: max err {err}", point.describe(&space));
            checked += 1;
            if checked >= max_points {
                break;
            }
        }
        assert!(checked > 0, "no valid candidates for {shape:?}");
    }

    #[test]
    fn small_conv_batch8_correct() {
        verify_shape(ConvShape::square(8, 16, 16, 4), 8);
    }

    #[test]
    fn batch1_needs_co_fusion() {
        // B = 1: the GEMM N dimension comes entirely from fused pixels.
        verify_shape(ConvShape::square(1, 32, 32, 8), 4);
    }

    #[test]
    fn rectangular_kernel_and_channels() {
        let shape = ConvShape { b: 4, ni: 24, no: 16, ro: 4, co: 8, kr: 1, kc: 3, stride: 1, pad: 0 };
        verify_shape(shape, 3);
    }

    #[test]
    fn padded_conv_correct() {
        let shape = ConvShape { b: 8, ni: 16, no: 16, ro: 8, co: 8, kr: 3, kc: 3, stride: 1, pad: 1 };
        verify_shape(shape, 3);
    }

    #[test]
    fn strided_shape_is_inapplicable() {
        let mut shape = ConvShape::square(4, 16, 16, 4);
        shape.stride = 2;
        assert!(!ImplicitConvOp::applicable(&shape));
        let op = ImplicitConvOp::new(shape);
        let space = op.space();
        assert!(op.lower(&space, &space.point(0)).is_none());
    }

    #[test]
    fn tiny_channels_are_inapplicable() {
        let shape = ConvShape { b: 4, ni: 3, no: 16, ro: 4, co: 4, kr: 3, kc: 3, stride: 1, pad: 0 };
        assert!(!ImplicitConvOp::applicable(&shape));
    }

    #[test]
    fn every_row_tile_candidate_computes_the_convolution() {
        // Batch 1 and 2, 3x3 padded and not, 1x1 and 1x3, and Co of 7 and
        // 14, where the last row tile needs zero tail rows.
        let conv = |b, ni, no, ro, co, kr, kc, pad| ConvShape {
            b, ni, no, ro, co, kr, kc, stride: 1, pad,
        };
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let (mut checked, mut tails) = (0, 0);
        for shape in [
            conv(1, 8, 8, 8, 8, 3, 3, 1),
            conv(2, 8, 32, 7, 7, 3, 3, 1),
            conv(1, 16, 32, 14, 14, 1, 1, 0),
            conv(1, 8, 32, 7, 7, 3, 3, 0),
            conv(2, 8, 32, 5, 6, 1, 3, 0),
        ] {
            let op = ImplicitConvOp::new(shape);
            let space = op.space();
            assert!(space.has_knob("t_ro"), "{shape:?}");
            let mut rows_seen = Vec::new();
            for cand in sched.enumerate(&op) {
                let point = space.point(cand.point_index);
                let t_ro = point.factor(&space, "t_ro");
                if t_ro == 1 {
                    continue;
                }
                assert_eq!(point.factor(&space, "t_co"), shape.co, "{}", cand.describe);
                crate::ops::validate_candidate(&cfg, &op, &cand)
                    .unwrap_or_else(|e| panic!("{shape:?} at {}: {e}", cand.describe));
                checked += 1;
                tails += usize::from(!shape.ro.is_multiple_of(t_ro));
                if !rows_seen.contains(&t_ro) {
                    rows_seen.push(t_ro);
                }
            }
            assert!(!rows_seen.is_empty(), "{shape:?}: no row-tile candidate");
        }
        assert!(tails > 0 && tails < checked, "{tails} of {checked} with tail rows");
    }

    #[test]
    fn t_ro_is_offered_only_where_a_whole_row_cannot_vectorise() {
        for b in [1, 2, 3, 4, 8, 16, 32] {
            for co in 1..=30 {
                for ro in [1, co, co + 3] {
                    let shape = ConvShape { ro, co, ..ConvShape::square(b, 16, 16, co) };
                    let space = ImplicitConvOp::new(shape).space();
                    let menu = row_menu(&shape);
                    if (b * co).is_multiple_of(32) {
                        assert!(!space.has_knob("t_ro"), "{shape:?}");
                        continue;
                    }
                    assert_eq!(space.has_knob("t_ro"), menu.len() > 1, "{shape:?}");
                    assert_eq!(menu[0], 1, "{shape:?}");
                    assert!(menu.len() <= 1 + MAX_ROW_TILES, "{shape:?}: {menu:?}");
                    for &r in &menu[1..] {
                        assert!((b * r * co).is_multiple_of(8), "{shape:?}: {menu:?}");
                        // No padding a smaller row count would avoid.
                        let tiles = ro.div_ceil(r);
                        assert!(
                            menu[1..].iter().all(|&q| q >= r || ro.div_ceil(q) > tiles),
                            "{shape:?}: {menu:?}"
                        );
                    }
                }
            }
        }
        // The menus the design names.
        let menu = |b, ro| row_menu(&ConvShape::square(b, 32, 32, ro));
        assert_eq!(menu(4, 12), [1, 2, 4, 12]);
        assert_eq!(menu(1, 8), [1, 2, 4, 8]);
        assert_eq!(menu(1, 14), [1, 4, 8, 16]);
        assert_eq!(menu(1, 7), [1, 8]);
        assert_eq!(menu(32, 7), [1]);
    }

    #[test]
    fn every_reduction_overwrites_the_output_tile_it_starts() {
        // The GEMMs compute each output tile whatever the accumulator
        // buffer held: both reductions at every `dma` level, a padded shape
        // and merged rows among them.
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let shapes = [
            ConvShape::square(8, 16, 16, 4),
            ConvShape { b: 8, ni: 16, no: 16, ro: 8, co: 8, kr: 3, kc: 3, stride: 1, pad: 1 },
            ConvShape { b: 2, ni: 8, no: 32, ro: 7, co: 7, kr: 3, kc: 3, stride: 1, pad: 1 },
        ];
        for shape in shapes {
            let op = ImplicitConvOp::new(shape);
            let space = op.space();
            for level in DMA_LADDER {
                for red in ["loop", "resident"] {
                    let cand = space
                        .points()
                        .filter(|p| p.choice(&space, "dma") == level && p.choice(&space, "red") == red)
                        .filter(|p| !space.has_knob("t_ro") || p.factor(&space, "t_ro") > 1)
                        .find_map(|p| sched.lower_point(&op, &space, &p))
                        .unwrap_or_else(|| panic!("{shape:?}: no {level} {red} candidate"));
                    let what = format!("{shape:?} {}", cand.describe);
                    let err = crate::ops::verify_over_stale_memory(&cfg, &op, &cand)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(err < 1e-3, "{what}: max err {err}");
                }
            }
        }
    }

    #[test]
    fn schedules_get_prefetched() {
        let cfg = MachineConfig::default();
        let op = ImplicitConvOp::new(ConvShape::square(8, 16, 16, 4));
        let sched = Scheduler::new(cfg);
        let cands = sched.enumerate(&op);
        assert!(!cands.is_empty());
        assert!(
            cands.iter().any(|c| c.prefetched),
            "at least some implicit-conv schedules must double-buffer"
        );
    }
}
