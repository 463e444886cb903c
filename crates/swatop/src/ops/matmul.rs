//! Matrix multiplication operator: `C = A·B` with arbitrary (unaligned)
//! dimensions.
//!
//! Schedule space (the xMath comparison of Tab. 2 sweeps this):
//!
//! * `t_m`, `t_n`, `t_k` — tile sizes (FactorVar-style candidates);
//! * `layout` — SPM layouts of A and B (`r`ow/`c`olumn-major each);
//!   column-major operands are materialised by a one-time `PackTensor`
//!   transpose in main memory (the layout transformation of Sec. 4.3.2);
//!   `MatmulOp` offers `rr` and `cr`, the ladder operators all four;
//! * `vec_m` — vectorise the M or the N loop (Sec. 4.3.3);
//! * `dma` — which DMA-wall passes run (`MATMUL_DMA`, Sec. 4.5);
//! * `resident` — stream B per tile step (`m`-outer tile loop), or keep its
//!   whole-K panel in SPM under an `n`-outer loop (see [`Resident`]).
//!
//! Boundary processing follows Sec. 4.5.3 through [`SrcFamily`]:
//! aligned tails use parameter switching, misaligned tails use lightweight
//! (or, for the Fig. 11 baseline, traditional) zero padding. Each segment
//! combination lowers to its own loop nest, so the hot interior nest stays
//! guard-free and prefetchable.

use sw26010::DmaDirection::{MemToSpm, SpmToMem};
use swatop_dsl::{SchedulePoint, ScheduleSpace};
use swatop_ir::{
    AffineExpr, GemmOp, MatDesc, MemRole, Program, ScheduleHints, SpmSlot, Stmt, TransformKind,
};
use swkernels::VecDim;
use swtensor::MatLayout;

use crate::ops::dma_level;
use crate::ops::tiling::{DimTiles, PadMode, SrcFamily};
use crate::scheduler::Operator;

/// SPM-resident operand reuse. `None` streams every tile per (m, n, k) step
/// under an `m`-outer tile loop. `B` walks the tiles `n`-outer and keeps B's
/// whole-K panel resident across the inner m steps (the panel is invariant
/// over them), so it is fetched once per n tile. The knob census
/// (`tests/knob_census.rs`) found no optimum on the other two pairings: an
/// `n`-outer walk that streams B, or an A-panel mirror under `m`-outer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resident {
    None,
    B,
}

/// Unroll bound for the k loop under resident reuse (each k step becomes
/// its own GEMM call reading its own resident SPM slot).
const MAX_RESIDENT_UNROLL: usize = 16;

/// Matrix-multiplication operator instance.
#[derive(Debug, Clone)]
pub struct MatmulOp {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub pad_mode: PadMode,
}

impl MatmulOp {
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        MatmulOp { m, n, k, pad_mode: PadMode::Lightweight }
    }

    pub fn with_pad_mode(mut self, mode: PadMode) -> Self {
        self.pad_mode = mode;
        self
    }
}

/// Tile-size candidates for a dimension: aligned sizes that keep the tile
/// count manageable (the "prior knowledge" pruning of the search space the
/// paper advocates — tiny tiles on huge matrices are never competitive and
/// only slow tuning down).
pub fn tile_menu(len: usize, align: usize, menu: &[usize], max_count: usize) -> Vec<usize> {
    let single = crate::optimizer::boundary::round_up(len.max(1), align).max(align);
    let mut out: Vec<usize> = menu
        .iter()
        .copied()
        .filter(|&t| t % align == 0)
        .filter(|&t| t <= single)
        .filter(|&t| len.div_ceil(t) <= max_count)
        .collect();
    // The whole-dimension tile is a first-class candidate for small dims —
    // on small matrices a single padded tile beats any tiling.
    if single <= 512 && !out.contains(&single) {
        out.push(single);
    }
    if out.is_empty() {
        out.push(single);
    }
    out
}

const M_MENU: &[usize] = &[32, 64, 128, 256];
const N_MENU: &[usize] = &[32, 64, 128, 256, 512];
const K_MENU: &[usize] = &[8, 16, 32, 64, 128, 256];
const MAX_TILES_PER_DIM: usize = 4096;

/// `MatmulOp`'s `dma` menu: broadcast and double buffering always on (no
/// optimum of the knob census, `tests/knob_census.rs`, went without
/// broadcast; where double buffering does not fit, a `dbuf` point runs the
/// program without it), coalescing free.
const MATMUL_DMA: [&str; 2] = ["dbuf+bcast", "all"];

/// Every `(A, B)` SPM layout pairing: the ladder operators' `layout` menu.
pub const LAYOUTS: [&str; 4] = ["rr", "cr", "rc", "cc"];
/// `MatmulOp`'s `layout` menu: no uncapped Listing-2 optimum has B column-major.
const MATMUL_LAYOUTS: [&str; 2] = ["rr", "cr"];

impl Operator for MatmulOp {
    fn name(&self) -> String {
        format!("matmul_{}x{}x{}", self.m, self.n, self.k)
    }

    fn space(&self) -> ScheduleSpace {
        let mut s = MatmulKnobs::space(self.m, self.n, self.k, &MATMUL_LAYOUTS, &MATMUL_DMA);
        s.choice("resident", vec!["none".into(), "b".into()]);
        s
    }

    fn lower(&self, space: &ScheduleSpace, point: &SchedulePoint) -> Option<Program> {
        let knobs = MatmulKnobs::from_point(space, point);
        // Rejected points cost no program.
        knobs.tilings(self.m, self.n, self.k, false)?;
        let mut p = Program::new(self.name());
        let a_buf = p.mem_buf("A", self.m * self.k, MemRole::Input);
        let b_buf = p.mem_buf("B", self.k * self.n, MemRole::Input);
        let c_buf = p.mem_buf("C", self.m * self.n, MemRole::Output);
        let body = lower_matmul_body(
            &mut p, &knobs, a_buf, b_buf, c_buf, self.m, self.n, self.k, self.pad_mode,
        )?;
        p.set_body(Stmt::seq(body));
        Some(p)
    }

    fn input_data(&self, _program: &Program) -> Vec<Vec<f32>> {
        vec![
            swtensor::init::random_vec(self.m * self.k, 0xA),
            swtensor::init::random_vec(self.k * self.n, 0xB),
        ]
    }

    fn reference_output(&self, inputs: &[Vec<f32>]) -> Vec<f32> {
        let mut c = vec![0.0f32; self.m * self.n];
        swtensor::gemm::gemm_rowmajor(self.m, self.n, self.k, &inputs[0], &inputs[1], &mut c);
        c
    }

    fn flops(&self) -> u64 {
        2 * (self.m as u64) * (self.n as u64) * (self.k as u64)
    }
}

/// The parsed matmul schedule knobs (shared with the explicit-GEMM
/// convolution, which tunes the same space over its im2col matrices).
#[derive(Debug, Clone, Copy)]
pub struct MatmulKnobs {
    pub t_m: usize,
    pub t_n: usize,
    pub t_k: usize,
    pub a_col: bool,
    pub b_col: bool,
    pub vec_m: bool,
    /// The DMA-wall passes the `dma` level turns on.
    pub dma: ScheduleHints,
    /// SPM-resident operand reuse, which also fixes the tile order.
    pub resident: Resident,
}

impl MatmulKnobs {
    pub fn from_point(space: &ScheduleSpace, point: &SchedulePoint) -> Self {
        let layout = point.choice(space, "layout");
        let resident = if space.has_knob("resident") && point.choice(space, "resident") == "b" {
            Resident::B
        } else {
            Resident::None
        };
        MatmulKnobs {
            t_m: point.factor(space, "t_m"),
            t_n: point.factor(space, "t_n"),
            t_k: point.factor(space, "t_k"),
            a_col: layout.as_bytes()[0] == b'c',
            b_col: layout.as_bytes()[1] == b'c',
            vec_m: point.toggle(space, "vec_m"),
            dma: dma_level(point.choice(space, "dma")),
            resident,
        }
    }

    /// The `(m, n, k)` tilings the knobs select, or `None` where
    /// [`lower_matmul_body_with_spm`] rejects the point before building
    /// anything (`shares_spm`: the caller provides the SPM tile buffers).
    fn tilings(
        &self,
        m: usize,
        n: usize,
        k: usize,
        shares_spm: bool,
    ) -> Option<(DimTiles, DimTiles, DimTiles)> {
        // Alignment of the vectorised dimension is 32 (mesh × vector width);
        // the other GEMM dims need mesh alignment only.
        let align_m = if self.vec_m { 32 } else { 8 };
        let align_n = if self.vec_m { 8 } else { 32 };
        let m_tiles = DimTiles::new(m, self.t_m, align_m);
        let n_tiles = DimTiles::new(n, self.t_n, align_n);
        let k_tiles = DimTiles::new(k, self.t_k, 8);

        // Resident reuse keeps B's whole-K run of tiles in SPM: the k
        // dimension must be a single unrollable segment and B row-major (no
        // mesh swap).
        if self.resident == Resident::B {
            let k_segs = k_tiles.segs();
            let eligible = k_segs.len() == 1
                && !k_segs[0].aux
                && k_segs[0].count <= MAX_RESIDENT_UNROLL
                && !shares_spm
                && !self.b_col;
            if !eligible {
                return None;
            }
        }

        // Prune pathological candidates: too many tile iterations.
        let iters = m_tiles.count() * n_tiles.count() * k_tiles.count();
        (iters <= 500_000).then_some((m_tiles, n_tiles, k_tiles))
    }

    /// The GEMM schedule space over the given dimensions with the given
    /// `layout` and `dma` menus: `MatmulOp` adds `resident` to it, the
    /// operators that tune it over their materialised matrices take it with
    /// [`LAYOUTS`] and [`DMA_LADDER`](crate::ops::DMA_LADDER).
    pub fn space(m: usize, n: usize, k: usize, layouts: &[&str], levels: &[&str]) -> ScheduleSpace {
        let mut s = ScheduleSpace::new();
        s.factor("t_m", tile_menu(m, 32, M_MENU, MAX_TILES_PER_DIM));
        s.factor("t_n", tile_menu(n, 32, N_MENU, MAX_TILES_PER_DIM));
        s.factor("t_k", tile_menu(k, 8, K_MENU, MAX_TILES_PER_DIM));
        s.choice("layout", layouts.iter().map(|&l| l.into()).collect());
        s.toggle("vec_m");
        s.choice("dma", levels.iter().map(|&l| l.into()).collect());
        s
    }
}

/// Lower the tiled GEMM `c_buf = a_buf · b_buf` (row-major `m×k`, `k×n`,
/// `m×n` main-memory matrices already declared in `p`) into a statement
/// list, including layout packs, boundary strips and teardown.
#[allow(clippy::too_many_arguments)]
pub fn lower_matmul_body(
    p: &mut Program,
    knobs: &MatmulKnobs,
    a_buf: swatop_ir::MemBufId,
    b_buf: swatop_ir::MemBufId,
    c_buf: swatop_ir::MemBufId,
    m: usize,
    n: usize,
    k: usize,
    pad_mode: PadMode,
) -> Option<Vec<Stmt>> {
    lower_matmul_body_with_spm(p, knobs, a_buf, b_buf, c_buf, m, n, k, 1, pad_mode, None)
}

/// Like [`lower_matmul_body`] over `batch` independent GEMMs stacked by rows
/// (`a_buf` is `(batch·m)×k`, `b_buf` `(batch·k)×n`, `c_buf` `(batch·m)×n`,
/// element `i` row block `i` of each), read and written in place, and
/// reusing caller-provided SPM tile buffers (`[a, b, c]`) if given — several
/// GEMMs in one program (e.g. xMath's Winograd calls) share the scratch pad
/// instead of multiplying it.
#[allow(clippy::too_many_arguments)]
pub fn lower_matmul_body_with_spm(
    p: &mut Program,
    knobs: &MatmulKnobs,
    a_buf: swatop_ir::MemBufId,
    b_buf: swatop_ir::MemBufId,
    c_buf: swatop_ir::MemBufId,
    m: usize,
    n: usize,
    k: usize,
    batch: usize,
    pad_mode: PadMode,
    spm_reuse: Option<[swatop_ir::SpmBufId; 3]>,
) -> Option<Vec<Stmt>> {
    let &MatmulKnobs { t_m, t_n, t_k, a_col, b_col, vec_m, dma, resident } = knobs;
    let (m_tiles, n_tiles, k_tiles) = knobs.tilings(m, n, k, spm_reuse.is_some())?;
    p.hints = dma;

    let mut setup: Vec<Stmt> = Vec::new();

    // Layout transformation: one pack transposes every element's block in
    // main memory.
    let mut transposed = |p: &mut Program, name: &'static str, src, rows: usize, cols: usize| {
        let dst = p.mem_buf(name, batch * rows * cols, MemRole::Temp);
        let (src_dims, perm) = match batch {
            1 => (vec![rows, cols], vec![1, 0]),
            _ => (vec![batch, rows, cols], vec![0, 2, 1]),
        };
        setup.push(Stmt::transform(TransformKind::PackTensor { src, dst, src_dims, perm }));
        dst
    };
    let (a_src, a_r, a_c, a_swap) = if a_col {
        (transposed(p, "A_t", a_buf, m, k), k_tiles, m_tiles, true)
    } else {
        (a_buf, m_tiles, k_tiles, false)
    };
    let (b_src, b_r, b_c, b_swap) = if b_col {
        (transposed(p, "B_t", b_buf, k, n), n_tiles, k_tiles, true)
    } else {
        (b_buf, k_tiles, n_tiles, false)
    };

    // Element `i`'s families address its row block; every element tiles
    // alike, so the first one's tilings shape all the nests.
    let mut families = |p: &mut Program, i: usize| {
        let (a_fam, a_setup) =
            SrcFamily::input(p, "A", a_src, i * a_r.len, a_r, a_c, a_swap, pad_mode);
        let (b_fam, b_setup) =
            SrcFamily::input(p, "B", b_src, i * b_r.len, b_r, b_c, b_swap, pad_mode);
        let (c_fam, c_setup, c_teardown) =
            SrcFamily::output(p, "C", c_buf, i * m, m_tiles, n_tiles, pad_mode);
        setup.extend(a_setup);
        setup.extend(b_setup);
        setup.extend(c_setup);
        (a_fam, b_fam, c_fam, c_teardown)
    };
    let (a_fam, b_fam, c_fam, c_teardown) = families(p, 0);

    // SPM buffers sized for the largest tile (shared when provided).
    let [spm_a, spm_b, spm_c] = spm_reuse.unwrap_or_else(|| {
        [
            p.spm_buf("spm_a", (t_m / 8) * (t_k / 8)),
            p.spm_buf("spm_b", (t_k / 8) * (t_n / 8)),
            p.spm_buf("spm_c", (t_m / 8) * (t_n / 8)),
        ]
    });
    let r_in = p.fresh_reply();
    let r_cput = p.fresh_reply();

    let vd = if vec_m { VecDim::M } else { VecDim::N };
    let mut nests: Vec<Stmt> = Vec::new();

    // One loop nest per segment combination — boundary processing by
    // parameter switching, not per-iteration guards.
    // Segment lists of the *logical* m/n/k dims come from the families'
    // materialised tilings (traditional padding changes them).
    let m_segs = c_fam.r.segs();
    let n_segs = c_fam.c.segs();
    let k_segs = if a_swap { a_fam.r.segs() } else { a_fam.c.segs() };
    // Only a later k segment reads the accumulator back.
    let r_cget = (k_segs.len() > 1).then(|| p.fresh_reply());

    // Resident reuse: one SPM slot per k step of B, all filled once per
    // n tile. Every slot carries a *normal* streamed tile (same mesh
    // distribution the GEMM primitive expects), so residency changes only
    // when tiles are fetched, never how they are laid out.
    let panel_slots: Vec<swatop_ir::SpmBufId> = if resident == Resident::None {
        Vec::new()
    } else {
        // Re-check unrollability against the *materialised* k tiling
        // (traditional padding can change the segment list).
        if k_segs.len() != 1 || k_segs[0].aux || k_segs[0].count > MAX_RESIDENT_UNROLL {
            return None;
        }
        let per = (t_k / 8) * (t_n / 8);
        (0..k_segs[0].count).map(|ki| p.spm_buf(format!("spm_panel{ki}"), per)).collect()
    };

    let mut first = Some((a_fam, b_fam, c_fam, c_teardown));
    for i in 0..batch {
        let (a_fam, b_fam, c_fam, c_teardown) = first.take().unwrap_or_else(|| families(p, i));
        for sm in &m_segs {
            for sn in &n_segs {
                for (ki_seg, sk) in k_segs.iter().enumerate() {
                    // The first k segment starts every tile it visits: its
                    // first step overwrites C, and no accumulator get runs.
                    let starts = ki_seg == 0;
                    let vm = p.fresh_var("vm");
                    let vn = p.fresh_var("vn");
                    let vk = p.fresh_var("vk");

                    let (a_sr, a_sc, a_vr, a_vc) = if a_swap {
                        (sk, sm, vk, vm)
                    } else {
                        (sm, sk, vm, vk)
                    };
                    let (b_sr, b_sc, b_vr, b_vc) = if b_swap {
                        (sn, sk, vn, vk)
                    } else {
                        (sk, sn, vk, vn)
                    };

                    let a_get = Stmt::DmaCg(a_fam.tile_dma(
                        a_sr, a_sc, Some(a_vr), Some(a_vc),
                        MemToSpm, SpmSlot::Single(spm_a), r_in,
                    ));
                    let b_get = Stmt::DmaCg(b_fam.tile_dma(
                        b_sr, b_sc, Some(b_vr), Some(b_vc),
                        MemToSpm, SpmSlot::Single(spm_b), r_in,
                    ));
                    let (m_cur, n_cur, k_cur) = (sm.size, sn.size, sk.size);
                    let gemm = Stmt::gemm(GemmOp {
                        m: m_cur,
                        n: n_cur,
                        k: k_cur,
                        alpha: 1.0,
                        beta: 1.0,
                        a: MatDesc::new(
                            SpmSlot::Single(spm_a),
                            if a_col { MatLayout::ColMajor } else { MatLayout::RowMajor },
                            if a_col { m_cur / 8 } else { k_cur / 8 },
                        ),
                        b: MatDesc::new(
                            SpmSlot::Single(spm_b),
                            if b_col { MatLayout::ColMajor } else { MatLayout::RowMajor },
                            if b_col { k_cur / 8 } else { n_cur / 8 },
                        ),
                        c: MatDesc::new(SpmSlot::Single(spm_c), MatLayout::RowMajor, n_cur / 8),
                        vd,
                        k_step: starts.then(|| AffineExpr::loop_var(vk)),
                    });

                    // A later k segment accumulates onto what the earlier
                    // ones wrote.
                    let c_get = r_cget.filter(|_| !starts).map(|r_cget| {
                        [
                            Stmt::DmaCg(c_fam.tile_dma(
                                sm, sn, Some(vm), Some(vn),
                                MemToSpm, SpmSlot::Single(spm_c), r_cget,
                            )),
                            Stmt::DmaWait { reply: r_cget, times: 1 },
                        ]
                    });
                    let c_put = Stmt::DmaCg(c_fam.tile_dma(
                        sm, sn, Some(vm), Some(vn),
                        SpmToMem, SpmSlot::Single(spm_c), r_cput,
                    ));

                    let nest = if resident == Resident::None {
                        let k_loop = Stmt::for_(
                            vk,
                            sk.count,
                            Stmt::seq(vec![
                                a_get,
                                b_get,
                                Stmt::DmaWait { reply: r_in, times: 2 },
                                gemm,
                            ]),
                        );
                        let mut tile_body: Vec<Stmt> = c_get.into_iter().flatten().collect();
                        tile_body.extend([
                            k_loop,
                            c_put,
                            Stmt::DmaWait { reply: r_cput, times: 1 },
                        ]);
                        let tile_body = Stmt::seq(tile_body);
                        Stmt::for_(vm, sm.count, Stmt::for_(vn, sn.count, tile_body))
                    } else {
                        // Resident reuse: fetch every k-step tile of B once
                        // per n tile, each into its own SPM slot; the
                        // unrolled k steps stream only A and point their
                        // GEMM at the step's resident slot.
                        let k_at = |ki: usize| AffineExpr::konst(ki as i64);
                        // Per k step: the resident get; then the wait and
                        // the inner loop.
                        let mut outer_steps: Vec<Stmt> = Vec::with_capacity(sk.count + 2);
                        for (ki, &slot) in panel_slots.iter().enumerate().take(sk.count) {
                            let mut g = b_fam.tile_dma(
                                b_sr, b_sc, Some(b_vr), Some(b_vc),
                                MemToSpm, SpmSlot::Single(slot), r_in,
                            );
                            g.offset = g.offset.subst(vk, &k_at(ki));
                            outer_steps.push(Stmt::DmaCg(g));
                        }
                        outer_steps.push(Stmt::DmaWait { reply: r_in, times: sk.count });
                        // A get, wait and GEMM per k step (the first
                        // overwrites C: k is one segment), the put and its
                        // wait.
                        let mut steps: Vec<Stmt> = Vec::with_capacity(3 * sk.count + 2);
                        for (ki, &slot) in panel_slots.iter().enumerate().take(sk.count) {
                            let mut ag = a_fam.tile_dma(
                                a_sr, a_sc, Some(a_vr), Some(a_vc),
                                MemToSpm, SpmSlot::Single(spm_a), r_in,
                            );
                            ag.offset = ag.offset.subst(vk, &k_at(ki));
                            steps.push(Stmt::DmaCg(ag));
                            steps.push(Stmt::DmaWait { reply: r_in, times: 1 });
                            steps.push(Stmt::gemm(GemmOp {
                                m: m_cur,
                                n: n_cur,
                                k: k_cur,
                                alpha: 1.0,
                                beta: if ki == 0 { 0.0 } else { 1.0 },
                                a: MatDesc::new(
                                    SpmSlot::Single(spm_a),
                                    if a_col { MatLayout::ColMajor } else { MatLayout::RowMajor },
                                    if a_col { m_cur / 8 } else { k_cur / 8 },
                                ),
                                b: MatDesc::new(SpmSlot::Single(slot), MatLayout::RowMajor, n_cur / 8),
                                c: MatDesc::new(
                                    SpmSlot::Single(spm_c),
                                    MatLayout::RowMajor,
                                    n_cur / 8,
                                ),
                                vd,
                                k_step: None,
                            }));
                        }
                        steps.push(c_put);
                        steps.push(Stmt::DmaWait { reply: r_cput, times: 1 });
                        // Panel B(all k tiles, sn), invariant over vm.
                        outer_steps.push(Stmt::for_(vm, sm.count, Stmt::seq(steps)));
                        Stmt::for_(vn, sn.count, Stmt::seq(outer_steps))
                    };
                    nests.push(nest);
                }
            }
        }
        nests.extend(c_teardown);
    }

    let mut body = setup;
    body.extend(nests);
    Some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::verify_candidate;
    use crate::scheduler::Scheduler;
    use sw26010::MachineConfig;

    fn verify_point(op: &MatmulOp, pick: impl Fn(&ScheduleSpace, &SchedulePoint) -> bool) {
        verify_in(op, op.space(), pick);
    }

    /// `op`'s space with the layout menu of the ladder operators, which
    /// lower through the same body.
    fn every_layout(op: &MatmulOp) -> ScheduleSpace {
        MatmulKnobs::space(op.m, op.n, op.k, &LAYOUTS, &MATMUL_DMA)
    }

    fn verify_in(
        op: &MatmulOp,
        space: ScheduleSpace,
        pick: impl Fn(&ScheduleSpace, &SchedulePoint) -> bool,
    ) {
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let mut checked = 0;
        for point in space.points() {
            if !pick(&space, &point) {
                continue;
            }
            let Some(cand) = sched.lower_point(op, &space, &point) else {
                continue;
            };
            let err = verify_candidate(&cfg, op, &cand)
                .unwrap_or_else(|e| panic!("{}: {e}", point.describe(&space)));
            assert!(
                err < 1e-3,
                "{}: max err {err}",
                point.describe(&space)
            );
            checked += 1;
            if checked >= 6 {
                break;
            }
        }
        assert!(checked > 0, "no candidate matched the filter");
    }

    #[test]
    fn aligned_matmul_all_layouts_correct() {
        let op = MatmulOp::new(64, 64, 64);
        for layout in LAYOUTS {
            verify_in(&op, every_layout(&op), |s, p| {
                p.choice(s, "layout") == layout
                    && p.factor(s, "t_m") == 32
                    && p.factor(s, "t_n") == 32
                    && p.factor(s, "t_k") == 16
            });
        }
    }

    #[test]
    fn both_vector_dims_correct() {
        let op = MatmulOp::new(64, 96, 32);
        verify_point(&op, |s, p| p.toggle(s, "vec_m"));
        verify_point(&op, |s, p| !p.toggle(s, "vec_m"));
    }

    #[test]
    fn parameter_switching_tail_correct() {
        // 96 = 64 + 32: aligned tail → switching, no padding buffers.
        let op = MatmulOp::new(96, 96, 24);
        verify_point(&op, |s, p| {
            p.factor(s, "t_m") == 64
                && p.factor(s, "t_n") == 64
                && p.factor(s, "t_k") == 16
                && p.choice(s, "layout") == "rr"
        });
    }

    #[test]
    fn lightweight_padding_tail_correct() {
        // 100 % 64 = 36 (aligned to 4 but not 32): aux strips needed for M
        // under vec_m; 50 % 16 = 2 for K.
        let op = MatmulOp::new(100, 64, 50);
        verify_point(&op, |s, p| {
            p.factor(s, "t_m") == 64 && p.factor(s, "t_k") == 16 && p.toggle(s, "vec_m")
        });
    }

    #[test]
    fn traditional_padding_tail_correct() {
        let op = MatmulOp::new(100, 72, 50).with_pad_mode(PadMode::Traditional);
        verify_point(&op, |s, p| {
            p.factor(s, "t_m") == 64 && p.factor(s, "t_n") == 32 && p.factor(s, "t_k") == 16
        });
    }

    #[test]
    fn packed_layout_with_boundary_correct() {
        let op = MatmulOp::new(72, 40, 24);
        verify_in(&op, every_layout(&op), |s, p| {
            p.choice(s, "layout") == "cc" && p.factor(s, "t_m") == 32
        });
    }

    #[test]
    fn resident_panel_correct() {
        let op = MatmulOp::new(64, 128, 32);
        verify_point(&op, |s, p| p.choice(s, "resident") == "b");
    }

    /// Whether `cand`'s program reads any tile of C back into the SPM.
    fn reads_c_back(cand: &crate::scheduler::Candidate) -> bool {
        let p = &cand.exe.program;
        let mut reads = false;
        p.body.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                reads |= d.direction == MemToSpm && p.mem_bufs[d.buf.0].name.starts_with('C');
            }
        });
        reads
    }

    #[test]
    fn every_tile_overwrites_the_output_it_starts() {
        // The body computes C = A·B whatever C held: every `dma` level, with
        // and without the resident panel, and with k in two segments (a
        // padded tail), the second of which reads back what the first wrote.
        let cfg = MachineConfig::default();
        let sched = Scheduler::new(cfg.clone());
        let cases = [(MatmulOp::new(64, 128, 32), false), (MatmulOp::new(100, 64, 50), true)];
        for (op, two_k_segments) in cases {
            let space = op.space();
            for level in MATMUL_DMA {
                for resident in ["none", "b"] {
                    let cand = space
                        .points()
                        .filter(|p| {
                            p.choice(&space, "dma") == level
                                && p.choice(&space, "resident") == resident
                                && (!two_k_segments || p.factor(&space, "t_k") == 16)
                        })
                        .find_map(|p| sched.lower_point(&op, &space, &p));
                    let Some(cand) = cand else {
                        // The resident panel needs k in one segment.
                        assert!(two_k_segments && resident == "b", "{level} {resident}");
                        continue;
                    };
                    let what = format!("{} {}", op.name(), cand.describe);
                    assert_eq!(reads_c_back(&cand), two_k_segments, "{what}");
                    let err = crate::ops::verify_over_stale_memory(&cfg, &op, &cand)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(err < 1e-3, "{what}: max err {err}");
                }
            }
        }
    }

    #[test]
    fn tile_menu_prunes_and_falls_back() {
        // Huge dim: small tiles pruned by the count bound.
        let menu = tile_menu(8000, 32, M_MENU, 40);
        assert!(menu.iter().all(|&t| 8000usize.div_ceil(t) <= 40));
        assert!(!menu.is_empty());
        // Tiny dim: falls back to one padded tile.
        let menu = tile_menu(20, 32, M_MENU, 40);
        assert_eq!(menu, vec![32]);
    }

    #[test]
    fn space_has_all_knobs() {
        let op = MatmulOp::new(256, 256, 256);
        let space = op.space();
        assert!(space.size() >= 4 * 2 * 2, "space size {}", space.size());
        let p = space.point(0);
        let _ = p.factor(&space, "t_m");
        let _ = p.choice(&space, "layout");
        let _ = p.toggle(&space, "vec_m");
    }
}
