//! Shared tiling and boundary-processing machinery (paper Sec. 4.5.3).
//!
//! A GEMM dimension of length `len` tiled by `tile` decomposes into `full`
//! whole tiles plus a tail. Three cases per the paper:
//!
//! * no tail — nothing to do;
//! * tail still satisfies the kernel alignment — **parameter switching**:
//!   the generated code calls the primitive with the smaller size at the
//!   boundary, reading directly from the source tensor;
//! * tail misaligned — **zero padding**: either *traditional* (copy the
//!   whole matrix into a freshly padded buffer) or *lightweight* (copy only
//!   the boundary strips into small auxiliary buffers and switch the DMA
//!   source at the boundary, "reducing the copy overhead").
//!
//! [`SrcFamily`] encapsulates a (possibly packed/transposed) matrix source
//! together with its strips and produces the per-tile `DMA_CG` nodes; the
//! operator lowerings emit one loop nest per segment combination, so no
//! per-iteration guards are needed in the hot loop.

use sw26010::DmaDirection;
use swatop_ir::{
    AVar, AffineExpr, DmaCg, MemBufId, MemRole, Program, ReplyId, SpmSlot, Stmt, TransformKind,
    VarId,
};

use crate::optimizer::boundary::round_up;

/// Tiling of one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimTiles {
    pub len: usize,
    pub tile: usize,
    pub align: usize,
    /// Whole tiles.
    pub full: usize,
    /// True tail length (`len % tile`).
    pub tail: usize,
    /// Kernel size of the tail tile (tail rounded up to `align`; 0 if no
    /// tail).
    pub tail_size: usize,
    /// Whether the tail needs zero padding (misaligned tail).
    pub tail_aux: bool,
}

impl DimTiles {
    pub fn new(len: usize, tile: usize, align: usize) -> Self {
        assert!(tile > 0 && align > 0 && tile.is_multiple_of(align), "tile must be aligned");
        let full = len / tile;
        let tail = len % tile;
        let tail_aux = tail > 0 && !tail.is_multiple_of(align);
        let tail_size = if tail > 0 { round_up(tail, align) } else { 0 };
        DimTiles { len, tile, align, full, tail, tail_size, tail_aux }
    }

    /// Length after padding the tail to its kernel size.
    pub fn padded_len(&self) -> usize {
        self.full * self.tile + self.tail_size
    }

    /// Number of tiles (segments' total count).
    pub fn count(&self) -> usize {
        self.full + (self.tail > 0) as usize
    }

    /// The segments of this dimension (full run, then optional tail).
    pub fn segs(&self) -> Vec<Seg> {
        let mut v = Vec::with_capacity(2);
        if self.full > 0 {
            v.push(Seg { count: self.full, size: self.tile, start: 0, stride: self.tile, aux: false });
        }
        if self.tail > 0 {
            v.push(Seg {
                count: 1,
                size: self.tail_size,
                start: self.full * self.tile,
                stride: self.tile,
                aux: self.tail_aux,
            });
        }
        v
    }

    /// A copy with the tail marked directly readable (used after
    /// traditional whole-matrix padding: the padded buffer holds real
    /// zeros, so no aux strip is needed).
    fn materialised(&self) -> DimTiles {
        DimTiles { len: self.padded_len(), tail: self.tail_size, tail_aux: false, ..*self }
    }
}

/// One run of equally-sized tiles along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seg {
    /// Loop trip count.
    pub count: usize,
    /// Kernel size of each tile in this segment.
    pub size: usize,
    /// Element offset of the segment start in the stored buffer.
    pub start: usize,
    /// Distance between consecutive tiles.
    pub stride: usize,
    /// Tiles of this segment read/write an auxiliary padded strip.
    pub aux: bool,
}

/// A tiled matrix source/destination with boundary strips. Coordinates are
/// those of the *stored* row-major buffer (for a packed `Xᵀ` operand the
/// stored rows are the logical columns; `mesh_swap` keeps the GEMM block
/// distribution right). The matrix may be one row block of a taller stored
/// buffer (a batch element of a stacked operand): `row0` is where it starts.
#[derive(Debug, Clone)]
pub struct SrcFamily {
    pub main: MemBufId,
    /// Row pitch of `main` in elements.
    pub main_cols: usize,
    /// First row of the matrix in `main`.
    pub row0: usize,
    /// Row-tail strip `(r.tail_size × c.padded_len)`, holding the bottom
    /// boundary (and the corner).
    pub bottom: Option<MemBufId>,
    /// Column-tail strip `(direct_rows × c.tail_size)` for interior rows.
    pub right: Option<MemBufId>,
    pub r: DimTiles,
    pub c: DimTiles,
    pub mesh_swap: bool,
}

/// Padding strategy for misaligned tails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadMode {
    /// Copy only the boundary strips (swATOP's scheme).
    Lightweight,
    /// Copy the whole matrix into a padded buffer.
    Traditional,
}

impl SrcFamily {
    /// Build an *input* family over rows `row0..row0 + r.len` of `src`
    /// (stored row-major, `c.len` columns), returning the family plus the
    /// setup transforms that materialise padded copies. `src` must already
    /// be the packed form if `mesh_swap` layouts are used.
    #[allow(clippy::too_many_arguments)]
    pub fn input(
        p: &mut Program,
        name: &str,
        src: MemBufId,
        row0: usize,
        r: DimTiles,
        c: DimTiles,
        mesh_swap: bool,
        mode: PadMode,
    ) -> (SrcFamily, Vec<Stmt>) {
        let src_rows = p.mem_bufs[src.0].len / c.len;
        let mut setup = Vec::new();
        if (r.tail_aux || c.tail_aux) && mode == PadMode::Traditional {
            let padded =
                p.mem_buf(format!("{name}_padded"), r.padded_len() * c.padded_len(), MemRole::Temp);
            setup.push(Stmt::transform(TransformKind::PadSubmatrix {
                src,
                src_rows,
                src_cols: c.len,
                r0: row0,
                c0: 0,
                take_rows: r.len,
                take_cols: c.len,
                dst: padded,
                dst_rows: r.padded_len(),
                dst_cols: c.padded_len(),
                zero_first: true,
            }));
            let fam = SrcFamily {
                main: padded,
                main_cols: c.padded_len(),
                row0: 0,
                bottom: None,
                right: None,
                r: r.materialised(),
                c: c.materialised(),
                mesh_swap,
            };
            return (fam, setup);
        }
        let mut bottom = None;
        if r.tail_aux {
            let strip =
                p.mem_buf(format!("{name}_bottom"), r.tail_size * c.padded_len(), MemRole::Temp);
            setup.push(Stmt::transform(TransformKind::PadSubmatrix {
                src,
                src_rows,
                src_cols: c.len,
                r0: row0 + r.full * r.tile,
                c0: 0,
                take_rows: r.tail,
                take_cols: c.len,
                dst: strip,
                dst_rows: r.tail_size,
                dst_cols: c.padded_len(),
                zero_first: true,
            }));
            bottom = Some(strip);
        }
        let mut right = None;
        if c.tail_aux {
            let direct_rows = Self::direct_rows(&r);
            if direct_rows > 0 {
                let strip =
                    p.mem_buf(format!("{name}_right"), direct_rows * c.tail_size, MemRole::Temp);
                setup.push(Stmt::transform(TransformKind::PadSubmatrix {
                    src,
                    src_rows,
                    src_cols: c.len,
                    r0: row0,
                    c0: c.full * c.tile,
                    take_rows: direct_rows,
                    take_cols: c.tail,
                    dst: strip,
                    dst_rows: direct_rows,
                    dst_cols: c.tail_size,
                    zero_first: true,
                }));
                right = Some(strip);
            }
        }
        (SrcFamily { main: src, main_cols: c.len, row0, bottom, right, r, c, mesh_swap }, setup)
    }

    /// Build an *output* family over rows `row0..row0 + r.len` of `dst`:
    /// tiles are written through the family and the returned teardown
    /// transforms copy strip contents back into `dst` (un-padding).
    pub fn output(
        p: &mut Program,
        name: &str,
        dst: MemBufId,
        row0: usize,
        r: DimTiles,
        c: DimTiles,
        mode: PadMode,
    ) -> (SrcFamily, Vec<Stmt>, Vec<Stmt>) {
        let dst_rows = p.mem_bufs[dst.0].len / c.len;
        let mut teardown = Vec::new();
        if (r.tail_aux || c.tail_aux) && mode == PadMode::Traditional {
            let padded =
                p.mem_buf(format!("{name}_padded"), r.padded_len() * c.padded_len(), MemRole::Temp);
            teardown.push(Stmt::transform(TransformKind::UnpadSubmatrix {
                src: padded,
                src_rows: r.padded_len(),
                src_cols: c.padded_len(),
                dst,
                dst_rows,
                dst_cols: c.len,
                r0: row0,
                c0: 0,
                take_rows: r.len,
                take_cols: c.len,
            }));
            let fam = SrcFamily {
                main: padded,
                main_cols: c.padded_len(),
                row0: 0,
                bottom: None,
                right: None,
                r: r.materialised(),
                c: c.materialised(),
                mesh_swap: false,
            };
            return (fam, Vec::new(), teardown);
        }
        let mut bottom = None;
        if r.tail_aux {
            let strip =
                p.mem_buf(format!("{name}_bottom"), r.tail_size * c.padded_len(), MemRole::Temp);
            teardown.push(Stmt::transform(TransformKind::UnpadSubmatrix {
                src: strip,
                src_rows: r.tail_size,
                src_cols: c.padded_len(),
                dst,
                dst_rows,
                dst_cols: c.len,
                r0: row0 + r.full * r.tile,
                c0: 0,
                take_rows: r.tail,
                take_cols: c.len,
            }));
            bottom = Some(strip);
        }
        let mut right = None;
        if c.tail_aux {
            let direct_rows = Self::direct_rows(&r);
            if direct_rows > 0 {
                let strip =
                    p.mem_buf(format!("{name}_right"), direct_rows * c.tail_size, MemRole::Temp);
                teardown.push(Stmt::transform(TransformKind::UnpadSubmatrix {
                    src: strip,
                    src_rows: direct_rows,
                    src_cols: c.tail_size,
                    dst,
                    dst_rows,
                    dst_cols: c.len,
                    r0: row0,
                    c0: c.full * c.tile,
                    take_rows: direct_rows,
                    take_cols: c.tail,
                }));
                right = Some(strip);
            }
        }
        let fam =
            SrcFamily { main: dst, main_cols: c.len, row0, bottom, right, r, c, mesh_swap: false };
        (fam, Vec::new(), teardown)
    }

    /// Rows directly readable from the stored buffer (everything except an
    /// aux row tail).
    fn direct_rows(r: &DimTiles) -> usize {
        r.full * r.tile + if r.tail_aux { 0 } else { r.tail }
    }

    /// The `DMA_CG` node transferring tile (`seg_r[var_r]`, `seg_c[var_c]`).
    /// `var_*` are the segment loop variables (absent for count-1 tails).
    #[allow(clippy::too_many_arguments)]
    pub fn tile_dma(
        &self,
        seg_r: &Seg,
        seg_c: &Seg,
        var_r: Option<VarId>,
        var_c: Option<VarId>,
        direction: DmaDirection,
        spm: SpmSlot,
        reply: ReplyId,
    ) -> DmaCg {
        let (buf, width, row0, col0) = if seg_r.aux {
            // Bottom strip: rows re-based to 0, columns keep padded coords.
            (self.bottom.expect("bottom strip exists"), self.c.padded_len(), 0, seg_c.start)
        } else if seg_c.aux {
            // Right strip: columns re-based to 0, rows keep coords.
            (self.right.expect("right strip exists"), self.c.tail_size, seg_r.start, 0)
        } else {
            (self.main, self.main_cols, self.row0 + seg_r.start, seg_c.start)
        };
        let terms = [(var_r, seg_r.stride * width), (var_c, seg_c.stride)];
        let offset = AffineExpr::from_terms(
            terms.into_iter().filter_map(|(v, k)| Some((AVar::Loop(v?), k as i64))),
            (row0 * width + col0) as i64,
        );
        DmaCg {
            buf,
            offset,
            rows: seg_r.size,
            cols: seg_c.size,
            row_stride: width,
            mesh_swap: self.mesh_swap,
            direction,
            spm,
            reply,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_tiles_cases() {
        // Exact fit.
        let d = DimTiles::new(256, 64, 32);
        assert_eq!((d.full, d.tail, d.tail_size, d.tail_aux), (4, 0, 0, false));
        assert_eq!(d.count(), 4);
        assert_eq!(d.segs().len(), 1);
        // Aligned tail → parameter switching.
        let d = DimTiles::new(96, 64, 32);
        assert_eq!((d.full, d.tail, d.tail_size, d.tail_aux), (1, 32, 32, false));
        assert_eq!(d.segs().len(), 2);
        assert!(!d.segs()[1].aux);
        // Misaligned tail → padding.
        let d = DimTiles::new(200, 64, 32);
        assert_eq!((d.full, d.tail, d.tail_size, d.tail_aux), (3, 8, 32, true));
        assert_eq!(d.padded_len(), 224);
        assert!(d.segs()[1].aux);
        // Tiny dimension: tail only.
        let d = DimTiles::new(20, 64, 32);
        assert_eq!((d.full, d.tail, d.tail_size), (0, 20, 32));
        assert_eq!(d.segs().len(), 1);
        assert!(d.segs()[0].aux);
    }

    #[test]
    fn lightweight_family_builds_strips() {
        let mut p = Program::new("t");
        let src = p.mem_buf("A", 200 * 100, MemRole::Input);
        let r = DimTiles::new(200, 64, 32);
        let c = DimTiles::new(100, 32, 8);
        // c tail = 4, misaligned vs 8 → right strip; r tail = 8 vs 32 → bottom.
        let (fam, setup) = SrcFamily::input(&mut p, "A", src, 0, r, c, false, PadMode::Lightweight);
        assert!(fam.bottom.is_some());
        assert!(fam.right.is_some());
        assert_eq!(setup.len(), 2);
        // Strip sizes.
        let bottom_len = p.mem_bufs[fam.bottom.unwrap().0].len;
        assert_eq!(bottom_len, 32 * c.padded_len());
        let right_len = p.mem_bufs[fam.right.unwrap().0].len;
        assert_eq!(right_len, 192 * 8);
    }

    #[test]
    fn traditional_family_pads_whole_matrix() {
        let mut p = Program::new("t");
        let src = p.mem_buf("A", 200 * 100, MemRole::Input);
        let r = DimTiles::new(200, 64, 32);
        let c = DimTiles::new(100, 32, 8);
        let (fam, setup) = SrcFamily::input(&mut p, "A", src, 0, r, c, false, PadMode::Traditional);
        assert!(fam.bottom.is_none() && fam.right.is_none());
        assert_eq!(setup.len(), 1);
        assert_ne!(fam.main, src);
        assert_eq!(p.mem_bufs[fam.main.0].len, 224 * 104);
        // After materialisation the tails read directly.
        assert!(!fam.r.tail_aux && !fam.c.tail_aux);
        assert_eq!(fam.r.tail, 32);
    }

    #[test]
    fn aligned_family_needs_nothing() {
        let mut p = Program::new("t");
        let src = p.mem_buf("A", 256 * 128, MemRole::Input);
        let r = DimTiles::new(256, 64, 32);
        let c = DimTiles::new(128, 32, 8);
        let (fam, setup) = SrcFamily::input(&mut p, "A", src, 0, r, c, false, PadMode::Lightweight);
        assert!(setup.is_empty());
        assert_eq!(fam.main, src);
        assert!(fam.bottom.is_none() && fam.right.is_none());
    }

    #[test]
    fn tile_dma_offsets() {
        let mut p = Program::new("t");
        let src = p.mem_buf("A", 256 * 128, MemRole::Input);
        let r = DimTiles::new(256, 64, 32);
        let c = DimTiles::new(128, 32, 8);
        let (fam, _) = SrcFamily::input(&mut p, "A", src, 0, r, c, false, PadMode::Lightweight);
        let reply = p.fresh_reply();
        let sr = &r.segs()[0];
        let sc = &c.segs()[0];
        let spm = SpmSlot::Single(p.spm_buf("s", 64 * 32 / 64));
        let d = fam.tile_dma(sr, sc, Some(0), Some(1), DmaDirection::MemToSpm, spm, reply);
        // offset = v0 * 64*128 + v1 * 32.
        assert_eq!(d.offset.coeff(swatop_ir::AVar::Loop(0)), 64 * 128);
        assert_eq!(d.offset.coeff(swatop_ir::AVar::Loop(1)), 32);
        assert_eq!((d.rows, d.cols, d.row_stride), (64, 32, 128));
    }
}
