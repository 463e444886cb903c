//! DMA inference (paper Sec. 4.5.1).
//!
//! Users never write per-CPE DMA in the DSL; lowering produces core-group
//! level nodes (`DMA_CG(addr, totalsize, direction)`) and this pass derives
//! the per-CPE node
//!
//! ```text
//! DMA_CPE(source, destination, direction, offset, block, stride, size)
//! ```
//!
//! For a `rows × cols` tile distributed 8×8 across the mesh, CPE
//! `(rid, cid)` receives the `(rid, cid)` block: `rows/8` blocks of
//! `cols/8` elements, `row_stride` apart, at
//! `offset + rid·(rows/8)·row_stride + cid·(cols/8)` — the exact derivation
//! of the paper's Fig. 4 (right), generalised from its column-major example
//! to any leading stride.
//!
//! The pass also hoists transfers "as far as possible from gemm_op": a
//! DMA + wait pair whose address does not depend on the surrounding loop
//! variable moves out of that loop.

use sw26010::{DmaDirection, MESH};
use swatop_ir::{AVar, AffineExpr, DmaCg, DmaCpe, Stmt};

/// Lower every `DMA_CG` node in the tree to a `DMA_CPE` node, in place.
pub fn lower_dma(stmt: &mut Stmt) {
    match stmt {
        Stmt::Seq(ss) => ss.iter_mut().for_each(lower_dma),
        Stmt::For { body, .. } => lower_dma(body),
        Stmt::If { then_, else_, .. } => {
            lower_dma(then_);
            if let Some(e) = else_ {
                lower_dma(e);
            }
        }
        Stmt::DmaCg(d) => *stmt = Stmt::DmaCpe(lower_node(d)),
        _ => {}
    }
}

/// Derive the per-CPE node from a CG-level tile access.
pub fn lower_node(d: &DmaCg) -> DmaCpe {
    assert_eq!(d.rows % MESH, 0, "DMA_CG rows {} not divisible by mesh", d.rows);
    assert_eq!(d.cols % MESH, 0, "DMA_CG cols {} not divisible by mesh", d.cols);
    let block_rows = d.rows / MESH;
    let block_cols = d.cols / MESH;
    let (row_mesh, col_mesh) = if d.mesh_swap {
        (AVar::Cid, AVar::Rid)
    } else {
        (AVar::Rid, AVar::Cid)
    };
    let mesh = [(row_mesh, (block_rows * d.row_stride) as i64), (col_mesh, block_cols as i64)];
    let offset = AffineExpr::from_terms(
        d.offset.terms().iter().copied().chain(mesh),
        d.offset.constant(),
    );
    let (block, stride, n_blocks) = if d.row_stride == block_cols {
        // Per-CPE blocks are contiguous in memory: merge into one transfer
        // (the continuous DMA mode).
        (block_cols * block_rows, block_cols * block_rows, 1)
    } else {
        (block_cols, d.row_stride, block_rows)
    };
    DmaCpe {
        buf: d.buf,
        offset,
        block,
        stride,
        n_blocks,
        direction: d.direction,
        spm: d.spm.clone(),
        reply: d.reply,
        bcast: None,
        fused: false,
    }
}

/// Hoist loop-invariant `get` transfers out of loops, in place.
///
/// Pattern: `for v { [DmaCpe(get) g; DmaWait w;] rest… }` where `g`'s
/// offset (and slot selector) do not depend on `v` — the pair moves in
/// front of the loop. Applied bottom-up until fixpoint within each node.
/// Every `Seq` of the result is normalised as by [`Stmt::seq`].
pub fn hoist_invariant_dma(stmt: &mut Stmt) {
    match stmt {
        Stmt::Seq(ss) => {
            ss.iter_mut().for_each(hoist_invariant_dma);
            *stmt = Stmt::seq(std::mem::take(ss));
        }
        Stmt::If { then_, else_, .. } => {
            hoist_invariant_dma(then_);
            if let Some(e) = else_ {
                hoist_invariant_dma(e);
            }
        }
        Stmt::For { var, body, .. } => {
            hoist_invariant_dma(body);
            // A leading run of invariant (get, wait) pairs needs a `Seq`
            // body; anything else stays as it is.
            let Stmt::Seq(items) = &mut **body else { return };
            let mut n = 0;
            while n + 1 < items.len() && invariant_pair(&items[n], &items[n + 1], *var) {
                n += 2;
            }
            if n == 0 {
                return;
            }
            let mut hoisted: Vec<Stmt> = items.drain(..n).collect();
            **body = Stmt::seq(std::mem::take(items));
            hoisted.push(std::mem::replace(stmt, Stmt::Nop));
            *stmt = Stmt::seq(hoisted);
        }
        _ => {}
    }
}

fn invariant_pair(get: &Stmt, wait: &Stmt, var: usize) -> bool {
    match (get, wait) {
        (Stmt::DmaCpe(d), Stmt::DmaWait { reply, .. }) => {
            d.direction == DmaDirection::MemToSpm
                && !d.offset.depends_on(var)
                && slot_invariant(&d.spm, var)
                && d.reply == *reply
        }
        _ => false,
    }
}

fn slot_invariant(slot: &swatop_ir::SpmSlot, var: usize) -> bool {
    match slot {
        swatop_ir::SpmSlot::Single(_) => true,
        swatop_ir::SpmSlot::Double { sel, .. } => !sel.depends_on(var),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop_ir::{MemBufId, ReplyId, SpmBufId, SpmSlot};

    fn cg_node(offset: AffineExpr, rows: usize, cols: usize, row_stride: usize) -> DmaCg {
        DmaCg {
            buf: MemBufId(0),
            offset,
            rows,
            cols,
            row_stride,
            mesh_swap: false,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(SpmBufId(0)),
            reply: ReplyId(0),
        }
    }

    #[test]
    fn strided_tile_derivation_matches_paper_example() {
        // The paper's example: column-major A(M, N) = an N×M row-major view
        // with row_stride M. Take M = 64, N = 32: tile rows=32 (N), cols=64
        // (M)… Use direct form: rows=32, cols=64, row_stride=64.
        let d = cg_node(AffineExpr::zero(), 32, 64, 64);
        let l = lower_node(&d);
        // block = 64/8 = 8 elems, stride = 64, n_blocks = 32/8 = 4.
        assert_eq!((l.block, l.stride, l.n_blocks), (8, 64, 4));
        // offset = rid*(4*64) + cid*8.
        assert_eq!(l.offset.coeff(AVar::Rid), 256);
        assert_eq!(l.offset.coeff(AVar::Cid), 8);
    }

    #[test]
    fn contiguous_tile_merges_blocks() {
        // row_stride == cols/8 means each CPE's rows are back-to-back.
        let d = cg_node(AffineExpr::konst(100), 64, 8, 1);
        let l = lower_node(&d);
        assert_eq!(l.n_blocks, 1);
        assert_eq!(l.block, 8);
        assert_eq!(l.offset.constant(), 100);
    }

    #[test]
    fn total_size_is_preserved() {
        let d = cg_node(AffineExpr::zero(), 40, 16, 128);
        let l = lower_node(&d);
        // Per-CPE elements = totalsize / 64.
        assert_eq!(l.spm_elems(), 40 * 16 / 64);
    }

    #[test]
    fn lower_dma_rewrites_whole_tree() {
        let inner = Stmt::DmaCg(cg_node(AffineExpr::loop_var(0), 8, 8, 8));
        let tree = Stmt::for_(0, 3, Stmt::seq(vec![inner.clone(), inner]));
        let mut lowered = tree;
        lower_dma(&mut lowered);
        assert_eq!(lowered.count(|s| matches!(s, Stmt::DmaCg(_))), 0);
        assert_eq!(lowered.count(|s| matches!(s, Stmt::DmaCpe(_))), 2);
    }

    #[test]
    fn invariant_get_is_hoisted() {
        // for v0 { dma@const; wait; dma@v0; wait } → dma@const hoists out.
        let invariant = Stmt::DmaCpe(lower_node(&cg_node(AffineExpr::konst(0), 8, 8, 16)));
        let variant = Stmt::DmaCpe(lower_node(&cg_node(AffineExpr::loop_var(0), 8, 8, 16)));
        let wait = Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        let mut hoisted = Stmt::for_(
            0,
            4,
            Stmt::seq(vec![invariant.clone(), wait.clone(), variant.clone(), wait.clone()]),
        );
        hoist_invariant_dma(&mut hoisted);
        // Expect: Seq[dma, wait, For { dma@v0, wait }]
        if let Stmt::Seq(ss) = &hoisted {
            assert_eq!(ss.len(), 3);
            assert!(matches!(ss[0], Stmt::DmaCpe(_)));
            assert!(matches!(ss[1], Stmt::DmaWait { .. }));
            assert!(matches!(ss[2], Stmt::For { .. }));
            if let Stmt::For { body, .. } = &ss[2] {
                assert_eq!(body.count(|s| matches!(s, Stmt::DmaCpe(_))), 1);
            }
        } else {
            panic!("expected hoisted Seq, got {hoisted:?}");
        }
    }

    #[test]
    fn variant_get_is_not_hoisted() {
        let variant = Stmt::DmaCpe(lower_node(&cg_node(AffineExpr::loop_var(0), 8, 8, 16)));
        let wait = Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        let mut hoisted = Stmt::for_(0, 4, Stmt::seq(vec![variant, wait]));
        hoist_invariant_dma(&mut hoisted);
        assert!(matches!(hoisted, Stmt::For { .. }), "nothing must hoist");
    }

    #[test]
    fn hoist_is_recursive_through_nests() {
        // Invariant DMA two loops deep hoists past both.
        let invariant = Stmt::DmaCpe(lower_node(&cg_node(AffineExpr::konst(4), 8, 8, 16)));
        let wait = Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        let mut hoisted = Stmt::for_(
            0,
            2,
            Stmt::for_(1, 3, Stmt::seq(vec![invariant, wait])),
        );
        hoist_invariant_dma(&mut hoisted);
        if let Stmt::Seq(ss) = &hoisted {
            assert!(matches!(ss[0], Stmt::DmaCpe(_)), "{hoisted:?}");
        } else {
            panic!("expected hoist through both loops, got {hoisted:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn lowering_rejects_unpartitionable_tiles() {
        lower_node(&cg_node(AffineExpr::zero(), 20, 8, 8));
    }
}
