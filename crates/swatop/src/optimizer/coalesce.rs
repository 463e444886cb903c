//! DMA-wall passes: strided-transaction coalescing and register-broadcast
//! tiling.
//!
//! **Coalescing** (`coalesce_gets`): a strided tile get costs the DMA engine
//! one DRAM transaction per short row — a `rows × cols` tile with a large
//! `row_stride` streams at a fraction of peak. When the source buffer is
//! read-only within its top-level statement, the whole sequence of tiles the
//! enclosing loop nest will fetch can be gathered *once* into a packed
//! staging buffer laid out `[iteration][cpe][block]`, so the steady-state
//! get becomes a single fully-contiguous (transaction-aligned) block per CPE
//! per step. The gather itself is a bandwidth-costed [`TransformKind::PackTiles`]
//! executed before the nest; the cost model weighs it against the saved
//! per-step transaction overhead.
//!
//! **Broadcast tiling** (`tag_broadcast`): when the 8 per-CPE gets of a mesh
//! row (or column) are contiguous in memory — the `Cid` (resp. `Rid`)
//! coefficient of the offset equals the block length — one leader CPE per
//! row/column can fetch the whole line and scatter it over the
//! register-communication bus, so only 8 of 64 CPEs touch DRAM. The pass
//! tags eligible `DMA_CPE` nodes with a [`BcastBus`] direction; the machine
//! prices the leader transfer plus the regcomm scatter.

use std::fmt::Write;

use sw26010::regcomm::BcastBus;
use sw26010::DmaDirection;
use swatop_ir::{
    AVar, AffineExpr, DmaCg, DmaCpe, MemRole, Program, Stmt, TransformKind,
};

/// Upper bound on a packed staging buffer, in elements (16 MiB of f32):
/// nests larger than this keep their strided gets.
const MAX_PACKED_ELEMS: usize = 1 << 22;

/// Rewrite eligible strided `DmaCg` gets into packed contiguous `DmaCpe`
/// gets fed by a `PackTiles` staging transform. A get whose tiles an earlier
/// gather already staged — same source, not written since, same parameters
/// — reads that staging buffer instead of gathering again. Like the other
/// passes of this module it edits the tree in place: only the nodes it
/// changes are rebuilt.
pub fn coalesce_gets(mut program: Program) -> Program {
    let tops: Vec<Stmt> = match program.take_body() {
        Stmt::Seq(ss) => ss,
        Stmt::Nop => Vec::new(),
        other => vec![other],
    };
    let mut out = Vec::with_capacity(tops.len());
    // Scratch shared by the top-level statements: each leaves `loops` empty.
    let (mut written, mut loops) = (Vec::new(), Vec::new());
    for mut top in tops {
        written.clear();
        written_bufs(&top, &mut written);
        // Staging gathers run before the nest that consumes them; the
        // source is read-only within this top-level statement, so the
        // ordering with respect to earlier producers is preserved.
        rewrite(&mut top, &mut loops, false, &written, &mut program, &mut out);
        out.push(top);
    }
    program.set_body(Stmt::seq(out));
    program
}

fn rewrite(
    s: &mut Stmt,
    loops: &mut Vec<(usize, usize)>,
    in_if: bool,
    written: &[usize],
    program: &mut Program,
    packs: &mut Vec<Stmt>,
) {
    match s {
        Stmt::Seq(ss) => {
            ss.iter_mut().for_each(|x| rewrite(x, loops, in_if, written, program, packs))
        }
        Stmt::For { var, extent, body } => {
            loops.push((*var, *extent));
            rewrite(body, loops, in_if, written, program, packs);
            loops.pop();
        }
        // Guarded gets are skipped: a boundary guard may suppress fetches
        // whose source addresses the gather would still enumerate.
        Stmt::If { then_, else_, .. } => {
            rewrite(then_, loops, true, written, program, packs);
            if let Some(e) = else_ {
                rewrite(e, loops, true, written, program, packs);
            }
        }
        Stmt::DmaCg(d) => {
            if let Some((pack, cpe)) = try_coalesce(d, loops, in_if, written, program, packs) {
                packs.extend(pack);
                *s = Stmt::DmaCpe(cpe);
            }
        }
        _ => {}
    }
}

fn try_coalesce(
    d: &DmaCg,
    loops: &[(usize, usize)],
    in_if: bool,
    written: &[usize],
    program: &mut Program,
    packs: &[Stmt],
) -> Option<(Option<Stmt>, DmaCpe)> {
    if in_if
        || d.direction != DmaDirection::MemToSpm
        || written.contains(&d.buf.0)
        || !d.rows.is_multiple_of(8)
        || !d.cols.is_multiple_of(8)
        // Already contiguous per CPE: nothing to coalesce.
        || d.row_stride == d.cols / 8
        || d.offset.uses_mesh()
        || d.offset.constant() < 0
    {
        return None;
    }
    // Every loop term of the tile origin must be a (non-negative-stride)
    // enclosing loop, so the gather can enumerate exactly the tiles the
    // nest will fetch.
    let enclosing = |v| loops.iter().any(|&(lv, _)| lv == v);
    let gatherable = |(av, c): (AVar, i64)| matches!(av, AVar::Loop(v) if enclosing(v)) && c >= 0;
    if !d.offset.terms().all(gatherable) {
        return None;
    }
    // `(var, extent, coeff)` of the loops the origin moves with,
    // outermost first to match the enclosing nest.
    let iters = || {
        loops.iter().filter_map(|&(v, ext)| {
            let c = d.offset.coeff(AVar::Loop(v));
            (c != 0).then_some((v, ext, c))
        })
    };
    let base = d.offset.constant();
    let span: i64 = iters().map(|(_, ext, c)| c * (ext as i64 - 1)).sum();
    let last = base + span + ((d.rows - 1) * d.row_stride + d.cols) as i64;
    if last > program.mem_bufs[d.buf.0].len as i64 {
        return None;
    }
    let n_iters: usize = iters().map(|(_, ext, _)| ext).product();
    let packed_len = n_iters.checked_mul(d.rows * d.cols)?;
    if packed_len > MAX_PACKED_ELEMS {
        return None;
    }

    // The last gather of these very tiles, if nothing has written its
    // source since (this statement does not: see above).
    let same = |s: &Stmt| match s {
        Stmt::Transform(t) => match &t.kind {
            TransformKind::PackTiles {
                src, dst, rows, cols, row_stride, mesh_swap, base: b, iters: it,
            } if (*src, *rows, *cols, *row_stride, *mesh_swap, *b)
                    == (d.buf, d.rows, d.cols, d.row_stride, d.mesh_swap, base)
                    && it.iter().copied().eq(iters().map(|(_, ext, c)| (ext, c))) =>
            {
                Some(*dst)
            }
            _ => None,
        },
        _ => None,
    };
    let staged = packs.iter().rposition(|s| same(s).is_some()).and_then(|at| {
        let stale = packs[at + 1..].iter().any(|s| writes(s, d.buf.0));
        if stale { None } else { same(&packs[at]) }
    });
    let (dst, pack) = match staged {
        Some(dst) => (dst, None),
        None => {
            let src = &program.mem_bufs[d.buf.0].name;
            let mut name = String::with_capacity(src.len() + 16);
            write!(name, "{src}_packed{}", program.mem_bufs.len()).expect("writing to a String");
            let dst = program.mem_buf(name, packed_len, MemRole::Temp);
            let mut pack_iters = Vec::with_capacity(iters().count());
            pack_iters.extend(iters().map(|(_, ext, c)| (ext, c)));
            let pack = Stmt::transform(TransformKind::PackTiles {
                src: d.buf,
                dst,
                rows: d.rows,
                cols: d.cols,
                row_stride: d.row_stride,
                mesh_swap: d.mesh_swap,
                base,
                iters: pack_iters,
            });
            (dst, Some(pack))
        }
    };

    // Packed layout [lin_iter][rid*8+cid][E]: the replacement get is one
    // contiguous block of E elements per CPE per step.
    let e = d.rows * d.cols / 64;
    let steps = iters().rev().scan((64 * e) as i64, |step, (v, ext, _)| {
        let term = (AVar::Loop(v), *step);
        *step *= ext as i64;
        Some(term)
    });
    let mesh = [(AVar::Rid, (8 * e) as i64), (AVar::Cid, e as i64)];
    let offset = AffineExpr::from_terms(mesh.into_iter().chain(steps), 0);
    let cpe = DmaCpe {
        buf: dst,
        offset,
        block: e,
        stride: e,
        n_blocks: 1,
        direction: d.direction,
        spm: d.spm.clone(),
        reply: d.reply,
        bcast: None,
        fused: false,
    };
    Some((pack, cpe))
}

/// Whether anything within `stmt` writes main-memory buffer `buf`.
fn writes(stmt: &Stmt, buf: usize) -> bool {
    let mut found = false;
    stmt.visit(&mut |s| found |= written_buf(s) == Some(buf));
    found
}

/// The main-memory buffer `s` itself writes: a DMA put's or a transform's
/// destination.
fn written_buf(s: &Stmt) -> Option<usize> {
    match s {
        Stmt::DmaCg(d) if d.direction == DmaDirection::SpmToMem => Some(d.buf.0),
        Stmt::DmaCpe(d) if d.direction == DmaDirection::SpmToMem => Some(d.buf.0),
        Stmt::Transform(t) => Some(t.kind.dst().0),
        _ => None,
    }
}

/// Push to `out` the main-memory buffers written anywhere within `stmt`
/// (DMA puts and transform destinations), each once.
fn written_bufs(stmt: &Stmt, out: &mut Vec<usize>) {
    stmt.visit(&mut |s| {
        if let Some(buf) = written_buf(s).filter(|b| !out.contains(b)) {
            out.push(buf);
        }
    });
}

/// The register-communication bus an unguarded get may broadcast over, if
/// any: the one eligibility test behind [`tag_broadcast`] and behind the
/// analytic model's pricing of a `bcast` program whose tree is not tagged.
///
/// A get is row-broadcastable when the 8 fetches of a mesh row are
/// contiguous (`offset`'s `Cid` coefficient equals `block`) and the leader's
/// merged `8·block` read does not overrun into the next stride period
/// (`n_blocks == 1` or `stride ≥ 8·block`); column-broadcast is the `Rid`
/// mirror. Puts never broadcast. The node's own `bcast` is not read.
pub fn broadcast_bus(d: &DmaCpe) -> Option<BcastBus> {
    let layout_ok = d.direction == DmaDirection::MemToSpm
        && d.block > 0
        && (d.n_blocks == 1 || d.stride >= 8 * d.block);
    if layout_ok && d.offset.coeff(AVar::Cid) == d.block as i64 {
        Some(BcastBus::Row)
    } else if layout_ok && d.offset.coeff(AVar::Rid) == d.block as i64 {
        Some(BcastBus::Column)
    } else {
        None
    }
}

/// Tag broadcast-eligible gets ([`broadcast_bus`]) with their
/// register-communication bus; a get already tagged keeps its bus. Guarded
/// gets are left untouched — the scatter is a collective over the full mesh
/// and must not diverge.
pub fn tag_broadcast(stmt: &mut Stmt) {
    tag(stmt, false)
}

fn tag(s: &mut Stmt, in_if: bool) {
    match s {
        Stmt::Seq(ss) => ss.iter_mut().for_each(|x| tag(x, in_if)),
        Stmt::For { body, .. } => tag(body, in_if),
        Stmt::If { then_, else_, .. } => {
            tag(then_, true);
            if let Some(e) = else_ {
                tag(e, true);
            }
        }
        Stmt::DmaCpe(d) if !in_if && d.bcast.is_none() => d.bcast = broadcast_bus(d),
        _ => {}
    }
}

/// Batch fusion: mark every `DMA_CPE` get that directly follows another get
/// on the *same reply word* (no wait, compute or control flow in between)
/// as `fused` — its descriptors chain onto the engine batch its predecessor
/// opened, so the per-batch start-up latency is paid once per run of gets
/// instead of once per node. The first get of each run keeps `fused =
/// false` and opens the batch group.
///
/// Runs of back-to-back small gets are exactly what tile schedules emit
/// (the A/B operand pair of a GEMM step, or the unrolled per-tap fetches of
/// an SPM-resident convolution reduction); without fusion each pays the
/// full DRAM round-trip latency, which is what makes small-tile schedules
/// DMA-latency bound rather than bandwidth bound.
pub fn fuse_adjacent_gets(stmt: &mut Stmt) {
    match stmt {
        Stmt::Seq(ss) => {
            // Reply word of the immediately preceding get in this Seq, if
            // the run is still open.
            let mut open_run: Option<swatop_ir::ReplyId> = None;
            for s in ss {
                match s {
                    Stmt::DmaCpe(d) if d.direction == DmaDirection::MemToSpm => {
                        d.fused = open_run == Some(d.reply);
                        open_run = Some(d.reply);
                    }
                    other => {
                        open_run = None;
                        fuse_adjacent_gets(other);
                    }
                }
            }
        }
        Stmt::For { body, .. } => fuse_adjacent_gets(body),
        Stmt::If { then_, else_, .. } => {
            fuse_adjacent_gets(then_);
            if let Some(e) = else_ {
                fuse_adjacent_gets(e);
            }
        }
        _ => {}
    }
}

/// Mark runs of back-to-back bulk transforms for chain fusion: every
/// transform whose immediately preceding statement (in the same `Seq`) is
/// also a transform keeps the engine's block pipeline streaming and skips
/// the per-transform start-up latency. The first transform of a run stays
/// unfused and pays the ramp for the whole chain. A producer whose output
/// is never materialised ([`swatop_ir::Link::Feeds`]) runs nothing where it
/// stands: it neither opens, continues nor breaks a run.
///
/// This is the transform-side twin of [`fuse_adjacent_gets`]: coalescing
/// emits its `PackTiles` staging gathers as one consecutive run before the
/// consuming nest (and operator lowerings emit their layout-packing setup
/// the same way), so without fusion a schedule with many small staging
/// packs pays one full DRAM round-trip per pack.
pub fn fuse_adjacent_transforms(stmt: &mut Stmt) {
    match stmt {
        Stmt::Seq(ss) => {
            let mut in_run = false;
            for s in ss {
                match s {
                    Stmt::Transform(t) if t.link.feeds() => {}
                    Stmt::Transform(t) => {
                        t.fused = in_run;
                        in_run = true;
                    }
                    other => {
                        in_run = false;
                        fuse_adjacent_transforms(other);
                    }
                }
            }
        }
        Stmt::For { body, .. } => fuse_adjacent_transforms(body),
        Stmt::If { then_, else_, .. } => {
            fuse_adjacent_transforms(then_);
            if let Some(e) = else_ {
                fuse_adjacent_transforms(e);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop_ir::{MemBufId, ReplyId, SpmBufId, SpmSlot};

    fn strided_get(offset: AffineExpr) -> DmaCg {
        DmaCg {
            buf: MemBufId(0),
            offset,
            rows: 16,
            cols: 16,
            row_stride: 96,
            mesh_swap: false,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(SpmBufId(0)),
            reply: ReplyId(0),
        }
    }

    fn host(body: Stmt) -> Program {
        let mut p = Program::new("t");
        p.mem_buf("A", 96 * 96, MemRole::Input);
        p.spm_buf("a", 4);
        p.set_body(body);
        p
    }

    #[test]
    fn a_tile_set_is_gathered_once_while_its_source_stands() {
        let wait = || Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        let nest = || {
            let get = Stmt::DmaCg(strided_get(AffineExpr::loop_var(0).scale(16)));
            Stmt::for_(0, 4, Stmt::seq(vec![get, wait()]))
        };
        let gathers = |p: &Program| p.body.count(|s| matches!(s, Stmt::Transform(_)));
        let p = coalesce_gets(host(Stmt::seq(vec![nest(), nest()])));
        assert_eq!((gathers(&p), p.mem_bufs.len()), (1, 2));
        let mut reads = Vec::new();
        p.body.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                reads.push(d.buf);
            }
        });
        assert_eq!(reads, vec![MemBufId(1); 2]);
        // A put into the source between the nests stales the first gather.
        let put = DmaCg { direction: DmaDirection::SpmToMem, ..strided_get(AffineExpr::zero()) };
        let body = Stmt::seq(vec![nest(), Stmt::DmaCg(put), wait(), nest()]);
        let p = coalesce_gets(host(body));
        assert_eq!((gathers(&p), p.mem_bufs.len()), (2, 3));
    }

    #[test]
    fn strided_nest_get_is_coalesced() {
        let get = Stmt::DmaCg(strided_get(AffineExpr::loop_var(0).scale(16)));
        let body = Stmt::for_(
            0,
            4,
            Stmt::seq(vec![get, Stmt::DmaWait { reply: ReplyId(0), times: 1 }]),
        );
        let p = coalesce_gets(host(body));
        assert_eq!(p.body.count(|s| matches!(s, Stmt::DmaCg(_))), 0);
        assert_eq!(p.body.count(|s| matches!(s, Stmt::Transform(_))), 1);
        assert_eq!(p.mem_bufs.len(), 2);
        assert_eq!(p.mem_bufs[1].role, MemRole::Temp);
        // 4 iterations × 16×16 tile.
        assert_eq!(p.mem_bufs[1].len, 4 * 16 * 16);
        let mut seen = None;
        p.body.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                seen = Some(d.clone());
            }
        });
        let d = seen.expect("rewritten get");
        let e = 16 * 16 / 64;
        assert_eq!((d.block, d.stride, d.n_blocks), (e, e, 1));
        assert_eq!(d.offset.coeff(AVar::Rid), (8 * e) as i64);
        assert_eq!(d.offset.coeff(AVar::Cid), e as i64);
        assert_eq!(d.offset.coeff(AVar::Loop(0)), (64 * e) as i64);
    }

    #[test]
    fn accumulator_and_guarded_gets_are_left_alone() {
        // The buffer is also written (C-style accumulator): no coalesce.
        let get = Stmt::DmaCg(strided_get(AffineExpr::loop_var(0).scale(16)));
        let mut put = strided_get(AffineExpr::loop_var(0).scale(16));
        put.direction = DmaDirection::SpmToMem;
        let body = Stmt::for_(0, 4, Stmt::seq(vec![get.clone(), Stmt::DmaCg(put)]));
        let p = coalesce_gets(host(body));
        assert_eq!(p.body.count(|s| matches!(s, Stmt::DmaCg(_))), 2);

        // Guarded get: no coalesce.
        let guarded = Stmt::for_(
            0,
            4,
            Stmt::if_(swatop_ir::Cond::lt_const(AffineExpr::loop_var(0), 3), get),
        );
        let p = coalesce_gets(host(guarded));
        assert_eq!(p.body.count(|s| matches!(s, Stmt::DmaCg(_))), 1);
    }

    #[test]
    fn contiguous_get_is_not_coalesced() {
        let mut d = strided_get(AffineExpr::zero());
        d.row_stride = d.cols / 8; // already per-CPE contiguous
        let p = coalesce_gets(host(Stmt::DmaCg(d)));
        assert_eq!(p.body.count(|s| matches!(s, Stmt::DmaCg(_))), 1);
        assert_eq!(p.mem_bufs.len(), 1);
    }

    #[test]
    fn broadcast_tags_row_and_column_contiguous_gets() {
        let mk = |rid_c: i64, cid_c: i64| {
            Stmt::DmaCpe(DmaCpe {
                buf: MemBufId(0),
                offset: AffineExpr::zero()
                    .add_term(AVar::Rid, rid_c)
                    .add_term(AVar::Cid, cid_c),
                block: 4,
                stride: 4,
                n_blocks: 1,
                direction: DmaDirection::MemToSpm,
                spm: SpmSlot::Single(SpmBufId(0)),
                reply: ReplyId(0),
                bcast: None,
                fused: false,
            })
        };
        // Cid coefficient == block → row bus.
        let mut t = mk(32, 4);
        tag_broadcast(&mut t);
        if let Stmt::DmaCpe(d) = &t {
            assert_eq!(d.bcast, Some(BcastBus::Row));
        } else {
            panic!("{t:?}");
        }
        // Rid coefficient == block → column bus.
        let mut t = mk(4, 32);
        tag_broadcast(&mut t);
        if let Stmt::DmaCpe(d) = &t {
            assert_eq!(d.bcast, Some(BcastBus::Column));
        } else {
            panic!("{t:?}");
        }
        // Neither axis contiguous → untouched.
        let mut t = mk(32, 8);
        tag_broadcast(&mut t);
        if let Stmt::DmaCpe(d) = &t {
            assert_eq!(d.bcast, None);
        } else {
            panic!("{t:?}");
        }
        // Guarded → untouched even when eligible.
        let g = Stmt::if_(
            swatop_ir::Cond::lt_const(AffineExpr::loop_var(0), 3),
            mk(32, 4),
        );
        let mut t = g;
        tag_broadcast(&mut t);
        assert_eq!(t.count(|s| matches!(s, Stmt::DmaCpe(d) if d.bcast.is_some())), 0);
    }

    #[test]
    fn adjacent_gets_fuse_into_batch_runs() {
        let get = |reply: usize| {
            Stmt::DmaCpe(DmaCpe {
                buf: MemBufId(0),
                offset: AffineExpr::zero(),
                block: 4,
                stride: 4,
                n_blocks: 1,
                direction: DmaDirection::MemToSpm,
                spm: SpmSlot::Single(SpmBufId(0)),
                reply: ReplyId(reply),
                bcast: None,
                fused: false,
            })
        };
        let body = Stmt::seq(vec![
            get(0),
            get(0),
            get(0),
            Stmt::DmaWait { reply: ReplyId(0), times: 3 },
            get(0), // run broken by the wait: first of a new run
            get(1), // different reply word: new run
            get(1),
        ]);
        let mut fused = body;
        fuse_adjacent_gets(&mut fused);
        let mut flags = Vec::new();
        fused.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                flags.push(d.fused);
            }
        });
        assert_eq!(flags, vec![false, true, true, false, false, true]);

        // Runs never span Seq boundaries: a loop body's leading get is
        // re-issued each iteration after the iteration's trailing wait.
        let looped = Stmt::for_(0, 4, Stmt::seq(vec![get(0), get(0)]));
        let mut fused = looped;
        fuse_adjacent_gets(&mut fused);
        let mut flags = Vec::new();
        fused.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                flags.push(d.fused);
            }
        });
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn puts_break_get_fusion_runs() {
        let mk = |direction| {
            Stmt::DmaCpe(DmaCpe {
                buf: MemBufId(0),
                offset: AffineExpr::zero(),
                block: 4,
                stride: 4,
                n_blocks: 1,
                direction,
                spm: SpmSlot::Single(SpmBufId(0)),
                reply: ReplyId(0),
                bcast: None,
                fused: false,
            })
        };
        let body = Stmt::seq(vec![
            mk(DmaDirection::MemToSpm),
            mk(DmaDirection::SpmToMem),
            mk(DmaDirection::MemToSpm),
        ]);
        let mut fused = body;
        fuse_adjacent_gets(&mut fused);
        let mut flags = Vec::new();
        fused.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                flags.push((d.direction, d.fused));
            }
        });
        // The put is never marked and severs the run around it.
        assert_eq!(
            flags,
            vec![
                (DmaDirection::MemToSpm, false),
                (DmaDirection::SpmToMem, false),
                (DmaDirection::MemToSpm, false),
            ]
        );
    }

    #[test]
    fn adjacent_transforms_fuse_into_chains() {
        let tf = || {
            Stmt::transform(swatop_ir::TransformKind::PackTensor {
                src: MemBufId(0),
                dst: MemBufId(1),
                src_dims: vec![4],
                perm: vec![0],
            })
        };
        let body = Stmt::seq(vec![
            tf(),
            tf(),
            tf(),
            Stmt::DmaWait { reply: ReplyId(0), times: 1 },
            tf(), // run broken by the intervening statement
        ]);
        let mut fused = body;
        fuse_adjacent_transforms(&mut fused);
        let mut flags = Vec::new();
        fused.visit(&mut |s| {
            if let Stmt::Transform(t) = s {
                flags.push(t.fused);
            }
        });
        assert_eq!(flags, vec![false, true, true, false]);
    }

    #[test]
    fn broadcast_tagging_commutes_with_fusion() {
        let get = |cid_c: i64, reply: usize| {
            Stmt::DmaCpe(DmaCpe {
                buf: MemBufId(0),
                offset: AffineExpr::loop_var(0).add_term(AVar::Rid, 32).add_term(AVar::Cid, cid_c),
                block: 4,
                stride: 4,
                n_blocks: 1,
                direction: DmaDirection::MemToSpm,
                spm: SpmSlot::Single(SpmBufId(0)),
                reply: ReplyId(reply),
                bcast: None,
                fused: false,
            })
        };
        let tf = || {
            Stmt::transform(TransformKind::PackTensor {
                src: MemBufId(0),
                dst: MemBufId(1),
                src_dims: vec![4],
                perm: vec![0],
            })
        };
        let guard = swatop_ir::Cond::lt_const(AffineExpr::loop_var(0), 3);
        // A run of three gets (broadcastable, not, broadcastable), a guarded
        // run of two broadcastable ones, and a transform chain.
        let nest = Stmt::seq(vec![
            tf(),
            tf(),
            Stmt::for_(
                0,
                4,
                Stmt::seq(vec![
                    get(4, 0),
                    get(8, 0),
                    get(4, 0),
                    Stmt::DmaWait { reply: ReplyId(0), times: 3 },
                    Stmt::if_(guard, Stmt::seq(vec![get(4, 1), get(4, 1)])),
                ]),
            ),
        ]);
        let fuse = |s: &mut Stmt| {
            fuse_adjacent_gets(s);
            fuse_adjacent_transforms(s);
        };
        let (mut tag_first, mut fuse_first) = (nest.clone(), nest);
        tag_broadcast(&mut tag_first);
        fuse(&mut tag_first);
        fuse(&mut fuse_first);
        tag_broadcast(&mut fuse_first);
        assert!(tag_first == fuse_first);
        // Both passes left marks, some on the same node.
        let mut marks = Vec::new();
        fuse_first.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                marks.push((d.bcast.is_some(), d.fused));
            }
        });
        assert_eq!(
            marks,
            vec![(true, false), (false, true), (true, true), (false, false), (false, true)]
        );
        assert_eq!(fuse_first.count(|s| matches!(s, Stmt::Transform(t) if t.fused)), 1);
    }

    #[test]
    fn multiblock_broadcast_requires_stride_room() {
        let mk = |stride: usize| {
            Stmt::DmaCpe(DmaCpe {
                buf: MemBufId(0),
                offset: AffineExpr::zero().add_term(AVar::Cid, 4).add_term(AVar::Rid, 256),
                block: 4,
                stride,
                n_blocks: 2,
                direction: DmaDirection::MemToSpm,
                spm: SpmSlot::Single(SpmBufId(0)),
                reply: ReplyId(0),
                bcast: None,
                fused: false,
            })
        };
        let mut t = mk(64); // 64 ≥ 8·4
        tag_broadcast(&mut t);
        assert_eq!(t.count(|s| matches!(s, Stmt::DmaCpe(d) if d.bcast.is_some())), 1);
        let mut t = mk(16); // 16 < 32: leader blocks would overlap
        tag_broadcast(&mut t);
        assert_eq!(t.count(|s| matches!(s, Stmt::DmaCpe(d) if d.bcast.is_some())), 0);
    }
}
