//! DMA-wall passes: strided-transaction coalescing and register-broadcast
//! tiling.
//!
//! **Coalescing** ([`coalesce`]): a strided tile transfer costs the DMA
//! engine one DRAM transaction per short row — a `rows × cols` tile with a
//! large `row_stride` streams at a fraction of peak, for puts as much as
//! for gets. The whole sequence of tiles the enclosing loop nest moves is
//! staged in a packed buffer laid out `[iteration][cpe][block]`, so the
//! steady-state transfer becomes a single fully contiguous block per CPE
//! per step. A get's tiles are gathered into it once, before the nest,
//! when its source is read-only within the top-level statement; a put's
//! are scattered out of it once, after the nest, when its destination is a
//! scratch buffer that only later top-level transforms read, so that
//! producer fusion folds the scatter into them. Both moves are one
//! bandwidth-costed [`TransformKind::PackTiles`] with the replaced DMA's
//! direction.
//!
//! **Broadcast tiling** (`tag_broadcast`): when the 8 per-CPE blocks of a
//! mesh row (or column) are contiguous in memory — the `Cid` (resp. `Rid`)
//! coefficient of the offset equals the block length — one leader CPE per
//! row/column can move the whole line, so only 8 of 64 CPEs touch DRAM: a
//! get's leader fetches the line and scatters it over the
//! register-communication bus, a put's leader gathers its peers' blocks
//! over the bus and writes the line. The pass tags eligible `DMA_CPE` nodes
//! with a [`BcastBus`] direction — a put only where the gather is priced
//! cheaper ([`broadcast_bus`]); the machine prices the leader transfer plus
//! the regcomm phase.

use std::fmt::Write;

use sw26010::regcomm::BcastBus;
use sw26010::{DmaDirection, MachineConfig};
use swatop_ir::{
    AVar, AffineExpr, DmaCg, DmaCpe, MemRole, Program, Stmt, TransformKind,
};

/// Upper bound on a gather's packed staging buffer, in elements (16 MiB of
/// f32): nests larger than this keep their strided gets.
const MAX_PACKED_ELEMS: usize = 1 << 22;

/// Rewrite eligible strided `DmaCg` transfers into packed contiguous
/// `DmaCpe` ones and the `PackTiles` staging transforms that move their
/// tiles.
///
/// * A get's gather runs right after the last top-level statement that
///   writes its source, or at the head when nothing does, joining the
///   gathers already there: a run of back-to-back gathers pays one
///   start-up. A get whose tiles an earlier gather already staged — same
///   source, not written since, same parameters — reads that staging
///   buffer instead of gathering again.
/// * A put's scatter follows the put's top-level statement (and the bare
///   waits right after it). A put stages when its destination is a scratch
///   buffer that it alone writes, that no DMA reads and that some later
///   top-level transform reads, and when its tiles cover that buffer
///   exactly once (`covers_once`). Producer fusion then folds the scatter
///   into those readers, so the staged put costs no pass of its own.
///
/// Like the other passes of this module it edits the tree in place: only
/// the nodes it changes are rebuilt.
pub fn coalesce(program: Program) -> Program {
    stage(program, true)
}

/// [`coalesce`] without put staging: the baseline the optimizer's tests
/// compare put staging against.
#[cfg(test)]
pub(crate) fn coalesce_gets(program: Program) -> Program {
    stage(program, false)
}

fn stage(mut program: Program, puts: bool) -> Program {
    let targets = if puts { put_targets(&program) } else { Vec::new() };
    let tops: Vec<Stmt> = match program.take_body() {
        Stmt::Seq(ss) => ss,
        Stmt::Nop => Vec::new(),
        other => vec![other],
    };
    let mut st = Stager {
        program: &mut program,
        targets,
        out: Vec::with_capacity(tops.len()),
        written: Vec::new(),
        loops: Vec::new(),
        scatters: Vec::new(),
    };
    for mut top in tops {
        // A put's scatter waits for the bare waits that follow its nest.
        if !matches!(top, Stmt::DmaWait { .. }) {
            st.out.append(&mut st.scatters);
        }
        st.written.clear();
        written_bufs(&top, &mut st.written);
        st.rewrite(&mut top, false);
        st.out.push(top);
    }
    st.out.append(&mut st.scatters);
    let body = Stmt::seq(st.out);
    program.set_body(body);
    program
}

/// The destinations whose puts may stage: scratch buffers written by one
/// statement alone, a `DmaCg` put, read by no DMA and by no transform
/// below the top level, and read by some top-level transform after the
/// put's own top-level statement. A program with no strided put into a
/// scratch buffer allocates nothing here.
fn put_targets(program: &Program) -> Vec<usize> {
    let bufs = &program.mem_bufs;
    let strided_put = |s: &Stmt| {
        matches!(s, Stmt::DmaCg(d) if d.direction == DmaDirection::SpmToMem
            && bufs[d.buf.0].role == MemRole::Temp
            && d.rows.is_multiple_of(8)
            && d.cols.is_multiple_of(8)
            && d.row_stride != d.cols / 8)
    };
    let mut any = false;
    program.body.visit(&mut |s| any |= strided_put(s));
    if !any {
        return Vec::new();
    }

    /// How one buffer is used: by how many writing statements, the
    /// top-level statement of its `DmaCg` put, and the last top-level
    /// transform that reads it.
    #[derive(Clone, Default)]
    struct Use {
        writers: u32,
        put_at: Option<usize>,
        read_at: Option<usize>,
        other_reads: bool,
    }
    let mut uses = vec![Use::default(); bufs.len()];
    let tops = match &*program.body {
        Stmt::Seq(ss) => &ss[..],
        other => std::slice::from_ref(other),
    };
    for (at, top) in tops.iter().enumerate() {
        if let Stmt::Transform(t) = top {
            uses[t.kind.src().0].read_at = Some(at);
            uses[t.kind.dst().0].writers += 1;
            continue;
        }
        top.visit(&mut |s| match s {
            Stmt::DmaCg(d) if d.direction == DmaDirection::SpmToMem => {
                uses[d.buf.0].writers += 1;
                uses[d.buf.0].put_at = Some(at);
            }
            Stmt::DmaCg(DmaCg { buf, .. }) | Stmt::DmaCpe(DmaCpe { buf, .. })
                if written_buf(s).is_none() =>
            {
                uses[buf.0].other_reads = true;
            }
            Stmt::DmaCpe(d) => uses[d.buf.0].writers += 1,
            Stmt::Transform(t) => {
                uses[t.kind.src().0].other_reads = true;
                uses[t.kind.dst().0].writers += 1;
            }
            _ => {}
        });
    }
    let stages = |(b, u): &(usize, &Use)| {
        bufs[*b].role == MemRole::Temp
            && u.writers == 1
            && !u.other_reads
            && matches!((u.put_at, u.read_at), (Some(p), Some(r)) if r > p)
    };
    uses.iter().enumerate().filter(stages).map(|(b, _)| b).collect()
}

/// Whether tiles of `rows × cols` elements, `row_stride` apart, at the
/// origins `Σ cᵢ·vᵢ` of the loops `(extent, coefficient)` cover `[0, len)`
/// exactly once: sorted by coefficient, the (coefficient, extent) pairs
/// with `(row_stride, rows)` and `(1, cols)` must form a mixed-radix
/// numbering of the range, each coefficient the product of the ones below
/// it and their extents. O(loops): it never walks the elements.
fn covers_once(
    iters: impl Iterator<Item = (usize, i64)>,
    rows: usize,
    cols: usize,
    row_stride: usize,
    len: usize,
) -> bool {
    let mut digits: Vec<(i64, usize)> = iters.map(|(ext, c)| (c, ext)).collect();
    digits.extend([(row_stride as i64, rows), (1, cols)]);
    digits.retain(|&(_, ext)| ext > 1);
    digits.sort_unstable();
    let mut next = 1i64;
    for (c, ext) in digits {
        if c != next {
            return false;
        }
        next = c * ext as i64;
    }
    next == len as i64
}

/// The state of one coalescing pass over a program's top-level statements.
struct Stager<'p> {
    program: &'p mut Program,
    /// The destinations whose puts may stage ([`put_targets`]).
    targets: Vec<usize>,
    /// The statements so far, gathers and scatters among them.
    out: Vec<Stmt>,
    /// Scratch shared by the top-level statements: the buffers the current
    /// one writes, its enclosing loops (empty between statements), and the
    /// scatters that follow it.
    written: Vec<usize>,
    loops: Vec<(usize, usize)>,
    scatters: Vec<Stmt>,
}

impl Stager<'_> {
    fn rewrite(&mut self, s: &mut Stmt, in_if: bool) {
        match s {
            Stmt::Seq(ss) => ss.iter_mut().for_each(|x| self.rewrite(x, in_if)),
            Stmt::For { var, extent, body } => {
                self.loops.push((*var, *extent));
                self.rewrite(body, in_if);
                self.loops.pop();
            }
            // Guarded transfers are skipped: a boundary guard may suppress
            // transfers whose tiles the staging walk would still move.
            Stmt::If { then_, else_, .. } => {
                self.rewrite(then_, true);
                if let Some(e) = else_ {
                    self.rewrite(e, true);
                }
            }
            Stmt::DmaCg(d) if !in_if => {
                if let Some(cpe) = self.try_coalesce(d) {
                    *s = Stmt::DmaCpe(cpe);
                }
            }
            _ => {}
        }
    }

    fn try_coalesce(&mut self, d: &DmaCg) -> Option<DmaCpe> {
        let put = d.direction == DmaDirection::SpmToMem;
        let eligible = if put {
            self.targets.contains(&d.buf.0)
        } else {
            !self.written.contains(&d.buf.0)
        };
        if !eligible
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
        // enclosing loop, so the staging walk can enumerate exactly the
        // tiles the nest will move.
        let loops = &self.loops;
        let enclosing = |v| loops.iter().any(|&(lv, _)| lv == v);
        let gatherable =
            |(av, c): (AVar, i64)| matches!(av, AVar::Loop(v) if enclosing(v)) && c >= 0;
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
        let len = self.program.mem_bufs[d.buf.0].len;
        let span: i64 = iters().map(|(_, ext, c)| c * (ext as i64 - 1)).sum();
        let last = base + span + ((d.rows - 1) * d.row_stride + d.cols) as i64;
        if last > len as i64 {
            return None;
        }
        let n_iters: usize = iters().map(|(_, ext, _)| ext).product();
        // A put's packed buffer stands in for its destination, which a
        // fused scatter leaves unmaterialised: only gathers add memory.
        let packed_len = n_iters.checked_mul(d.rows * d.cols)?;
        if packed_len > MAX_PACKED_ELEMS && !put {
            return None;
        }
        let pack_iters = || iters().map(|(_, ext, c)| (ext, c));
        if put && !(base == 0 && covers_once(pack_iters(), d.rows, d.cols, d.row_stride, len)) {
            return None;
        }

        // The last gather of these very tiles, if nothing has written its
        // source since (this statement does not: see above).
        let same = |s: &Stmt| match s {
            Stmt::Transform(t) => match &t.kind {
                TransformKind::PackTiles {
                    src, dst, rows, cols, row_stride, mesh_swap, direction, base: b, iters: it,
                } if (*src, *rows, *cols, *row_stride, *mesh_swap, *direction, *b)
                        == (d.buf, d.rows, d.cols, d.row_stride, d.mesh_swap, d.direction, base)
                        && it.iter().copied().eq(pack_iters()) =>
                {
                    Some(*dst)
                }
                _ => None,
            },
            _ => None,
        };
        let out = &self.out;
        let staged = if put {
            None
        } else {
            out.iter().rposition(|s| same(s).is_some()).and_then(|at| {
                let stale = out[at + 1..].iter().any(|s| writes(s, d.buf.0));
                if stale { None } else { same(&out[at]) }
            })
        };
        let packed = match staged {
            Some(packed) => packed,
            None => {
                let name = &self.program.mem_bufs[d.buf.0].name;
                let mut packed_name = String::with_capacity(name.len() + 16);
                write!(packed_name, "{name}_packed{}", self.program.mem_bufs.len())
                    .expect("writing to a String");
                let packed = self.program.mem_buf(packed_name, packed_len, MemRole::Temp);
                let (src, dst) = if put { (packed, d.buf) } else { (d.buf, packed) };
                // Sized exactly: the tree keeps it for as long as it lives.
                let mut iters = Vec::with_capacity(pack_iters().count());
                iters.extend(pack_iters());
                let tiles = Stmt::transform(TransformKind::PackTiles {
                    src,
                    dst,
                    rows: d.rows,
                    cols: d.cols,
                    row_stride: d.row_stride,
                    mesh_swap: d.mesh_swap,
                    direction: d.direction,
                    base,
                    iters,
                });
                if put {
                    self.scatters.push(tiles);
                } else {
                    // After the last writer of the source and the bare
                    // waits that follow it, joining the gathers there.
                    let writer = self.out.iter().rposition(|s| writes(s, d.buf.0));
                    let mut at = writer.map_or(0, |w| w + 1);
                    while self.out.get(at).is_some_and(|s| {
                        is_gather(s) || matches!(s, Stmt::DmaWait { .. })
                    }) {
                        at += 1;
                    }
                    self.out.insert(at, tiles);
                }
                packed
            }
        };

        // Packed layout [lin_iter][rid*8+cid][E]: the replacement transfer
        // is one contiguous block of E elements per CPE per step.
        let e = d.rows * d.cols / 64;
        let steps = iters().rev().scan((64 * e) as i64, |step, (v, ext, _)| {
            let term = (AVar::Loop(v), *step);
            *step *= ext as i64;
            Some(term)
        });
        let mesh = [(AVar::Rid, (8 * e) as i64), (AVar::Cid, e as i64)];
        let offset = AffineExpr::from_terms(mesh.into_iter().chain(steps), 0);
        Some(DmaCpe {
            buf: packed,
            offset,
            block: e,
            stride: e,
            n_blocks: 1,
            direction: d.direction,
            spm: d.spm.clone(),
            reply: d.reply,
            bcast: None,
            fused: false,
        })
    }
}

/// Whether `s` is a coalescing gather.
fn is_gather(s: &Stmt) -> bool {
    matches!(s, Stmt::Transform(t) if matches!(t.kind,
        TransformKind::PackTiles { direction: DmaDirection::MemToSpm, .. }))
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

/// The register-communication bus an unguarded `DMA_CPE` node may broadcast
/// over, if any: the one eligibility test behind [`tag_broadcast`] and
/// behind the analytic model's pricing of a `bcast` program whose tree is
/// not tagged.
///
/// A node is row-broadcastable when the 8 blocks of a mesh row are
/// contiguous (`offset`'s `Cid` coefficient equals `block`) and the leader's
/// merged `8·block` line does not overrun into the next stride period
/// (`n_blocks == 1` or `stride ≥ 8·block`); column-broadcast is the `Rid`
/// mirror. A get that passes broadcasts. A put that passes gathers only
/// where that is priced cheaper: the leaders' 8 wide writes plus the
/// gather against the 64 narrow writes, both in Eq. (1)'s terms at the
/// SW26010's constants, so the optimizer reads no machine. The node's own
/// `bcast` is not read.
pub fn broadcast_bus(d: &DmaCpe) -> Option<BcastBus> {
    if d.block == 0 || (d.n_blocks > 1 && d.stride < 8 * d.block) {
        return None;
    }
    let bus = if d.offset.coeff(AVar::Cid) == d.block as i64 {
        BcastBus::Row
    } else if d.offset.coeff(AVar::Rid) == d.block as i64 {
        BcastBus::Column
    } else {
        return None;
    };
    match d.direction {
        DmaDirection::MemToSpm => Some(bus),
        DmaDirection::SpmToMem => {
            let cfg = MachineConfig::default();
            let cycles = |bus| crate::model::dma_node_cycles(&cfg, d, bus);
            (cycles(Some(bus)) < cycles(None)).then_some(bus)
        }
    }
}

/// Tag unguarded nodes that may broadcast ([`broadcast_bus`]) with their
/// register-communication bus: every eligible get, and every put that
/// gathers cheaper; a node already tagged keeps its bus. Guarded nodes are
/// left untouched — the scatter or gather is a collective over the full
/// mesh and must not diverge.
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
/// is never materialised ([`swatop_ir::Link::Feeds`]) and a sibling run's
/// member ([`swatop_ir::Link::Joins`]) run nothing where they stand: they
/// neither open, continue nor break a run, so a sibling run's last reader
/// chains onto the pipeline open before the run.
///
/// This is the transform-side twin of [`fuse_adjacent_gets`]: coalescing
/// emits its `PackTiles` staging gathers as consecutive runs (and operator
/// lowerings emit their layout-packing setup the same way), so without
/// fusion a schedule with many small staging packs pays one full DRAM
/// round-trip per pack.
pub fn fuse_adjacent_transforms(stmt: &mut Stmt) {
    match stmt {
        Stmt::Seq(ss) => {
            let mut in_run = false;
            for s in ss {
                match s {
                    Stmt::Transform(t) if !t.link.pays() => {}
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
    use swatop_ir::{Link, MemBufId, ReplyId, SpmBufId, SpmSlot};

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

    /// A put of 16×16 tiles into scratch buffer `D` (16×64, row-major),
    /// one tile per step of loop 0 at `offset`.
    fn put_nest(offset: AffineExpr, steps: usize) -> Stmt {
        let put = DmaCg {
            buf: MemBufId(1),
            row_stride: 64,
            direction: DmaDirection::SpmToMem,
            ..strided_get(offset)
        };
        let wait = Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        Stmt::for_(0, steps, Stmt::seq(vec![Stmt::DmaCg(put), wait]))
    }

    /// `nest`, then `more`, then a pack that reads `D` into an output.
    fn put_host(d_role: MemRole, nest: Stmt, more: Vec<Stmt>) -> Program {
        let mut p = host(Stmt::Nop);
        let d = p.mem_buf("D", 16 * 64, d_role);
        let out = p.mem_buf("Y", 16 * 64, MemRole::Output);
        let read = TransformKind::PackTensor { src: d, dst: out, src_dims: vec![1024], perm: vec![0] };
        let mut body = vec![nest];
        body.extend(more);
        body.push(Stmt::transform(read));
        p.set_body(Stmt::seq(body));
        p
    }

    fn strided_puts(p: &Program) -> usize {
        p.body.count(|s| matches!(s, Stmt::DmaCg(d) if d.direction == DmaDirection::SpmToMem))
    }

    #[test]
    fn a_put_covering_its_scratch_buffer_once_lands_contiguously() {
        let tiles = || AffineExpr::loop_var(0).scale(16);
        let mut p = coalesce(put_host(MemRole::Temp, put_nest(tiles(), 4), vec![]));
        assert_eq!(strided_puts(&p), 0);
        let mut put = None;
        p.body.visit(&mut |s| match s {
            Stmt::DmaCpe(d) if d.direction == DmaDirection::SpmToMem => put = Some(d.clone()),
            _ => {}
        });
        let put = put.expect("the staged put");
        assert_eq!((put.buf, put.block, put.stride, put.n_blocks), (MemBufId(3), 4, 4, 1));
        assert_eq!(p.mem_bufs[3].len, 16 * 64);
        // The scatter follows the nest, and producer fusion folds it into
        // the pack that reads the buffer.
        let Stmt::Seq(tops) = &*p.body else { panic!("{:?}", p.body) };
        let scatter = |s: &Stmt| match s {
            Stmt::Transform(t) => match t.kind {
                TransformKind::PackTiles { src, dst, direction, .. } => {
                    Some((src, dst, direction, t.link))
                }
                _ => None,
            },
            _ => None,
        };
        let staged = (MemBufId(3), MemBufId(1), DmaDirection::SpmToMem);
        assert_eq!(scatter(&tops[1]), Some((staged.0, staged.1, staged.2, Link::Alone)));
        crate::optimizer::chains::fuse_chains(&mut p);
        let Stmt::Seq(tops) = &*p.body else { panic!("{:?}", p.body) };
        let fed = Link::Feeds { readers: 1 };
        assert_eq!(scatter(&tops[1]), Some((staged.0, staged.1, staged.2, fed)));
    }

    #[test]
    fn a_put_stays_strided_unless_its_scatter_can_ride_a_reader() {
        let step = |c| AffineExpr::loop_var(0).scale(c);
        let nest = || put_nest(step(16), 4);
        let guarded = {
            let Stmt::For { body, .. } = nest() else { unreachable!() };
            let cond = swatop_ir::Cond::lt_const(AffineExpr::loop_var(0), 3);
            Stmt::for_(0, 4, Stmt::if_(cond, *body))
        };
        let read_back = Stmt::DmaCpe(DmaCpe {
            buf: MemBufId(1),
            offset: AffineExpr::zero(),
            block: 4,
            stride: 4,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(SpmBufId(0)),
            reply: ReplyId(0),
            bcast: None,
            fused: false,
        });
        let refused = [
            ("an output", put_host(MemRole::Output, nest(), vec![])),
            ("a second writer", put_host(MemRole::Temp, nest(), vec![nest()])),
            ("a DMA reader", put_host(MemRole::Temp, nest(), vec![read_back])),
            ("a guard", put_host(MemRole::Temp, guarded, vec![])),
            // Columns 0–16, 24–40 and 48–64 of each row.
            ("a gap", put_host(MemRole::Temp, put_nest(step(24), 3), vec![])),
            // Columns 0–16, 8–24, …, 48–64.
            ("an overlap", put_host(MemRole::Temp, put_nest(step(8), 7), vec![])),
        ];
        for (why, p) in refused {
            let puts = strided_puts(&p);
            let p = coalesce(p);
            assert_eq!((strided_puts(&p), p.mem_bufs.len()), (puts, 3), "{why}");
        }
    }

    #[test]
    fn a_tile_set_is_gathered_once_while_its_source_stands() {
        let wait = || Stmt::DmaWait { reply: ReplyId(0), times: 1 };
        let nest = || {
            let get = Stmt::DmaCg(strided_get(AffineExpr::loop_var(0).scale(16)));
            Stmt::for_(0, 4, Stmt::seq(vec![get, wait()]))
        };
        let gathers = |p: &Program| p.body.count(|s| matches!(s, Stmt::Transform(_)));
        let p = coalesce(host(Stmt::seq(vec![nest(), nest()])));
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
        let p = coalesce(host(body));
        assert_eq!((gathers(&p), p.mem_bufs.len()), (2, 3));
        // The second gather runs after the put and its wait, not before.
        assert_eq!(kinds(&p), "G N P W G N");
    }

    /// The top-level statements of `p`, one letter each: `G`ather, `N`est,
    /// `P`ut, `W`ait.
    fn kinds(p: &Program) -> String {
        let Stmt::Seq(tops) = &*p.body else { panic!("{:?}", p.body) };
        let kind = |s: &Stmt| match s {
            Stmt::Transform(_) => "G",
            Stmt::For { .. } => "N",
            Stmt::DmaCg(_) | Stmt::DmaCpe(_) => "P",
            Stmt::DmaWait { .. } => "W",
            other => panic!("{other:?}"),
        };
        tops.iter().map(kind).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn the_gathers_of_unwritten_sources_run_first() {
        // Two nests over two tile sets of an input: both gathers lead the
        // program, back to back, so they chain into one start-up.
        let nest = |first: i64| {
            let get = strided_get(AffineExpr::loop_var(0).scale(16).add(&AffineExpr::konst(first)));
            let wait = Stmt::DmaWait { reply: ReplyId(0), times: 1 };
            Stmt::for_(0, 4, Stmt::seq(vec![Stmt::DmaCg(get), wait]))
        };
        let p = coalesce(host(Stmt::seq(vec![nest(0), nest(16 * 96)])));
        assert_eq!(kinds(&p), "G G N N");
    }

    #[test]
    fn strided_nest_get_is_coalesced() {
        let get = Stmt::DmaCg(strided_get(AffineExpr::loop_var(0).scale(16)));
        let body = Stmt::for_(
            0,
            4,
            Stmt::seq(vec![get, Stmt::DmaWait { reply: ReplyId(0), times: 1 }]),
        );
        let p = coalesce(host(body));
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
        let p = coalesce(host(body));
        assert_eq!(p.body.count(|s| matches!(s, Stmt::DmaCg(_))), 2);

        // Guarded get: no coalesce.
        let guarded = Stmt::for_(
            0,
            4,
            Stmt::if_(swatop_ir::Cond::lt_const(AffineExpr::loop_var(0), 3), get),
        );
        let p = coalesce(host(guarded));
        assert_eq!(p.body.count(|s| matches!(s, Stmt::DmaCg(_))), 1);
    }

    #[test]
    fn contiguous_get_is_not_coalesced() {
        let mut d = strided_get(AffineExpr::zero());
        d.row_stride = d.cols / 8; // already per-CPE contiguous
        let p = coalesce(host(Stmt::DmaCg(d)));
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

    #[test]
    fn a_put_gathers_only_where_that_is_priced_cheaper() {
        // A put of `n_blocks` blocks of `block`, `stride` apart, whose mesh
        // row (`cid` coefficient = block) or column is one line.
        let put = |block: usize, stride: usize, n_blocks: usize, bus: BcastBus| {
            let (c_r, c_c) = match bus {
                BcastBus::Row => (8 * block as i64, block as i64),
                BcastBus::Column => (block as i64, 8 * block as i64),
            };
            Stmt::DmaCpe(DmaCpe {
                buf: MemBufId(0),
                offset: AffineExpr::zero().add_term(AVar::Rid, c_r).add_term(AVar::Cid, c_c),
                block,
                stride,
                n_blocks,
                direction: DmaDirection::SpmToMem,
                spm: SpmSlot::Single(SpmBufId(0)),
                reply: ReplyId(0),
                bcast: None,
                fused: false,
            })
        };
        let tagged = |mut s: Stmt| {
            tag_broadcast(&mut s);
            let mut bus = None;
            s.visit(&mut |s| {
                if let Stmt::DmaCpe(d) = s {
                    bus = d.bcast;
                }
            });
            bus
        };
        // 8-element blocks fill a sixteenth of a transaction each: the
        // leaders' lines save 7 of every 8 transactions and descriptors.
        for bus in [BcastBus::Row, BcastBus::Column] {
            assert_eq!(tagged(put(8, 8, 1, bus)), Some(bus));
            assert_eq!(tagged(put(8, 64, 8, bus)), Some(bus), "one line per block row");
        }
        let guard = swatop_ir::Cond::lt_const(AffineExpr::loop_var(0), 3);
        let refused = [
            ("a guarded put", Stmt::if_(guard, put(8, 8, 1, BcastBus::Row))),
            // The leader's 64-element line would run into the next block row.
            ("an overlapping leader line", put(8, 32, 4, BcastBus::Row)),
            // Whole transactions already: the gather costs more than the
            // 56 descriptors it saves.
            ("a large block", put(256, 256, 1, BcastBus::Row)),
        ];
        for (why, s) in refused {
            assert_eq!(tagged(s), None, "{why}");
        }
    }
}
