//! Producer fusion: a chain of bulk transforms runs as one pass over main
//! memory.
//!
//! The lowerings materialise their layouts with top-level transforms (the
//! layout packs, im2col, the Winograd transforms, padding copies) and
//! coalescing adds its `PackTiles` gathers and scatters; where one
//! transform's only readers are later transforms, its output need never
//! reach main memory. A staged put's scatter is such a producer: its
//! readers recompute the put's destination from the packed tiles.
//! [`fuse_chains`] marks such a producer [`Link::Feeds`] and each of its
//! readers [`Link::Ends`] (or `Feeds` again, further up a chain), the way
//! TVM fuses injective operators into the kernel that consumes them.
//!
//! A top-level transform `T` (source `S`, destination `D`) feeds its readers
//! when all of these hold:
//! * `T` overwrites all of `D` without reading it ([`TransformKind::pure`]),
//!   and `D` is a scratch buffer, not an input or output;
//! * from `T` until a top-level transform overwrites `D` again, nothing but
//!   later top-level transforms reads `D`, and nothing else writes it;
//! * nothing writes the chain's first source between `T` and each reader,
//!   and no reader writes it or `D`;
//! * each reader's fused traffic, in elements, is no more than `T`'s plus
//!   its own, and the readers' fused traffic together no more than `T`'s
//!   plus theirs. Each fused price ([`crate::model::transform_cost`]) is
//!   then at most the sum of its links' prices, whatever the machine.
//!
//! `D` keeps its declared address range, so no DMA's alignment moves; the
//! interpreter never writes it.
//!
//! Readers of one producer that stand back to back at the top level (as
//! coalescing places its gathers) form a *sibling run* when `D` fits the
//! scratch pads: the run reads the chain's first source once, computes the
//! producer once and writes every reader's output. Its last reader is
//! marked [`Link::Closes`] and carries the run's price; the others are
//! [`Link::Joins`] and cost nothing where they stand. Every reader's output
//! is materialised, since the main loop's DMA reads it. The run's price,
//! one start-up plus the longer of its transfer (`min(Σ readers' reads, the
//! producer's reads) + Σ readers' writes`) and its compute (the producer's
//! plus every reader's), is never more than its readers cost apart.
//!
//! The step reads no hint; it lowers the DMA, riding that walk, and writes
//! only `link` marks.

use std::sync::Arc;

use sw26010::{DmaDirection, ELEM_BYTES, N_CPE, SPM_BYTES};
use swatop_ir::{Link, MemBufDecl, MemRole, Program, Stmt, TransformKind};

use crate::model::transform_compute;
use crate::optimizer::dma_inference::{lower_dma, lower_dma_noting};

/// Lower `program`'s DMA ([`lower_dma`]) and mark the fusable chains of its
/// top-level transforms and their sibling runs. The analysis rides the
/// lowering's walk of the tree, and only if some top-level transform reads
/// what an earlier one wrote; it makes no walk of its own.
pub fn fuse_chains(program: &mut Program) {
    fuse(program, true);
}

/// [`fuse_chains`] without sibling runs, every reader the last link of its
/// own chain: the oracle a run's price is checked against.
#[cfg(test)]
pub(crate) fn fuse_chains_apart(program: &mut Program) {
    fuse(program, false);
}

fn fuse(program: &mut Program, runs: bool) {
    let fusable = reads_an_earlier_output(top_level(&program.body), &program.mem_bufs);
    match Arc::make_mut(&mut program.body) {
        // A lone statement reads no earlier output.
        Stmt::Seq(tops) if fusable => {
            let plan = plan(tops, &program.mem_bufs, runs);
            for (s, top) in tops.iter_mut().zip(plan) {
                if let Stmt::Transform(t) = s {
                    t.link = top.link;
                }
            }
        }
        body => lower_dma(body),
    }
}

fn top_level(body: &Stmt) -> &[Stmt] {
    match body {
        Stmt::Seq(ss) => ss,
        other => std::slice::from_ref(other),
    }
}

fn kind(s: &Stmt) -> Option<&TransformKind> {
    match s {
        Stmt::Transform(t) => Some(&t.kind),
        _ => None,
    }
}

/// Whether `D` may stay unmaterialised: a scratch buffer a pure transform
/// fills from some other buffer.
fn producer(k: &TransformKind, bufs: &[MemBufDecl]) -> bool {
    k.pure() && k.src() != k.dst() && bufs[k.dst().0].role == MemRole::Temp
}

/// The no-walk test: some top-level transform reads the output of an
/// earlier top-level producer.
fn reads_an_earlier_output(tops: &[Stmt], bufs: &[MemBufDecl]) -> bool {
    tops.iter().enumerate().any(|(j, s)| {
        kind(s).is_some_and(|c| {
            tops[..j].iter().filter_map(kind).any(|p| p.dst() == c.src() && producer(p, bufs))
        })
    })
}

/// A set of main-memory buffers, buffer `b` as bit `b % 128`: a buffer past
/// the 128th shares a bit, so membership may be claimed falsely and is only
/// ever read to refuse a fusion.
#[derive(Clone, Copy, Default)]
struct Bufs(u128);

impl Bufs {
    fn insert(&mut self, buf: usize) {
        self.0 |= 1 << (buf % 128);
    }

    fn may_hold(self, buf: usize) -> bool {
        self.0 & (1 << (buf % 128)) != 0
    }
}

/// What the analysis keeps of one top-level statement.
#[derive(Clone, Copy)]
struct Top {
    /// A transform's price, as fused so far.
    pass: Option<Pass>,
    link: Link,
    /// The statement whose output a [`Link::Ends`] reader reads.
    fed_by: usize,
    /// The buffers anything in the statement reads or writes, and writes.
    touched: Bufs,
    written: Bufs,
}

impl Top {
    /// The analysis of top-level statement `s`, lowering its DMA.
    fn of(s: &mut Stmt) -> Self {
        let (mut touched, mut written) = (Bufs::default(), Bufs::default());
        let mut put = |buf: usize, write: bool| {
            touched.insert(buf);
            if write {
                written.insert(buf);
            }
        };
        // Top-level transforms are read off their kind and hold no DMA;
        // only the rest is walked.
        let pass = kind(s).map(Pass::of);
        if pass.is_none() {
            lower_dma_noting(s, &mut |x| match x {
                Stmt::DmaCpe(d) => put(d.buf.0, d.direction == DmaDirection::SpmToMem),
                Stmt::Transform(t) => {
                    put(t.kind.src().0, false);
                    put(t.kind.dst().0, true);
                }
                _ => {}
            });
        }
        Top { pass, link: Link::Alone, fed_by: 0, touched, written }
    }
}

/// What a top-level transform's price reads, as things stand.
#[derive(Clone, Copy)]
struct Pass {
    /// Elements of the chain's first source it reads.
    reads: f64,
    writes: u64,
    compute: u64,
    /// The chain's first source.
    root: usize,
}

impl Pass {
    fn of(k: &TransformKind) -> Self {
        let (reads, writes, flops) = k.traffic();
        let compute = transform_compute(writes, flops);
        Pass { reads: reads as f64, writes, compute, root: k.src().0 }
    }

    fn traffic(&self) -> f64 {
        self.reads + self.writes as f64
    }

    /// Whether this pass's output fits the cluster's scratch pads, its
    /// share per CPE no more than one CPE's [`SPM_BYTES`].
    fn resident(&self) -> bool {
        self.writes.div_ceil(N_CPE as u64) <= (SPM_BYTES / ELEM_BYTES) as u64
    }

    /// This pass with producer `p` fused in. A reader that reads its
    /// predecessor's output more than once (overlapping tiles) re-reads it
    /// on chip when that output is [`Pass::resident`]; a larger output is
    /// recomputed from the chain's source for every re-read.
    fn after(&self, p: &Pass) -> Pass {
        let ratio = self.reads / p.writes.max(1) as f64;
        let reads = p.reads * if p.resident() { ratio.min(1.0) } else { ratio };
        Pass { reads, writes: self.writes, compute: p.compute + self.compute, root: p.root }
    }
}

/// The analysis of every top-level statement, deciding each producer in
/// order, then the sibling runs if `runs`. One allocation.
fn plan(tops: &mut [Stmt], bufs: &[MemBufDecl], runs: bool) -> Vec<Top> {
    let mut plan: Vec<Top> = tops.iter_mut().map(Top::of).collect();
    let tops = &*tops;
    for (i, s) in tops.iter().enumerate() {
        let Some(k) = kind(s).filter(|k| producer(k, bufs)) else { continue };
        let dst = k.dst().0;
        let p = pass(&plan[i]);
        let Some(end) = window(tops, &plan, i, dst, p.root) else { continue };
        // The readers: the top-level transforms of the window that read D.
        let readers = || (i + 1..end).filter(|&j| kind(&tops[j]).is_some_and(|r| r.src().0 == dst));
        let own = |j: usize| pass(&plan[j]);
        let each_cheaper =
            readers().all(|j| own(j).after(&p).traffic() <= p.traffic() + own(j).traffic());
        let together: f64 = readers().map(|j| own(j).after(&p).traffic()).sum();
        let apart: f64 = p.traffic() + readers().map(|j| own(j).traffic()).sum::<f64>();
        let fits = readers().all(|j| u32::try_from(own(j).after(&p).compute).is_ok());
        if !(each_cheaper && together <= apart && fits) {
            continue;
        }
        let n = readers().count() as u32;
        for j in (i + 1..end).filter(|&j| kind(&tops[j]).is_some_and(|r| r.src().0 == dst)) {
            let f = pass(&plan[j]).after(&p);
            plan[j].pass = Some(f);
            plan[j].link = Link::Ends { reads: f.reads.ceil() as u64, compute: f.compute as u32 };
            plan[j].fed_by = i;
        }
        plan[i].link = Link::Feeds { readers: n };
    }
    if runs {
        share_runs(&mut plan);
    }
    plan
}

/// Join each run of two or more [`Link::Ends`] readers of one producer
/// that stand back to back into one pass, when the producer's output is
/// [`Pass::resident`] and the run's compute fits its mark. A reader that
/// feeds a later link is no member: its output is never materialised.
fn share_runs(plan: &mut [Top]) {
    let mut j = 0;
    while j < plan.len() {
        let from = plan[j].fed_by;
        let member = |t: &Top| matches!(t.link, Link::Ends { .. }) && t.fed_by == from;
        let n = plan[j..].iter().take_while(|t| member(t)).count();
        if n < 2 {
            j += 1;
            continue;
        }
        let (run, p) = (j..j + n, pass(&plan[from]));
        j += n;
        let members = || plan[run.clone()].iter().map(pass);
        // Every member's fused compute counts the producer's once.
        let compute = p.compute + members().map(|m| m.compute - p.compute).sum::<u64>();
        let (Ok(compute), true) = (u32::try_from(compute), p.resident()) else { continue };
        let reads = members().map(|m| m.reads).sum::<f64>().min(p.reads).ceil() as u64;
        let writes = members().map(|m| m.writes).sum();
        let (last, joined) = plan[run].split_last_mut().expect("a run has members");
        joined.iter_mut().for_each(|t| t.link = Link::Joins);
        last.link = Link::Closes { reads, writes, compute };
    }
}

fn pass(t: &Top) -> Pass {
    t.pass.expect("a link is a transform")
}

/// The end (exclusive) of the window in which later top-level transforms
/// may read `dst`, the output of top-level statement `at`: the next
/// top-level transform that overwrites it, or the program's end. None when
/// something else reads or writes `dst` in the window, when a reader writes
/// `dst` or `root` or comes after something wrote `root`, or when the
/// window holds no reader.
fn window(tops: &[Stmt], plan: &[Top], at: usize, dst: usize, root: usize) -> Option<usize> {
    let (mut root_written, mut readers) = (false, 0);
    for (j, s) in tops.iter().enumerate().skip(at + 1) {
        let Some(k) = kind(s) else {
            if plan[j].touched.may_hold(dst) {
                return None;
            }
            root_written |= plan[j].written.may_hold(root);
            continue;
        };
        let (src, own) = (k.src().0, k.dst().0);
        if src == dst {
            if root_written || own == dst || own == root {
                return None;
            }
            readers += 1;
        } else if own == dst {
            // A pure transform closes the window; any other writer would
            // leave part of the unmaterialised output in place.
            if k.pure() {
                return (readers > 0).then_some(j);
            }
            return None;
        } else {
            root_written |= own == root;
        }
    }
    (readers > 0).then_some(tops.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::MachineConfig;
    use swatop_ir::{AffineExpr, DmaCpe, MemBufId, ReplyId, SpmBufId, SpmSlot, TransformOp};
    use swtensor::ConvShape;

    use crate::model::transform_cost;

    fn pack(src: MemBufId, dst: MemBufId, n: usize) -> Stmt {
        Stmt::transform(TransformKind::PackTensor { src, dst, src_dims: vec![n], perm: vec![0] })
    }

    fn get(buf: MemBufId) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf,
            offset: AffineExpr::zero(),
            block: 4,
            stride: 4,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::single(SpmBufId(0)),
            reply: ReplyId(0),
            bcast: None,
            fused: false,
        })
    }

    fn put(buf: MemBufId) -> Stmt {
        let Stmt::DmaCpe(d) = get(buf) else { unreachable!() };
        Stmt::DmaCpe(DmaCpe { direction: DmaDirection::SpmToMem, ..d })
    }

    fn links(p: &Program) -> Vec<Link> {
        let mut out = Vec::new();
        p.body.visit(&mut |s| {
            if let Stmt::Transform(t) = s {
                out.push(t.link);
            }
        });
        out
    }

    /// A program over `n` buffers of `len` elements: the first an input,
    /// the last an output, the rest scratch.
    fn program(n: usize, len: usize, body: Vec<Stmt>) -> (Program, Vec<MemBufId>) {
        let mut p = Program::new("chain");
        let ids: Vec<MemBufId> = (0..n)
            .map(|i| {
                let role = match i {
                    0 => MemRole::Input,
                    _ if i == n - 1 => MemRole::Output,
                    _ => MemRole::Temp,
                };
                p.mem_buf(format!("b{i}"), len, role)
            })
            .collect();
        p.spm_buf("s", 4);
        p.set_body(Stmt::seq(body));
        (p, ids)
    }

    fn fused(n: usize, len: usize, body: impl Fn(&[MemBufId]) -> Vec<Stmt>) -> Vec<Link> {
        let ids: Vec<MemBufId> = (0..n).map(MemBufId).collect();
        let (mut p, _) = program(n, len, body(&ids));
        fuse_chains(&mut p);
        links(&p)
    }

    const FEEDS_ONE: Link = Link::Feeds { readers: 1 };

    #[test]
    fn a_producer_with_one_reader_feeds_it() {
        let got = fused(3, 64, |b| vec![pack(b[0], b[1], 64), pack(b[1], b[2], 64)]);
        let compute = 2 * transform_compute(64, 0) as u32;
        assert_eq!(got, vec![FEEDS_ONE, Link::Ends { reads: 64, compute }]);
    }

    #[test]
    fn im2col_pack_and_pack_tiles_run_as_one_pass() {
        let shape = ConvShape::square(1, 8, 8, 8);
        let cols = swtensor::im2col::im2col_elems(&shape);
        let mut p = Program::new("explicit");
        let x = p.mem_buf("x", shape.input_shape().numel(), MemRole::Input);
        let c = p.mem_buf("cols", cols, MemRole::Temp);
        let t = p.mem_buf("colsT", cols, MemRole::Temp);
        let staged = p.mem_buf("staged", cols, MemRole::Temp);
        let k = 8 * 9;
        let n = cols / k;
        p.spm_buf("s", 4);
        let tiles = TransformKind::PackTiles {
            src: t,
            dst: staged,
            rows: n,
            cols: k,
            row_stride: k,
            mesh_swap: false,
            direction: DmaDirection::MemToSpm,
            base: 0,
            iters: vec![(1, 0)],
        };
        p.set_body(Stmt::seq(vec![
            Stmt::transform(TransformKind::Im2col { shape, src: x, dst: c }),
            Stmt::transform(TransformKind::PackTensor {
                src: c,
                dst: t,
                src_dims: vec![k, n],
                perm: vec![1, 0],
            }),
            Stmt::transform(tiles.clone()),
            get(staged),
        ]));
        let apart: u64 = [
            TransformKind::Im2col { shape, src: x, dst: c },
            TransformKind::PackTensor { src: c, dst: t, src_dims: vec![k, n], perm: vec![1, 0] },
            tiles,
        ]
        .into_iter()
        .map(|k| transform_cost(&MachineConfig::default(), &TransformOp::new(k)).get())
        .sum();
        fuse_chains(&mut p);
        let got = links(&p);
        assert_eq!(got[..2], [FEEDS_ONE, FEEDS_ONE]);
        // The chain reads the input once: a plane is one band of im2col.
        let Link::Ends { reads, .. } = got[2] else { panic!("{got:?}") };
        assert_eq!(reads, shape.input_shape().numel() as u64);
        let mut end = None;
        p.body.visit(&mut |s| match s {
            Stmt::Transform(t) if matches!(t.link, Link::Ends { .. }) => end = Some(t.clone()),
            _ => {}
        });
        let one_pass = transform_cost(&MachineConfig::default(), &end.unwrap()).get();
        assert!(one_pass * 2 < apart, "{one_pass} vs {apart} apart");
    }

    #[test]
    fn a_reader_rereads_on_chip_only_an_output_that_fits_the_scratch_pads() {
        // A gather that reads its producer's output twice over.
        let twice = |b: &[MemBufId], n: usize| {
            Stmt::transform(TransformKind::PackTiles {
                src: b[1],
                dst: b[2],
                rows: n / 64,
                cols: 64,
                row_stride: 64,
                mesh_swap: false,
                direction: DmaDirection::MemToSpm,
                base: 0,
                iters: vec![(2, 0)],
            })
        };
        let fits = N_CPE * SPM_BYTES / ELEM_BYTES;
        for (n, reads) in [(fits, fits), (2 * fits, 4 * fits)] {
            let got = fused(3, 2 * n, |b| vec![pack(b[0], b[1], n), twice(b, n)]);
            let ends =
                matches!(got[..], [FEEDS_ONE, Link::Ends { reads: r, .. }] if r == reads as u64);
            assert!(ends, "{n} elements: {got:?}");
        }
    }

    /// The transforms of `p` at the top level, in order.
    fn transforms(p: &Program) -> Vec<TransformOp> {
        top_level(&p.body)
            .iter()
            .filter_map(|s| match s {
                Stmt::Transform(t) => Some(t.clone()),
                _ => None,
            })
            .collect()
    }

    fn price(t: &TransformOp) -> u64 {
        transform_cost(&MachineConfig::default(), t).get()
    }

    #[test]
    fn readers_that_stand_back_to_back_share_one_pass() {
        let body = |b: &[MemBufId]| {
            vec![pack(b[0], b[1], 64), pack(b[1], b[2], 64), pack(b[1], b[3], 64), put(b[3])]
        };
        let compute = 3 * transform_compute(64, 0) as u32;
        let run = Link::Closes { reads: 64, writes: 128, compute };
        assert_eq!(fused(5, 64, body), vec![Link::Feeds { readers: 2 }, Link::Joins, run]);
        // One start-up, the source read once, both outputs written: never
        // more than the two readers as chain ends of their own.
        let ids: Vec<MemBufId> = (0..5).map(MemBufId).collect();
        let (mut shared, _) = program(5, 64, body(&ids));
        let mut apart = shared.clone();
        fuse_chains(&mut shared);
        fuse_chains_apart(&mut apart);
        let (shared, apart) = (transforms(&shared), transforms(&apart));
        assert!(apart[1..].iter().all(|t| matches!(t.link, Link::Ends { .. })), "{apart:?}");
        let apart: u64 = apart[1..].iter().map(price).sum();
        assert!(price(&shared[2]) < apart, "{} against {apart}", price(&shared[2]));
        assert_eq!(price(&shared[1]), 0);
        // Further up a chain: the run reads the chain's first source, and a
        // reader that feeds a later link is no member.
        let got = fused(6, 64, |b| {
            let (p01, p12) = (pack(b[0], b[1], 64), pack(b[1], b[2], 64));
            vec![p01, p12, pack(b[2], b[3], 64), pack(b[2], b[4], 64), pack(b[4], b[5], 64)]
        });
        let ends = |l: &Link| matches!(l, Link::Ends { reads: 64, .. });
        assert!(got[..2] == [FEEDS_ONE, Link::Feeds { readers: 2 }], "{got:?}");
        assert!(ends(&got[2]) && got[3] == FEEDS_ONE && ends(&got[4]), "{got:?}");
        let got = fused(6, 64, |b| {
            let (p01, p12) = (pack(b[0], b[1], 64), pack(b[1], b[2], 64));
            vec![p01, p12, pack(b[2], b[3], 64), pack(b[2], b[4], 64), put(b[4])]
        });
        assert!(matches!(got[3], Link::Closes { reads: 64, writes: 128, .. }), "{got:?}");
        assert_eq!(got[..3], [FEEDS_ONE, Link::Feeds { readers: 2 }, Link::Joins]);
    }

    #[test]
    fn a_sibling_run_is_refused_where_its_one_pass_is_not_sound() {
        let two_ends = |got: &[Link]| {
            got.len() == 3
                && got[0] == Link::Feeds { readers: 2 }
                && got[1..].iter().all(|l| matches!(l, Link::Ends { .. }))
        };
        // Readers that do not stand back to back.
        let got = fused(5, 64, |b| {
            vec![pack(b[0], b[1], 64), pack(b[1], b[2], 64), get(b[2]), pack(b[1], b[3], 64)]
        });
        assert!(two_ends(&got), "{got:?}");
        // A producer's output past the scratch pads' bound.
        let past = N_CPE * SPM_BYTES / ELEM_BYTES + 64;
        let got = fused(5, past, |b| {
            vec![pack(b[0], b[1], past), pack(b[1], b[2], past), pack(b[1], b[3], past)]
        });
        assert!(two_ends(&got), "{got:?}");
        // A reader that writes the chain's first source, and a writer of
        // that source between members, refuse the chain and so the run.
        let got = fused(5, 64, |b| {
            vec![pack(b[1], b[2], 64), pack(b[2], b[3], 64), pack(b[2], b[1], 64)]
        });
        assert_eq!(got, vec![Link::Alone; 3]);
        let got = fused(6, 64, |b| {
            let writer = pack(b[0], b[1], 64);
            vec![pack(b[1], b[2], 64), pack(b[2], b[3], 64), writer, pack(b[2], b[4], 64)]
        });
        assert_eq!(got, vec![Link::Alone; 4]);
    }

    #[test]
    fn a_whole_cover_copy_that_keeps_its_destination_is_a_producer() {
        let copy = |b: &[MemBufId], take_cols: usize| {
            Stmt::transform(TransformKind::PadSubmatrix {
                src: b[0],
                src_rows: 4,
                src_cols: 16,
                r0: 1,
                c0: 0,
                take_rows: 1,
                take_cols,
                dst: b[1],
                dst_rows: 1,
                dst_cols: 16,
                zero_first: false,
            })
        };
        let whole = fused(3, 64, |b| vec![copy(b, 16), pack(b[1], b[2], 16)]);
        assert!(matches!(whole[..], [FEEDS_ONE, Link::Ends { .. }]));
        // Copying part of the row reads the rest of the destination.
        let part = fused(3, 64, |b| vec![copy(b, 8), pack(b[1], b[2], 16)]);
        assert_eq!(part, vec![Link::Alone; 2]);
    }

    #[test]
    fn a_dma_reading_the_intermediate_refuses_fusion() {
        let got = fused(3, 64, |b| vec![pack(b[0], b[1], 64), get(b[1]), pack(b[1], b[2], 64)]);
        assert_eq!(got, vec![Link::Alone; 2]);
    }

    #[test]
    fn a_source_written_in_between_refuses_fusion() {
        let got = fused(4, 64, |b| vec![pack(b[1], b[2], 64), put(b[1]), pack(b[2], b[3], 64)]);
        assert_eq!(got, vec![Link::Alone; 2]);
        // A reader recomputes the chain from its first source, so rewriting
        // a middle link's source after that link ran is harmless.
        let got = fused(4, 64, |b| {
            let (p01, p12) = (pack(b[0], b[1], 64), pack(b[1], b[2], 64));
            vec![p01.clone(), p12, p01, pack(b[2], b[3], 64)]
        });
        let compute = 3 * transform_compute(64, 0) as u32;
        assert_eq!(got, vec![FEEDS_ONE, FEEDS_ONE, Link::Alone, Link::Ends { reads: 64, compute }]);
    }

    #[test]
    fn a_producer_that_reads_its_destination_is_not_fused() {
        let unpad = |b: &[MemBufId]| {
            Stmt::transform(TransformKind::UnpadSubmatrix {
                src: b[0],
                src_rows: 8,
                src_cols: 8,
                dst: b[1],
                dst_rows: 8,
                dst_cols: 8,
                r0: 0,
                c0: 0,
                take_rows: 8,
                take_cols: 8,
            })
        };
        let got = fused(3, 64, |b| vec![unpad(b), pack(b[1], b[2], 64)]);
        assert_eq!(got, vec![Link::Alone; 2]);
    }

    #[test]
    fn outputs_and_loops_are_left_alone() {
        // The output buffer is read back by the caller.
        let got = fused(2, 64, |b| vec![pack(b[0], b[1], 64), pack(b[1], b[0], 64)]);
        assert_eq!(got, vec![Link::Alone; 2]);
        // A transform inside a loop reads the intermediate.
        let got =
            fused(3, 64, |b| vec![pack(b[0], b[1], 64), Stmt::for_(0, 2, pack(b[1], b[2], 64))]);
        assert_eq!(got, vec![Link::Alone; 2]);
    }
}
