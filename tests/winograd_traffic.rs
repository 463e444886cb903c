//! The main-memory reads of the transforms that stage row bands on chip
//! (DESIGN.md §20): the Winograd transforms and the im2col unfold.
//!
//! The Winograd input transform stages a band of tile rows of one input
//! plane on chip and computes every overlapping 4×4 tile from there, and
//! `Im2col` stages a band of output rows' input rows and writes their
//! `Kr·Kc` column-matrix rows from there (`RowBands`), so each price reads
//! an input element once per band that covers it. Here a brute-force count
//! of the elements each band's outputs touch is the oracle for that price,
//! and on every candidate of `every_op()` no such transform reads more than
//! it used to be charged: 16 values per Winograd tile, one read per
//! im2col output.

mod common;

use std::collections::HashSet;

use swatop_repro::ir::{MemBufId, RowBands, Stmt, TransformKind, TransformOp};
use swatop_repro::sw26010::{Cycles, MachineConfig};
use swatop_repro::swatop::model::{transform_compute, transform_cost};
use swatop_repro::swatop::scheduler::Scheduler;
use swatop_repro::swtensor::winograd::{n_tiles, tile_grid};
use swatop_repro::swtensor::im2col::im2col_elems;
use swatop_repro::swtensor::ConvShape;

fn shape(b: usize, ro: usize, co: usize, pad: usize) -> ConvShape {
    ConvShape { b, ni: 3, no: 8, ro, co, kr: 3, kc: 3, stride: 1, pad }
}

fn input_transform(s: &ConvShape) -> TransformKind {
    let nt_pad = n_tiles(s).next_multiple_of(32);
    TransformKind::WinogradInput { shape: *s, src: MemBufId(0), dst: MemBufId(1), nt_pad }
}

/// The input elements `plan` fetches, counted tile by tile: per plane and
/// band, the distinct real elements the band's 4×4 tiles cover. Also
/// checks that the bands take every tile row once and fit `budget` (a
/// one-row band excepted).
fn brute_force_reads(s: &ConvShape, plan: &RowBands, budget: usize) -> u64 {
    let (tr, tc) = tile_grid(s);
    let (ri, ci) = (s.ri() as isize, s.ci() as isize);
    let tile_rows: Vec<usize> = (0..tr).collect();
    let bands: Vec<&[usize]> = tile_rows.chunks(plan.rows).collect();
    assert_eq!(bands.len(), plan.count(), "{s:?}");
    let mut reads = 0;
    for _plane in 0..s.b * s.ni {
        for band in &bands {
            let mut fetched = HashSet::new();
            for &t_r in *band {
                for t_c in 0..tc {
                    for i in 0..4 {
                        for j in 0..4 {
                            let r = (2 * t_r + i) as isize - s.pad as isize;
                            let c = (2 * t_c + j) as isize - s.pad as isize;
                            if (0..ri).contains(&r) && (0..ci).contains(&c) {
                                fetched.insert((r, c));
                            }
                        }
                    }
                }
            }
            let footprint = fetched.len() + 16 * band.len() * tc;
            assert!(band.len() == 1 || footprint <= budget, "{s:?}: a band of {footprint} > {budget}");
            reads += fetched.len() as u64;
        }
    }
    reads
}

#[test]
fn the_input_transform_reads_what_its_bands_fetch() {
    let mut banded = 0;
    for b in 1..=3 {
        for pad in 0..=1 {
            for (ro, co) in [(4, 4), (5, 7), (8, 6), (9, 9), (16, 13)] {
                let s = shape(b, ro, co, pad);
                let whole = RowBands::winograd(&s);
                assert_eq!(whole.count(), 1, "{s:?}: a small plane is one band");
                let reads = input_transform(&s).traffic().0;
                assert_eq!(reads, brute_force_reads(&s, &whole, RowBands::SPM_SHARE), "{s:?}");
                assert_eq!(reads, (s.b * s.ni * s.ri() * s.ci()) as u64, "{s:?}: each element once");
                // A scratch pad too small for the plane: at least two bands,
                // whose 2-row halos are read twice.
                let budget = s.ri() * s.ci() + 16 * n_tiles(&s) / s.b - 1;
                let bands = whole.at(budget);
                if tile_grid(&s).0 > 1 {
                    assert!(bands.count() >= 2, "{s:?}: {bands:?}");
                    banded += 1;
                }
                let brute = brute_force_reads(&s, &bands, budget);
                assert_eq!(bands.reads(), brute, "{s:?} at {budget}");
                let tight = whole.at(1);
                assert_eq!(tight.rows, 1, "{s:?}");
                let brute = brute_force_reads(&s, &tight, 1);
                assert_eq!(tight.reads(), brute, "{s:?}: one tile row a band");
            }
        }
    }
    assert!(banded >= 20, "only {banded} banded plans");
    // At paper size the real share bands the plane: VGG-16's first layers.
    let s = ConvShape { b: 1, ni: 1, no: 64, ro: 224, co: 224, kr: 3, kc: 3, stride: 1, pad: 1 };
    let plan = RowBands::winograd(&s);
    assert!(plan.count() >= 2, "{plan:?}");
    assert_eq!(input_transform(&s).traffic().0, brute_force_reads(&s, &plan, RowBands::SPM_SHARE));
}

/// `transform_cost` of a lone pass that reads `reads` elements, with the
/// kind's own writes and compute.
fn price_at(cfg: &MachineConfig, k: &TransformKind, reads: u64) -> Cycles {
    let (_, writes, flops) = k.traffic();
    let transfer = (4 * (reads + writes)) as f64 / cfg.mem_bytes_per_cycle;
    cfg.dma_startup + Cycles((transfer.ceil() as u64).max(transform_compute(writes, flops)))
}

/// Checks, on every top-level transform of every candidate of
/// `every_op()` for which `old` gives the reads it used to be charged, that
/// it reads no more than that and that its price follows its reads.
/// Returns how many it checked.
fn reads_at_most(old: impl Fn(&TransformKind) -> Option<u64>) -> usize {
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let mut seen = 0;
    for op in common::every_op() {
        for cand in sched.enumerate(op.as_ref()) {
            let tops = match &*cand.raw.body {
                Stmt::Seq(ss) => ss.to_vec(),
                other => vec![other.clone()],
            };
            for s in tops {
                let Stmt::Transform(t) = s else { continue };
                let Some(old) = old(&t.kind) else { continue };
                let (reads, ..) = t.kind.traffic();
                assert!(reads <= old, "{}: {reads} > {old}", cand.describe);
                let price = transform_cost(&cfg, &TransformOp::new(t.kind.clone()));
                assert_eq!(price, price_at(&cfg, &t.kind, reads), "{}", cand.describe);
                assert!(price <= price_at(&cfg, &t.kind, old), "{}", cand.describe);
                seen += 1;
            }
        }
    }
    seen
}

#[test]
fn no_winograd_transform_reads_more_than_its_tiles() {
    let seen = reads_at_most(|k| {
        let old = match k {
            TransformKind::WinogradInput { shape, nt_pad, .. } => 16 * shape.ni * nt_pad,
            TransformKind::WinogradOutput { shape, nt_pad, .. } => 16 * shape.no * nt_pad,
            _ => return None,
        };
        Some(old as u64)
    });
    assert!(seen >= 2, "only {seen} Winograd transforms");
}

fn unfold(s: &ConvShape) -> TransformKind {
    TransformKind::Im2col { shape: *s, src: MemBufId(0), dst: MemBufId(1) }
}

/// The input elements an im2col `plan` fetches, counted output by output:
/// per band of output rows, the distinct real elements its rows' `Kr·Kc`
/// taps read, once per plane. Also checks that the bands take every output
/// row once and fit `budget` with the `Kr·Kc·Co` values each output row
/// holds (a one-row band excepted).
fn brute_force_unfold_reads(s: &ConvShape, plan: &RowBands, budget: usize) -> u64 {
    let (ri, ci) = (s.ri() as isize, s.ci() as isize);
    let at = |o: usize, tap: usize| (o * s.stride + tap) as isize - s.pad as isize;
    let out_rows: Vec<usize> = (0..s.ro).collect();
    let bands: Vec<&[usize]> = out_rows.chunks(plan.rows).collect();
    assert_eq!(bands.len(), plan.count(), "{s:?}");
    let mut per_plane = 0;
    for band in bands {
        let mut fetched = HashSet::new();
        for &r in band {
            for kr in 0..s.kr {
                for c in 0..s.co {
                    for kc in 0..s.kc {
                        let (y, x) = (at(r, kr), at(c, kc));
                        if (0..ri).contains(&y) && (0..ci).contains(&x) {
                            fetched.insert((y, x));
                        }
                    }
                }
            }
        }
        let footprint = fetched.len() + s.kr * s.kc * s.co * band.len();
        assert!(band.len() == 1 || footprint <= budget, "{s:?}: a band of {footprint} > {budget}");
        per_plane += fetched.len() as u64;
    }
    per_plane * (s.b * s.ni) as u64
}

#[test]
fn the_unfold_reads_what_its_bands_fetch() {
    let mut banded = 0;
    for b in 1..=3 {
        for pad in 0..=1 {
            for stride in 1..=2 {
                for k in [1, 3] {
                    for (ro, co) in [(4, 4), (5, 7), (8, 6), (9, 9), (16, 13)] {
                        let s = ConvShape { b, ni: 3, no: 8, ro, co, kr: k, kc: k, stride, pad };
                        let whole = RowBands::im2col(&s);
                        assert_eq!(whole.count(), 1, "{s:?}: a small plane is one band");
                        let (reads, written, _) = unfold(&s).traffic();
                        let share = RowBands::SPM_SHARE;
                        assert_eq!(reads, brute_force_unfold_reads(&s, &whole, share), "{s:?}");
                        assert!(reads <= written, "{s:?}: {reads} > {written}");
                        if k >= stride {
                            let input = (s.b * s.ni * s.ri() * s.ci()) as u64;
                            assert_eq!(reads, input, "{s:?}: each element once");
                        }
                        // A scratch pad one element short of the plane: at
                        // least two bands, whose halos are read twice.
                        let plane = reads as usize / (s.b * s.ni);
                        let budget = plane + s.kr * s.kc * s.co * s.ro - 1;
                        let bands = whole.at(budget);
                        assert!(bands.count() >= 2, "{s:?}: {bands:?}");
                        banded += 1;
                        let brute = brute_force_unfold_reads(&s, &bands, budget);
                        assert_eq!(bands.reads(), brute, "{s:?} at {budget}");
                        let tight = whole.at(1);
                        assert_eq!(tight.rows, 1, "{s:?}");
                        let brute = brute_force_unfold_reads(&s, &tight, 1);
                        assert_eq!(tight.reads(), brute, "{s:?}: one output row a band");
                    }
                }
            }
        }
    }
    assert_eq!(banded, 120);
    // At paper size the real share bands the plane: VGG-16's first layers.
    let s = ConvShape { b: 1, ni: 1, no: 64, ro: 224, co: 224, kr: 3, kc: 3, stride: 1, pad: 1 };
    let plan = RowBands::im2col(&s);
    assert!(plan.count() >= 2, "{plan:?}");
    let brute = brute_force_unfold_reads(&s, &plan, RowBands::SPM_SHARE);
    assert_eq!(unfold(&s).traffic().0, brute);
}

#[test]
fn no_unfold_reads_more_than_it_writes() {
    let seen = reads_at_most(|k| match k {
        TransformKind::Im2col { shape, .. } => Some(im2col_elems(shape) as u64),
        _ => None,
    });
    // The explicit, backward-data and backward-filter spaces unfold.
    assert!(seen >= 3, "only {seen} unfolds");
}
