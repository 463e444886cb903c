//! The Winograd transforms' main-memory reads (DESIGN.md §20).
//!
//! The input transform stages a band of tile rows of one input plane on
//! chip and computes every overlapping 4×4 tile from there
//! (`WinogradBands`), so its price reads each input element once per band
//! that covers it. Here a brute-force count of the elements each band's
//! tiles touch is the oracle for that price, and on every Winograd
//! candidate of `every_op()` neither transform reads more than the 16
//! values per tile it used to be charged.

mod common;

use std::collections::HashSet;

use swatop_repro::ir::{MemBufId, Stmt, TransformKind, TransformOp, WinogradBands};
use swatop_repro::sw26010::{Cycles, MachineConfig};
use swatop_repro::swatop::model::{transform_compute, transform_cost};
use swatop_repro::swatop::scheduler::Scheduler;
use swatop_repro::swtensor::winograd::{n_tiles, tile_grid};
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
fn brute_force_reads(plan: &WinogradBands, budget: usize) -> u64 {
    let s = &plan.shape;
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
                let whole = WinogradBands::of(&s);
                assert_eq!(whole.count(), 1, "{s:?}: a small plane is one band");
                let reads = input_transform(&s).traffic().0;
                assert_eq!(reads, brute_force_reads(&whole, WinogradBands::SPM_SHARE), "{s:?}");
                assert_eq!(reads, (s.b * s.ni * s.ri() * s.ci()) as u64, "{s:?}: each element once");
                // A scratch pad too small for the plane: at least two bands,
                // whose 2-row halos are read twice.
                let budget = s.ri() * s.ci() + 16 * n_tiles(&s) / s.b - 1;
                let bands = WinogradBands::plan(&s, budget);
                if tile_grid(&s).0 > 1 {
                    assert!(bands.count() >= 2, "{s:?}: {bands:?}");
                    banded += 1;
                }
                assert_eq!(bands.reads(), brute_force_reads(&bands, budget), "{s:?} at {budget}");
                let tight = WinogradBands::plan(&s, 1);
                assert_eq!(tight.rows, 1, "{s:?}");
                assert_eq!(tight.reads(), brute_force_reads(&tight, 1), "{s:?}: one tile row a band");
            }
        }
    }
    assert!(banded >= 20, "only {banded} banded plans");
    // At paper size the real share bands the plane: VGG-16's first layers.
    let s = ConvShape { b: 1, ni: 1, no: 64, ro: 224, co: 224, kr: 3, kc: 3, stride: 1, pad: 1 };
    let plan = WinogradBands::of(&s);
    assert!(plan.count() >= 2, "{plan:?}");
    assert_eq!(input_transform(&s).traffic().0, brute_force_reads(&plan, WinogradBands::SPM_SHARE));
}

/// `transform_cost` of a lone pass that reads `reads` elements, with the
/// kind's own writes and compute.
fn price_at(cfg: &MachineConfig, k: &TransformKind, reads: u64) -> Cycles {
    let (_, writes, flops) = k.traffic();
    let transfer = (4 * (reads + writes)) as f64 / cfg.mem_bytes_per_cycle;
    cfg.dma_startup + Cycles((transfer.ceil() as u64).max(transform_compute(writes, flops)))
}

#[test]
fn no_winograd_transform_reads_more_than_its_tiles() {
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
                let old = match &t.kind {
                    TransformKind::WinogradInput { shape, nt_pad, .. } => 16 * shape.ni * nt_pad,
                    TransformKind::WinogradOutput { shape, nt_pad, .. } => 16 * shape.no * nt_pad,
                    _ => continue,
                };
                let (reads, ..) = t.kind.traffic();
                assert!(reads <= old as u64, "{}: {reads} > {old}", cand.describe);
                let price = transform_cost(&cfg, &TransformOp::new(t.kind.clone()));
                assert_eq!(price, price_at(&cfg, &t.kind, reads), "{}", cand.describe);
                assert!(price <= price_at(&cfg, &t.kind, old as u64), "{}", cand.describe);
                seen += 1;
            }
        }
    }
    assert!(seen >= 2, "only {seen} Winograd transforms");
}
