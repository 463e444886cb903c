//! The knob census (ROADMAP item 18): brute-force a fixed grid of schedule
//! spaces and record what their optima are made of.
//!
//! One line per space: its size, the optimum's simulated cycles and the
//! optimum's knob values (the winner is the minimum under `(cycles, input
//! index)`, as `tune` picks it). Then one summary line per (op group, knob,
//! value) over the group's choice and toggle knobs: how many optima hold the
//! value, out of the spaces that expose the knob, and the worst cost, over
//! those spaces, of fixing the knob to it (the best candidate with that value
//! against the optimum; `absent` counts the spaces where no candidate has
//! it). Tile-size factors are left out of the summary: their menus depend on
//! the shape. Implicit conv's `t_ro` is tallied as `1` against `2+` (rows
//! merged into the GEMM's N or not), and some optimum must merge rows.
//!
//! A value that no optimum holds can be deleted without moving any optimum's
//! cycles; only the space sizes and the knob columns change. The groups:
//!
//! * `matmul` — `MatmulOp`: 48 and 10 evenly sampled Listing-2 shapes at
//!   dimension cap 2048 (Table 2's smoke sample is the 10), plus the
//!   shapes the benchmark, the journal and the tests use, each once. Every
//!   optimum must also be no slower than `baselines::xmath_gemm` wherever
//!   xMath's fixed blocking runs, so Table 2 cannot lose on these shapes;
//! * `implicit` — the Fig. 9 sweep (batch 32, paper size), the
//!   Table-1 layers at batch 1 and 32 (spatial cap 28), and the small shapes;
//! * `winograd` — Listing 1 at batch 32, spatial cap 32, the Table-1 layers
//!   at batch 1 and 32, and the small shapes;
//! * `ladder` — explicit conv, backward data, backward filter and batched
//!   matmul: the operators that tune `MatmulKnobs::space` with the `dma`
//!   ladder.
//!
//! Every level of every `dma` menu must hold an optimum, but for the
//! levels [`DMA_KEEPS`] names with the reason each stays.
//!
//! A second test pins which Winograd-applicable shapes have no candidate at
//! all, so that deleting a reduction schedule cannot leave a shape with an
//! empty space.
//!
//! Release only (about 15 s on 2 cores):
//! `cargo test --release -q --test knob_census -- --include-ignored`. On a
//! mismatch the new text is written to `target/tmp/knob_census/`; diff it
//! against `tests/golden/`, and copy it over only if the move is meant.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use swatop_repro::baselines::xmath_gemm;
use swatop_repro::dsl::Knob;
use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::{
    BatchedMatmulOp, ConvBackwardDataOp, ConvBackwardFilterOp, ExplicitConvOp, ImplicitConvOp,
    MatmulOp, WinogradConvOp,
};
use swatop_repro::swatop::scheduler::{Operator, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_repro::swtensor::ConvShape;
use swatop_repro::workloads::{conv_sweep, gemm_sweep, resnet_layers, vgg16_layers, yolo_layers};

/// How many Listing-2 shapes the grid samples evenly from the capped sweep;
/// Table 2 samples the same 10 under `--smoke`.
const GEMM_SAMPLES: [usize; 2] = [48, 10];

/// `(m, n, k)` of the GEMMs the benchmark (`gemm_space`, `validated_mix`,
/// `exhaustive_ref`), the journal and the tests tune.
const GEMM_USED: [(usize, usize, usize); 10] = [
    (256, 256, 256),
    (100, 100, 100),
    (72, 40, 200),
    (60, 40, 100),
    (64, 64, 64),
    (96, 96, 96),
    (512, 512, 512),
    (40, 24, 16),
    (96, 96, 48),
    (36, 20, 50),
];

/// `(group, dma level, reason)`: the levels that hold no optimum of the
/// census and stay (DESIGN.md §11).
const DMA_KEEPS: [(&str, &str, &str); 3] = [
    (
        "implicit",
        "none",
        "swDNN's point: baselines::swdnn scores no DMA knob, so its tie falls to the first level",
    ),
    (
        "ladder",
        "none",
        "xMath's point: baselines::xmath_knobs() runs `dma` at its default, so deleting the level \
         would take xMath's explicit-conv point out of the space (ROADMAP item 15)",
    ),
    (
        "matmul",
        "all",
        "kept for ROADMAP item 18(b) to decide: the model used to rank an `all` point first on \
         gemm 40x24x16 (it misprices coalescing); since the screen charges a transform once, \
         the top-1 tunes of gemm 40x24x16 and of Fig. 11's traditional-padding 500x200x200 \
         pick the same cycles without it",
    ),
];

/// The small conv shapes the benchmark, the journal and the tests use.
fn small_convs() -> Vec<ConvShape> {
    let sq = ConvShape::square;
    vec![
        sq(16, 16, 16, 8),
        sq(32, 32, 32, 16),
        sq(4, 32, 32, 12),
        sq(1, 32, 32, 8),
        sq(8, 32, 32, 16),
        sq(8, 16, 16, 8),
        sq(4, 16, 16, 8),
        sq(8, 16, 16, 4),
        sq(2, 16, 16, 8),
        sq(2, 8, 8, 7),
        sq(1, 8, 8, 14),
        ConvShape {
            b: 4,
            ni: 24,
            no: 16,
            ro: 4,
            co: 8,
            kr: 1,
            kc: 3,
            stride: 1,
            pad: 0,
        },
        ConvShape {
            b: 8,
            ni: 16,
            no: 16,
            ro: 8,
            co: 8,
            kr: 3,
            kc: 3,
            stride: 1,
            pad: 1,
        },
        ConvShape {
            b: 1,
            ni: 8,
            no: 8,
            ro: 8,
            co: 8,
            kr: 3,
            kc: 3,
            stride: 1,
            pad: 1,
        },
    ]
}

/// The distinct Table-1 layer shapes at `batch`, spatially capped.
fn table1(batch: usize, cap: Option<usize>) -> Vec<ConvShape> {
    let layers = vgg16_layers()
        .iter()
        .chain(resnet_layers())
        .chain(yolo_layers());
    distinct(layers.map(|l| l.shape(batch, cap)))
}

fn distinct<T: PartialEq>(shapes: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for s in shapes {
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

fn label(s: &ConvShape) -> String {
    format!(
        "b{} ni{} no{} {}x{} k{}x{} s{} p{}",
        s.b, s.ni, s.no, s.ro, s.co, s.kr, s.kc, s.stride, s.pad
    )
}

/// `(group, label, operator)` for every space of the grid, in record order.
fn grid() -> Vec<(&'static str, String, Box<dyn Operator>)> {
    let mut out: Vec<(&'static str, String, Box<dyn Operator>)> = Vec::new();

    let sweep = gemm_sweep(Some(2048));
    let mut gemms: Vec<(usize, usize, usize)> = Vec::new();
    for samples in GEMM_SAMPLES {
        let step = sweep.len() as f64 / samples as f64;
        let sampled = (0..samples).map(|i| sweep[(i as f64 * step) as usize]);
        gemms.extend(sampled.map(|c| (c.m, c.n, c.k)));
    }
    gemms.extend(GEMM_USED);
    for (m, n, k) in distinct(gemms) {
        out.push((
            "matmul",
            format!("{m}x{n}x{k}"),
            Box::new(MatmulOp::new(m, n, k)),
        ));
    }

    let implicit = distinct(
        conv_sweep(32, None)
            .into_iter()
            .chain(table1(1, Some(28)))
            .chain(table1(32, Some(28)))
            .chain(small_convs()),
    );
    for s in implicit.into_iter().filter(ImplicitConvOp::applicable) {
        out.push(("implicit", label(&s), Box::new(ImplicitConvOp::new(s))));
    }

    let winograd = distinct(
        conv_sweep(32, Some(32))
            .into_iter()
            .chain(table1(1, Some(28)))
            .chain(table1(32, Some(28)))
            .chain(small_convs()),
    );
    for s in winograd.into_iter().filter(WinogradConvOp::applicable) {
        out.push(("winograd", label(&s), Box::new(WinogradConvOp::new(s))));
    }

    // The GEMM-ladder operators: small shapes and the Table-1 layers at
    // batch 1, spatial cap 7 (their im2col matrices stay brute-forceable).
    let ladder = distinct(small_convs().into_iter().chain(table1(1, Some(7))));
    for s in &ladder {
        out.push((
            "ladder",
            format!("explicit {}", label(s)),
            Box::new(ExplicitConvOp::new(*s)),
        ));
    }
    for s in small_convs() {
        let data = ConvBackwardDataOp::new(s);
        out.push(("ladder", format!("bwd_data {}", label(&s)), Box::new(data)));
        let filter = ConvBackwardFilterOp::new(s);
        out.push((
            "ladder",
            format!("bwd_filter {}", label(&s)),
            Box::new(filter),
        ));
    }
    for (b, m, n, k) in [
        (2, 32, 32, 32),
        (4, 64, 64, 64),
        (8, 32, 64, 96),
        (3, 40, 24, 16),
    ] {
        let op = BatchedMatmulOp::new(b, m, n, k);
        out.push((
            "ladder",
            format!("bmm {b}x{m}x{n}x{k}"),
            Box::new(op.clone()),
        ));
        let shared = op.with_shared_a();
        out.push((
            "ladder",
            format!("bmm {b}x{m}x{n}x{k} shared_a"),
            Box::new(shared),
        ));
    }
    out
}

/// `knob=value` pairs of a candidate's description, with implicit conv's
/// `t_ro` read as `1` or `2+`: its menu depends on the shape, but whether
/// output rows merge into the GEMM's N at all is one decision.
fn knob_values(describe: &str) -> impl Iterator<Item = (&str, &str)> {
    describe
        .split(", ")
        .filter_map(|kv| kv.split_once('='))
        .map(|(knob, value)| match (knob, value) {
            ("t_ro", v) if v != "1" => (knob, "2+"),
            kv => kv,
        })
}

/// Per (group, knob, value): spaces exposing the knob, optima holding the
/// value, worst fixing cost (as a ratio to the optimum) and spaces where no
/// candidate holds it.
#[derive(Default)]
struct Tally {
    spaces: usize,
    wins: usize,
    worst: f64,
    absent: usize,
}

/// The choice and toggle values of a space, as `(knob, value)`, in knob order.
fn tallied_values(op: &dyn Operator) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for knob in op.space().knobs() {
        let values: Vec<String> = match knob {
            Knob::Factor { name, .. } if name == "t_ro" => vec!["1".into(), "2+".into()],
            Knob::Factor { .. } => continue,
            Knob::Choice { candidates, .. } => candidates.clone(),
            Knob::Toggle { .. } => vec!["false".into(), "true".into()],
        };
        out.extend(values.into_iter().map(|v| (knob.name().to_string(), v)));
    }
    out
}

#[test]
#[ignore = "release only: brute-forces 358 spaces (about 15 s on 2 cores)"]
fn the_knob_census_equals_the_recorded_one() {
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    let opts = TuneOptions {
        jobs: 2,
        tiers: TierPolicy::exhaustive(),
        ..TuneOptions::default()
    };
    let mut lines = String::new();
    let mut xmath_wins: Vec<String> = Vec::new();
    // `(group, knob, value)` in first-seen order, and its tally.
    let mut tallies: Vec<((&str, String, String), Tally)> = Vec::new();
    for (group, name, op) in grid() {
        let cands = sched.enumerate(op.as_ref());
        let Ok(best) = tune(&cfg, &cands, &opts, None) else {
            writeln!(lines, "{group} {name}: no candidate").unwrap();
            continue;
        };
        let (winner, optimum) = (&cands[best.best].describe, best.cycles.get());
        writeln!(
            lines,
            "{group} {name}: space={} cycles={optimum} {winner}",
            cands.len()
        )
        .unwrap();
        if group == "matmul" {
            let dims: Vec<usize> = name.split('x').map(|d| d.parse().unwrap()).collect();
            if let Ok(base) = xmath_gemm(&cfg, dims[0], dims[1], dims[2]) {
                if base.get() < optimum {
                    xmath_wins.push(format!("{name}: xmath={} swatop={optimum}", base.get()));
                }
            }
        }

        // The best measured cycles per `(knob, value)`, in one pass.
        let mut fixed: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for (cand, cycles) in cands.iter().zip(&best.all_cycles) {
            let Some(c) = cycles.map(|c| c.get()) else {
                continue;
            };
            for kv in knob_values(&cand.describe) {
                let min = fixed.entry(kv).or_insert(c);
                *min = (*min).min(c);
            }
        }
        for (knob, value) in tallied_values(op.as_ref()) {
            let won = knob_values(winner).any(|kv| kv == (knob.as_str(), value.as_str()));
            let cost = fixed
                .get(&(knob.as_str(), value.as_str()))
                .map(|&c| c as f64 / optimum as f64 - 1.0);
            let key = (group, knob, value);
            let t = match tallies.iter().position(|(k, _)| *k == key) {
                Some(i) => &mut tallies[i].1,
                None => {
                    tallies.push((key, Tally::default()));
                    &mut tallies.last_mut().unwrap().1
                }
            };
            t.spaces += 1;
            t.wins += won as usize;
            match cost {
                Some(cost) => t.worst = t.worst.max(cost),
                None => t.absent += 1,
            }
        }
    }
    for ((group, knob, value), t) in &tallies {
        writeln!(
            lines,
            "summary {group} {knob}={value}: wins={}/{} worst_fix=+{:.2}% absent={}",
            t.wins,
            t.spaces,
            100.0 * t.worst,
            t.absent
        )
        .unwrap();
    }
    check(
        "knob_census.txt",
        &lines,
        include_str!("golden/knob_census.txt"),
    );
    assert!(xmath_wins.is_empty(), "xMath beats the optimum: {xmath_wins:?}");
    for ((group, knob, value), t) in &tallies {
        let kept = DMA_KEEPS.iter().any(|&(g, v, _)| (g, v) == (*group, value.as_str()));
        assert!(
            knob != "dma" || t.wins > 0 || kept,
            "{group} dma={value} holds no optimum: delete it, or keep it with a reason"
        );
    }
    let merged = tallies
        .iter()
        .find(|((g, k, v), _)| (*g, k.as_str(), v.as_str()) == ("implicit", "t_ro", "2+"));
    assert!(
        merged.is_some_and(|(_, t)| t.wins > 0),
        "no implicit optimum merges output rows: t_ro > 1 earns no place in the space"
    );
    for (group, level, why) in DMA_KEEPS {
        let is_level =
            tallies.iter().any(|((g, k, v), _)| (*g, k.as_str(), v.as_str()) == (group, "dma", level));
        assert!(is_level, "{group} has no dma={level} to keep ({why})");
    }
}

/// The Winograd-applicable Listing-1 and Table-1 shapes at batch 1, 32 and
/// 128 under no spatial cap and caps 16, 28 and 32.
fn winograd_applicable() -> Vec<ConvShape> {
    let mut shapes = Vec::new();
    for b in [1, 32, 128] {
        for cap in [None, Some(16), Some(28), Some(32)] {
            shapes.extend(conv_sweep(b, cap));
            shapes.extend(table1(b, cap));
        }
    }
    distinct(shapes.into_iter().filter(WinogradConvOp::applicable))
}

#[test]
#[ignore = "release only: enumerates 387 Winograd spaces, some at paper size"]
fn the_same_winograd_shapes_have_no_candidate() {
    let sched = Scheduler::new(MachineConfig::default());
    let shapes = winograd_applicable();
    let empty: Vec<String> = shapes
        .iter()
        .filter(|s| sched.enumerate(&WinogradConvOp::new(**s)).is_empty())
        .map(label)
        .collect();
    let text = format!(
        "{} shapes, {} without a candidate\n{}\n",
        shapes.len(),
        empty.len(),
        empty.join("\n")
    );
    check(
        "winograd_empty.txt",
        &text,
        include_str!("golden/winograd_empty.txt"),
    );
    assert_eq!((shapes.len(), empty.len()), (387, 87));
}

/// Compare with the recorded text; on a mismatch write the new text under
/// `target/tmp/knob_census/` and fail.
fn check(file: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/tmp/knob_census");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(file), got).unwrap();
    panic!(
        "{file} moved: the new text is in {}",
        dir.join(file).display()
    );
}
