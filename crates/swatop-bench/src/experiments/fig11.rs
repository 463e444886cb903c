//! Figure 11: boundary processing — lightweight vs traditional zero
//! padding on the unaligned Listing-2 GEMMs.
//!
//! For each unaligned case the model-chosen schedule is lowered twice, once
//! with swATOP's lightweight boundary strips and once with traditional
//! whole-matrix padding, and executed. Reported per case: total time under
//! each scheme and the fraction of time spent in padding transforms. The
//! paper's filter (cases whose traditional overhead exceeds 10%) and claim
//! (lightweight overhead <5%) are reproduced in the summary.

use swatop::model::transform_cost;
use swatop::ops::tiling::PadMode;
use swatop::ops::MatmulOp;
use swatop::scheduler::{Operator, Scheduler};
use swatop::tuner::{model_rank, run_candidate};
use swatop_ir::{Link, Stmt, TransformKind};
use workloads::gemm_sweep;

use crate::report::{mean, Table};

use super::{machine, Opts};

/// Cycles spent in padding/unpadding transforms of a lowered program: the
/// price of every transform that pads, or that ends a fused chain one of
/// whose links pads.
fn pad_cycles(cfg: &sw26010::MachineConfig, body: &Stmt) -> u64 {
    let mut total = 0u64;
    // Never-materialised outputs of chain producers that pad.
    let mut padded = Vec::new();
    body.visit(&mut |s| {
        if let Stmt::Transform(t) = s {
            let pads = matches!(
                t.kind,
                TransformKind::PadSubmatrix { .. } | TransformKind::UnpadSubmatrix { .. }
            ) || (t.link != Link::Alone && padded.contains(&t.kind.src()));
            if t.link.feeds() {
                if pads {
                    padded.push(t.kind.dst());
                }
            } else if pads {
                total += transform_cost(cfg, t).get();
            }
        }
    });
    total
}

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    // Use unclipped unaligned shapes: clipping 4000/8000 to a cap would
    // silently make them aligned. Under `--smoke` keep the dims that fit
    // the cap natively (200…2000), which are the paper's small/medium
    // unaligned cases where boundary overhead matters most.
    let cap = opts.gemm_cap().unwrap_or(usize::MAX);
    let unaligned: Vec<_> = gemm_sweep(None)
        .into_iter()
        .filter(|c| !c.aligned && c.m <= cap && c.n <= cap && c.k <= cap)
        .collect();
    let sweep = opts.sample(unaligned, 4);
    let mut t = Table::new(
        "Fig. 11 — lightweight vs traditional zero padding (unaligned GEMMs)",
        &["M,N,K", "trad cycles", "trad pad%", "light cycles", "light pad%", "speedup"],
    );
    let mut light_overheads = Vec::new();
    let mut trad_overheads = Vec::new();
    let mut shown = 0usize;
    for case in &sweep {
        let light_op = MatmulOp::new(case.m, case.n, case.k);
        let sched = Scheduler::new(cfg.clone());
        let cands = sched.enumerate(&light_op);
        if cands.is_empty() {
            continue;
        }
        // Model-pick the schedule once, then replay the same point with the
        // traditional padding strategy. Restrict to *tiled* points (every
        // dimension smaller than its tile count ≥ 2): at the paper's sizes
        // the SPM forces tiling, but the harness's smaller matrices also
        // admit single-padded-tile schedules, where the whole matrix is the
        // boundary and the two padding strategies coincide — a regime
        // outside Fig. 11's subject.
        let space = light_op.space();
        let ranked = model_rank(&cfg, &cands, opts.jobs);
        let Some(&(best_idx, _)) = ranked.iter().find(|&&(i, _)| {
            let point = space.point(cands[i].point_index);
            point.factor(&space, "t_m") * 2 <= case.m
                && point.factor(&space, "t_n") * 2 <= case.n
                && point.factor(&space, "t_k") * 2 <= case.k
        }) else {
            continue;
        };
        let light_cand = &cands[best_idx];
        let point_index = light_cand.point_index;
        let trad_op =
            MatmulOp::new(case.m, case.n, case.k).with_pad_mode(PadMode::Traditional);
        let space = trad_op.space();
        let point = space.point(point_index);
        let Some(trad_cand) = sched.lower_point(&trad_op, &space, &point) else {
            continue;
        };
        let (Ok(light), Ok(trad)) =
            (run_candidate(&cfg, light_cand), run_candidate(&cfg, &trad_cand))
        else {
            continue;
        };
        let light_pad = pad_cycles(&cfg, &light_cand.exe.program.body) as f64
            / light.get() as f64;
        let trad_pad =
            pad_cycles(&cfg, &trad_cand.exe.program.body) as f64 / trad.get() as f64;
        light_overheads.push(light_pad);
        trad_overheads.push(trad_pad);
        // The paper plots only cases whose boundary overhead exceeds 10%.
        if trad_pad > 0.10 {
            shown += 1;
            t.row(vec![
                format!("{},{},{}", case.m, case.n, case.k),
                trad.get().to_string(),
                format!("{:.1}%", 100.0 * trad_pad),
                light.get().to_string(),
                format!("{:.1}%", 100.0 * light_pad),
                format!("{:.2}x", trad.get() as f64 / light.get() as f64),
            ]);
        }
    }
    let mut summary = Table::new(
        "Fig. 11 summary",
        &["cases", "shown (trad >10%)", "avg trad pad%", "avg light pad%", "max light pad%"],
    );
    if !light_overheads.is_empty() {
        summary.row(vec![
            light_overheads.len().to_string(),
            shown.to_string(),
            format!("{:.1}%", 100.0 * mean(&trad_overheads)),
            format!("{:.1}%", 100.0 * mean(&light_overheads)),
            format!(
                "{:.1}%",
                100.0 * light_overheads.iter().cloned().fold(0.0, f64::max)
            ),
        ]);
    }
    vec![t, summary]
}
