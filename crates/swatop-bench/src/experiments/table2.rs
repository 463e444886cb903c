//! Table 2: matrix multiplication — swATOP vs xMath on the 559 Listing-2
//! parameters (343 aligned, 216 unaligned).
//!
//! Paper shape: swATOP wins most cases; wins are much larger on unaligned
//! shapes (avg ≈+49.8%, thanks to lightweight boundary processing vs
//! xMath's traditional whole-matrix padding) than on aligned ones
//! (≈+31.6%); the cases it loses are square-ish shapes that match xMath's
//! fixed blocking, with small average loss.

use baselines::xmath_gemm;
use workloads::gemm_sweep;

use crate::report::{mean, Table};
use crate::runner::tune_gemm_sweep;

use super::{machine, pct, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let mut t = Table::new(
        "Table 2 — GEMM vs xMath (Listing-2 sweep)",
        &["class", "cases", "Faster", "avg speedup", "Slower", "avg slowdown"],
    );
    let sweep = opts.sample(gemm_sweep(opts.gemm_cap()), 10, 48);
    // Tune the whole sweep once, one worker per (m, n, k); the two aligned
    // classes are then read out of the index-aligned results.
    let shapes: Vec<(usize, usize, usize)> = sweep.iter().map(|c| (c.m, c.n, c.k)).collect();
    let tuned = tune_gemm_sweep(&cfg, &shapes, &opts.tune_options());
    for aligned in [true, false] {
        let mut faster = 0usize;
        let mut slower = 0usize;
        let mut gains = Vec::new();
        let mut losses = Vec::new();
        let mut cases = 0usize;
        for (case, ours) in sweep.iter().zip(&tuned).filter(|(c, _)| c.aligned == aligned) {
            let Some(ours) = ours else {
                continue;
            };
            let Ok(base) = xmath_gemm(&cfg, case.m, case.n, case.k) else {
                continue;
            };
            cases += 1;
            let ratio = base.get() as f64 / ours.cycles.get() as f64;
            if ratio >= 1.0 {
                faster += 1;
                gains.push(ratio - 1.0);
            } else {
                slower += 1;
                losses.push(1.0 - ratio);
            }
        }
        t.row(vec![
            if aligned { "Aligned" } else { "Unaligned" }.into(),
            cases.to_string(),
            faster.to_string(),
            pct(mean(&gains)),
            slower.to_string(),
            if slower > 0 { pct(-mean(&losses)) } else { "-".into() },
        ]);
    }
    vec![t]
}
