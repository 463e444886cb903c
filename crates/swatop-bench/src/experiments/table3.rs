//! Table 3: autotuner tuning time — black-box brute force vs the
//! performance-model-based autotuner, on the implicit-conv layers of the
//! three networks (batch 32, as in training).
//!
//! The black-box tuner *executes* every schedule strategy on the machine;
//! the model-based tuner evaluates Eq. (1)/(2) analytically and executes
//! only its pick. The paper reports 2–3 days vs minutes per network
//! (speedups 454×/353×/365×); on the simulator the per-candidate execution
//! is cheaper than on hardware, so the expected shape is "orders of
//! magnitude", not the exact constants.

use workloads::Network;

use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::{tune, TierPolicy, TuneOptions};

use crate::report::Table;

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    let with = |tiers| TuneOptions { jobs: opts.jobs, tiers, ..TuneOptions::default() };
    // Tuning *time* is the subject here, so the wall-clock columns depend
    // on the worker count; the serial-equivalent columns (the sum of
    // per-candidate evaluation times) are what is comparable with a serial
    // run and with the paper's single-process numbers. The tuned schedules
    // themselves are identical for every jobs value.
    let mut t = Table::new(
        format!(
            "Table 3 — tuning time of implicit CONV (batch 32): black-box vs swATOP \
             (jobs = {})",
            opts.jobs
        ),
        &[
            "network",
            "layers",
            "space total",
            "space avg",
            "black-box",
            "bb serial-equiv",
            "swATOP",
            "speedup",
        ],
    );
    let batch = 32;
    // Warm the one-time Eq. (2) calibration so per-layer timings measure
    // tuning, not calibration (the paper's fit is likewise offline).
    let _ = swatop::model::GemmModel::cached(&cfg);
    for net in Network::ALL {
        let layers = opts.sample(net.layers().to_vec(), 2, 4);
        let mut space_total = 0usize;
        let mut bb_total = std::time::Duration::ZERO;
        let mut bb_cpu_total = std::time::Duration::ZERO;
        let mut model_total = std::time::Duration::ZERO;
        let mut layer_count = 0usize;
        for layer in &layers {
            let shape = layer.shape(batch, opts.blackbox_cap());
            if !ImplicitConvOp::applicable(&shape) {
                continue;
            }
            let op = ImplicitConvOp::new(shape);
            let sched = Scheduler::new(cfg.clone());
            let cands = sched.enumerate(&op);
            if cands.is_empty() {
                continue;
            }
            layer_count += 1;
            space_total += cands.len();
            if let Ok(bb) = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None) {
                bb_total += bb.wall;
                bb_cpu_total += bb.cpu;
            }
            if let Ok(m) = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None) {
                model_total += m.wall;
            }
        }
        if layer_count == 0 {
            continue;
        }
        let speedup = bb_total.as_secs_f64() / model_total.as_secs_f64().max(1e-9);
        t.row(vec![
            net.name().into(),
            layer_count.to_string(),
            space_total.to_string(),
            format!("{:.0}", space_total as f64 / layer_count as f64),
            format!("{:.2?}", bb_total),
            format!("{:.2?}", bb_cpu_total),
            format!("{:.2?}", model_total),
            format!("{speedup:.0}x"),
        ]);
    }
    vec![t]
}
