//! Table 3: autotuner tuning time — black-box brute force vs the
//! performance-model-based autotuner, on the implicit-conv layers of the
//! three networks (batch 32, as in training).
//!
//! The black-box tuner *executes* every schedule strategy on the machine;
//! the model-based tuner evaluates Eq. (1)/(2) analytically and executes
//! only its pick. The paper reports 2–3 days vs minutes per network
//! (speedups 454×/353×/365×), and those days are the hardware running every
//! schedule. So the machine-time columns charge each executed candidate its
//! simulated cycles at the chip's clock: brute force pays the whole space,
//! swATOP the candidates it measured plus its host screen. The host-wall
//! columns are what tuning costs the host running the simulator, which every
//! interpreter speedup makes cheaper per candidate.

use std::time::{Duration, Instant};

use sw26010::Cycles;
use workloads::Network;

use swatop::ops::ImplicitConvOp;
use swatop::scheduler::Scheduler;
use swatop::tuner::{model_rank, tune, TierPolicy, TuneOptions};

use crate::report::Table;

use super::{machine, Opts};

pub fn run(opts: &Opts) -> Vec<Table> {
    let cfg = machine();
    // Host time is this table's subject, so it tunes without the harness's
    // recorder: `--telemetry` / `--trace` would time their own bookkeeping.
    let with = |tiers| TuneOptions { jobs: opts.jobs, tiers, ..TuneOptions::default() };
    // Tuning *time* is the subject here, so the host wall-clock columns
    // depend on the worker count; the serial-equivalent column (the sum of
    // per-candidate evaluation times) is what is comparable with a serial
    // run. The simulated cycles, and so the brute-force machine time, are
    // identical for every jobs value; swATOP's machine time carries its
    // host screen.
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
            "bb machine",
            "swATOP machine",
            "machine speedup",
            "bb host",
            "bb host serial-equiv",
            "swATOP host",
            "host speedup",
        ],
    );
    let batch = 32;
    // Warm the one-time Eq. (2) calibration so per-layer timings measure
    // tuning, not calibration (the paper's fit is likewise offline).
    let _ = swatop::model::GemmModel::cached(&cfg);
    for net in Network::ALL {
        let layers = opts.sample(net.layers().to_vec(), 2, 4);
        let mut space_total = 0usize;
        let mut bb_total = Duration::ZERO;
        let mut bb_cpu_total = Duration::ZERO;
        let mut model_total = Duration::ZERO;
        // Seconds of the machine executing candidates (plus swATOP's screen).
        let (mut bb_machine, mut model_machine) = (0.0, 0.0);
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
            let machine_s = |all: &[Option<Cycles>]| {
                all.iter().flatten().map(|c| c.seconds_at(cfg.clock_ghz)).sum::<f64>()
            };
            if let Ok(bb) = tune(&cfg, &cands, &with(TierPolicy::exhaustive()), None) {
                bb_total += bb.wall;
                bb_cpu_total += bb.cpu;
                bb_machine += machine_s(&bb.all_cycles);
            }
            if let Ok(m) = tune(&cfg, &cands, &with(TierPolicy::top_k(3)), None) {
                model_total += m.wall;
                let screen = Instant::now();
                model_rank(&cfg, &cands, opts.jobs);
                model_machine += machine_s(&m.all_cycles) + screen.elapsed().as_secs_f64();
            }
        }
        if layer_count == 0 {
            continue;
        }
        let ratio = |bb: f64, model: f64| format!("{:.0}x", bb / model.max(1e-9));
        t.row(vec![
            net.name().into(),
            layer_count.to_string(),
            space_total.to_string(),
            format!("{:.0}", space_total as f64 / layer_count as f64),
            format!("{bb_machine:.3} s"),
            format!("{:.2} ms", model_machine * 1e3),
            ratio(bb_machine, model_machine),
            format!("{:.2?}", bb_total),
            format!("{:.2?}", bb_cpu_total),
            format!("{:.2?}", model_total),
            ratio(bb_total.as_secs_f64(), model_total.as_secs_f64()),
        ]);
    }
    vec![t]
}
