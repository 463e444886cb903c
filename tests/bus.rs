//! The event bus is report-only and says the same thing for every `--jobs`.
//!
//! * A run with a bus and a subscriber attached produces bit-identical
//!   winners, cycles and convergence to a run without one.
//! * The *multiset* of progress lines a run emits is identical at jobs 1
//!   and 4: every event is a pure function of tuning decisions, so worker
//!   scheduling cannot leak into what the console prints. The run keeps a
//!   checkpoint and quarantines its first winner, so `CheckpointSaved` and
//!   `Quarantined` events flow.

use std::path::PathBuf;

use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::scheduler::{Candidate, Scheduler};
use swatop_repro::swatop::telemetry::bus::{Event, EventBus};
use swatop_repro::swatop::tuner::{tune, CheckpointPolicy, TuneOptions};

fn gemm_space(cfg: &MachineConfig) -> Vec<Candidate> {
    let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(64, 64, 32));
    assert!(cands.len() > 10, "need a nontrivial space, got {}", cands.len());
    cands
}

/// Attaching the bus perturbs nothing: every decision-bearing field of the
/// outcome is bit-identical to a run without one.
#[test]
fn the_bus_never_perturbs_results() {
    let cfg = MachineConfig::default();
    let cands = gemm_space(&cfg);
    let plain = tune(&cfg, &cands, &TuneOptions::with_jobs(2), None).unwrap();

    let bus = EventBus::new();
    let sub = bus.subscribe(1 << 16);
    let observed = TuneOptions { bus: Some(bus), ..TuneOptions::with_jobs(2) };
    let watched = tune(&cfg, &cands, &observed, None).unwrap();

    assert_eq!(plain.best, watched.best);
    assert_eq!(plain.cycles, watched.cycles);
    assert_eq!(plain.all_cycles, watched.all_cycles);
    assert_eq!(plain.convergence, watched.convergence);
    assert_eq!(plain.screened, watched.screened);
    assert_eq!(plain.executed, watched.executed);
    assert_eq!(sub.dropped(), 0);
}

/// The multiset of progress lines is `--jobs`-invariant: same sweep, same
/// lifecycle story, whatever the scheduling.
#[test]
fn the_progress_line_multiset_is_jobs_invariant() {
    let cfg = MachineConfig::default();
    let cands = gemm_space(&cfg);
    // Pure in the index: reject the clean run's winner, so the ladder
    // quarantines it and falls back.
    let clean = tune(&cfg, &cands, &TuneOptions::default(), None).unwrap().best;
    let first_winner = move |i: usize, _: &Candidate| {
        if i == clean {
            Err(format!("candidate {i} is the first winner"))
        } else {
            Ok(())
        }
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bus");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut lines: Vec<Vec<String>> = Vec::new();
    for jobs in [1, 4] {
        let bus = EventBus::new();
        let sub = bus.subscribe(1 << 16);
        let opts = TuneOptions {
            checkpoint: Some(CheckpointPolicy::new(dir.join(format!("jobs{jobs}.json")))),
            bus: Some(bus),
            ..TuneOptions::with_jobs(jobs)
        };
        let out = tune(&cfg, &cands, &opts, Some(&first_winner)).unwrap();
        assert_eq!(out.quarantined, 1);
        let events = sub.drain();
        assert_eq!(sub.dropped(), 0, "ring must be big enough for the whole run");
        assert!(events.iter().any(|e| matches!(e, Event::Quarantined { .. })), "{events:?}");
        assert!(events.iter().any(|e| matches!(e, Event::CheckpointSaved { .. })), "{events:?}");
        let mut run: Vec<String> = events.iter().map(Event::progress_line).collect();
        run.sort();
        lines.push(run);
    }
    assert_eq!(lines[0], lines[1], "jobs=1 vs jobs=4 progress lines");
}
