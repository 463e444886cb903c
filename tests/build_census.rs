//! Which executables exist when (DESIGN.md §18): `enumerate` builds none —
//! a candidate's executable is a deferred handle until something reads it —
//! measuring builds a private copy on the worker and drops it, and only the
//! readers that keep a build (the validator, emitting C, the profiler) leave
//! one behind, whatever the worker count. A census by
//! `Executable::is_built`, not a timing.

use std::cell::RefCell;
use std::collections::BTreeSet;

use swatop_repro::sw26010::MachineConfig;
use swatop_repro::swatop::ops::MatmulOp;
use swatop_repro::swatop::optimizer::verify::verify_message;
use swatop_repro::swatop::scheduler::{Candidate, Scheduler};
use swatop_repro::swatop::tuner::{tune, TierPolicy, TuneOptions};

fn built(cands: &[Candidate]) -> BTreeSet<usize> {
    (0..cands.len()).filter(|&i| cands[i].exe.is_built()).collect()
}

#[test]
fn the_ladder_keeps_only_what_it_validates() {
    let cfg = MachineConfig::default();
    let enumerate = || Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(256, 256, 256));
    let untouched = enumerate();
    assert_eq!(untouched.len(), 1_408);
    assert_eq!(built(&untouched), BTreeSet::new(), "enumerate builds nothing");

    let mut per_jobs = Vec::new();
    for jobs in [1, 4] {
        let cands = enumerate();
        // Reject the first pick, so the fallback validates a second one.
        let validated = RefCell::new(Vec::new());
        let validator = |i: usize, c: &Candidate| {
            validated.borrow_mut().push(i);
            verify_message(&c.exe, &cfg)?;
            if validated.borrow().len() == 1 {
                return Err("first pick refused".into());
            }
            Ok(())
        };
        let opts = TuneOptions { jobs, ..TuneOptions::default() };
        let out = tune(&cfg, &cands, &opts, Some(&validator)).unwrap();
        let validated: BTreeSet<usize> = validated.into_inner().into_iter().collect();
        assert_eq!((validated.len(), out.quarantined), (2, 1), "jobs {jobs}");
        let measured = out.all_cycles.iter().filter(|c| c.is_some()).count();
        assert!(measured > validated.len(), "jobs {jobs}: {measured} measured");
        assert_eq!(built(&cands), validated, "jobs {jobs}");
        per_jobs.push(validated);
    }
    assert_eq!(per_jobs[0], per_jobs[1], "the built set does not depend on jobs");
}

#[test]
fn brute_force_keeps_no_build_until_the_winner_is_emitted() {
    let cfg = MachineConfig::default();
    for jobs in [1, 4] {
        let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(36, 20, 50));
        assert!(built(&cands).is_empty());
        let opts = TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
        let out = tune(&cfg, &cands, &opts, None).unwrap();
        assert_eq!(out.executed, cands.len());
        assert!(out.all_cycles.iter().all(Option::is_some), "jobs {jobs}");
        assert!(built(&cands).is_empty(), "jobs {jobs}: measuring keeps no build");
        assert!(!cands[out.best].exe.emit_c().is_empty());
        assert_eq!(built(&cands), BTreeSet::from([out.best]), "jobs {jobs}");
    }
}
