//! Which executables exist when (DESIGN.md §18): `enumerate` builds none —
//! a candidate's executable is a deferred handle until something reads it —
//! and a tuning run builds exactly what it measures or validates, whatever
//! the worker count. A census by `Executable::is_built`, not a timing.

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
fn the_ladder_builds_what_it_measures_or_validates() {
    let cfg = MachineConfig::default();
    let enumerate = || Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(256, 256, 256));
    let untouched = enumerate();
    assert_eq!(untouched.len(), 17_408);
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
        let validated = validated.into_inner();
        assert_eq!((validated.len(), out.quarantined), (2, 1), "jobs {jobs}");
        // A perfect machine: measured and evaluated are the same set.
        let read: BTreeSet<usize> = (0..cands.len())
            .filter(|&i| out.all_cycles[i].is_some())
            .chain(validated)
            .collect();
        assert_eq!(built(&cands), read, "jobs {jobs}");
        println!("jobs {jobs}: {} of {} executables built", read.len(), cands.len());
        assert!(read.len() * 50 < cands.len(), "{} of {} built", read.len(), cands.len());
        per_jobs.push(read);
    }
    assert_eq!(per_jobs[0], per_jobs[1], "the built set does not depend on jobs");
}

#[test]
fn brute_force_builds_the_whole_list() {
    let cfg = MachineConfig::default();
    for jobs in [1, 4] {
        let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(36, 20, 50));
        assert!(built(&cands).is_empty());
        let opts = TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
        let out = tune(&cfg, &cands, &opts, None).unwrap();
        assert_eq!(out.executed, cands.len());
        assert_eq!(built(&cands).len(), cands.len(), "jobs {jobs}");
    }
}
