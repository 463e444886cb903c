//! The one tuner entry point reproduces, field for field, what the entry
//! points it replaced reported: `tests/golden/tuner_outcomes.txt` was
//! recorded by this test's loop from PR 15's three separate bodies — the
//! brute-force tuner (`exhaustive`), the fixed top-k model tuner
//! (`top_k(k)`) and the tiered ladder — before they were deleted. One line
//! per (space, policy, validator, machine); every line must come out the
//! same for `jobs` 1 and 4. Only re-record the file when a move is meant —
//! the test prints the new lines on mismatch. The file was re-recorded
//! when the knob census (`tests/knob_census.rs`) deleted the knob values no
//! optimum held: input indices moved, every fault-free line with validator
//! `none` or `accept` kept its cycles, and the fault streams and the
//! `thirds` validator, which key on the input index, moved (last when
//! `MatmulOp` dropped `layout=rc|cc`: only the 30 gemm lines moved, each
//! fault-free one to the same candidate and 9,338 cycles). Each time
//! Winograd's space halved, `thirds` was re-keyed (to `i % 3 == 0`, then
//! back to `i % 3 == 1`): the old key no longer rejected any Winograd
//! winner, and the anti-vacuity runs below need one rejected. When the
//! GEMM ladder's `dma=none` level went, the fault plan was re-seeded (from
//! `0x16_5EED` to `0x16_5F3C`): its stream keys on the input index, and
//! under the old seed every implicit candidate failed, so no run walked
//! down the ranking past a wholly failed wave any more. Every faulted line
//! moved with the seed; every fault-free line kept its cycles.

use swatop_repro::sw26010::{FaultPlan, MachineConfig};
use swatop_repro::swatop::ops::{ImplicitConvOp, MatmulOp, WinogradConvOp};
use swatop_repro::swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop_repro::swatop::tuner::{
    tune, TierPolicy, TuneError, TuneOptions, TuneOutcome, WinnerValidator,
};
use swatop_repro::swtensor::ConvShape;

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

fn text(s: &Option<String>) -> Vec<u64> {
    match s {
        None => vec![0],
        Some(s) => std::iter::once(1 + s.len() as u64).chain(s.bytes().map(u64::from)).collect(),
    }
}

fn line(out: Result<TuneOutcome, TuneError>) -> String {
    let Ok(o) = out else { return "no outcome".to_string() };
    let all = fnv(o.all_cycles.iter().map(|c| c.map_or(0, |c| c.get() + 1)));
    let conv = fnv(o.convergence.iter().flat_map(|&(n, c)| [n, c]));
    let reports = fnv(o.reports.iter().flat_map(|r| {
        let mut w = vec![u64::from(r.retries), u64::from(r.samples)];
        w.extend(text(&r.error));
        w.extend(text(&r.quarantined));
        w
    }));
    format!(
        "best={} cycles={} executed={} screened={} validated={} quarantined={} failed={} \
         retried={} all_cycles={all:016x} convergence={conv:016x} reports={reports:016x}",
        o.best,
        o.cycles.get(),
        o.executed,
        o.screened,
        o.validated,
        o.quarantined,
        o.failed,
        o.retried
    )
}

#[test]
fn every_policy_reports_what_the_ladders_did() {
    let shape = ConvShape::square(8, 16, 16, 8);
    let ops: [(&str, Box<dyn Operator>); 3] = [
        ("gemm", Box::new(MatmulOp::new(40, 24, 16))),
        ("implicit", Box::new(ImplicitConvOp::new(shape))),
        ("winograd", Box::new(WinogradConvOp::new(shape))),
    ];
    let policies = [
        ("exhaustive", TierPolicy::exhaustive()),
        ("top1", TierPolicy::top_k(1)),
        ("top3", TierPolicy::top_k(3)),
        ("ladder", TierPolicy::default()),
        ("ladder2-5", TierPolicy { base_k: 2, max_k: 5, ..TierPolicy::default() }),
    ];
    let accept = |_: usize, _: &Candidate| Ok(());
    // Pure in the index; rejects rank-0 picks often enough that the
    // fallback walks both inside the measured wave and past its end.
    let thirds = |i: usize, _: &Candidate| {
        if i % 3 == 1 {
            Err(format!("candidate {i} is one past a multiple of three"))
        } else {
            Ok(())
        }
    };
    let validators: [(&str, Option<&WinnerValidator>); 3] =
        [("none", None), ("accept", Some(&accept)), ("thirds", Some(&thirds))];
    let plan = FaultPlan { dma_fail_ppm: 20_000, ..FaultPlan::with_seed(0x16_5F3C) };
    let machines = [
        ("perfect", MachineConfig::default()),
        ("faulted", MachineConfig { fault: Some(plan), ..MachineConfig::default() }),
    ];
    let mut got = Vec::new();
    for (op_name, op) in &ops {
        let cands = Scheduler::new(MachineConfig::default()).enumerate(op.as_ref());
        for (policy_name, policy) in &policies {
            for (v_name, v) in &validators {
                for (m_name, cfg) in &machines {
                    let run = |jobs: usize| {
                        let opts =
                            TuneOptions { jobs, tiers: policy.clone(), ..TuneOptions::default() };
                        line(tune(cfg, &cands, &opts, *v))
                    };
                    let (serial, par) = (run(1), run(4));
                    assert_eq!(serial, par, "{op_name} {policy_name} {v_name} {m_name}: jobs");
                    got.push(format!("{op_name} {policy_name} {v_name} {m_name}: {serial}"));
                }
            }
        }
    }
    let want: Vec<&str> = include_str!("golden/tuner_outcomes.txt").lines().collect();
    if got != want {
        println!("{}", got.join("\n"));
    }
    assert_eq!(got.len(), 3 * 5 * 3 * 2);
    assert!(got == want, "tuning outcomes moved (recorded: tests/golden/tuner_outcomes.txt)");
    // Anti-vacuity: the recorded runs fall back inside the wave
    // (`quarantined` with `executed` still the wave) and past it, walk down
    // the ranking after a wholly failed wave, and retry under faults.
    for (run, counts) in [
        ("winograd top3 thirds perfect", "executed=3 screened=24 validated=2 quarantined=1"),
        ("winograd top1 thirds perfect", "executed=2 screened=24 validated=2 quarantined=1"),
        ("implicit top1 none faulted", "executed=74 screened=144 validated=0 quarantined=0 failed=73"),
    ] {
        let recorded = want.iter().any(|l| l.starts_with(run) && l.contains(counts));
        assert!(recorded, "not among the recorded runs: {run}: {counts}");
    }
    assert!(want.iter().any(|l| l.contains(" faulted: ") && !l.contains("retried=0 ")));
}
