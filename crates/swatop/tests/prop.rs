//! Property-based tests for the framework: random schedule points of a
//! random matmul shape must compute the right answer, optimizer passes
//! must never change results, fault streams must be pure functions of
//! their keys, and checkpoints must round-trip exactly.

use proptest::prelude::*;
use sw26010::{Cycles, FaultPlan, MachineConfig};
use swatop::ops::tiling::{DimTiles, PadMode};
use swatop::ops::{verify_candidate, MatmulOp};
use swatop::optimizer::boundary::round_up;
use swatop::scheduler::{Operator, Scheduler};
use swatop::tuner::checkpoint::{self, CandCell, Checkpoint};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any valid schedule point of any (small, possibly unaligned) matmul
    /// computes the correct product — boundary machinery, layouts and
    /// vectorisation choices included.
    #[test]
    fn random_matmul_schedules_are_correct(
        m in 8usize..130,
        n in 8usize..130,
        k in 4usize..80,
        point_seed in 0usize..10_000,
        traditional: bool,
    ) {
        let cfg = MachineConfig::default();
        let op = if traditional {
            MatmulOp::new(m, n, k).with_pad_mode(PadMode::Traditional)
        } else {
            MatmulOp::new(m, n, k)
        };
        let sched = Scheduler::new(cfg.clone());
        let space = op.space();
        let point = space.point(point_seed % space.size());
        if let Some(cand) = sched.lower_point(&op, &space, &point) {
            let err = verify_candidate(&cfg, &op, &cand).unwrap();
            prop_assert!(
                err < 1e-2,
                "m={m} n={n} k={k} {}: err {err}",
                point.describe(&space)
            );
        }
    }

    /// The prefetch pass never changes results, only timing — and never
    /// makes the schedule slower.
    #[test]
    fn prefetch_preserves_results_and_helps(
        m in 8usize..100, n in 8usize..100, k in 8usize..64, point_seed in 0usize..10_000,
    ) {
        let cfg = MachineConfig::default();
        let op = MatmulOp::new(m, n, k);
        let space = op.space();
        let point = space.point(point_seed % space.size());
        let with_pf = Scheduler::new(cfg.clone());
        let mut without_pf = Scheduler::new(cfg.clone());
        without_pf.enable_prefetch = false;
        let (Some(a), Some(b)) = (
            with_pf.lower_point(&op, &space, &point),
            without_pf.lower_point(&op, &space, &point),
        ) else {
            return Ok(());
        };
        let ea = verify_candidate(&cfg, &op, &a).unwrap();
        let eb = verify_candidate(&cfg, &op, &b).unwrap();
        prop_assert!(ea < 1e-2 && eb < 1e-2);
        let ca = swatop::tuner::run_candidate(&cfg, &a).unwrap();
        let cb = swatop::tuner::run_candidate(&cfg, &b).unwrap();
        prop_assert!(ca <= cb, "prefetched {ca} slower than baseline {cb}");
    }

    /// Tiling invariants: full tiles plus the true tail cover the
    /// dimension exactly; padded tails are aligned and minimal.
    #[test]
    fn dim_tiles_cover(len in 1usize..2000, tile_pow in 0usize..5, align_pow in 0usize..3) {
        let align = 8 << align_pow;           // 8, 16, 32
        let tile = align * (1 << tile_pow);   // aligned tile
        let d = DimTiles::new(len, tile, align);
        prop_assert_eq!(d.full * d.tile + d.tail, len);
        prop_assert_eq!(d.padded_len() % align, 0);
        prop_assert!(d.padded_len() >= len);
        prop_assert!(d.padded_len() < len + align);
        for s in d.segs() {
            // Every segment's kernel size satisfies the alignment.
            prop_assert_eq!(s.size % align, 0, "{:?}", d);
            prop_assert!(s.count >= 1);
        }
        // The tail segment (if any) starts where the full tiles end.
        if d.tail > 0 {
            let segs = d.segs();
            let tail_seg = segs.last().unwrap();
            prop_assert_eq!(tail_seg.start, d.full * d.tile);
            prop_assert!(tail_seg.size >= d.tail);
            prop_assert_eq!(tail_seg.aux, !d.tail.is_multiple_of(align));
        }
    }

    /// round_up is the least aligned value ≥ n.
    #[test]
    fn round_up_minimal(n in 0usize..10_000, align_pow in 0usize..6) {
        let align = 1usize << (align_pow + 2);
        let r = round_up(n, align);
        prop_assert!(r >= n && r.is_multiple_of(align) && r < n + align);
    }
}

/// One arbitrary candidate cell, covering all three states and arbitrary
/// (unicode, control-character) error strings.
fn cand_cell() -> impl Strategy<Value = CandCell> {
    prop_oneof![
        Just(CandCell::Pending),
        (any::<u64>(), 0u32..100, 1u32..10).prop_map(|(cycles, retries, samples)| {
            CandCell::Done { cycles, retries, samples }
        }),
        (".{0,40}", 0u32..100)
            .prop_map(|(error, retries)| CandCell::Failed { error, retries }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fault stream is a pure function of `(seed, run, attempt)`:
    /// re-deriving a session replays it bit-for-bit, whatever the knobs.
    #[test]
    fn fault_sessions_replay_exactly(
        seed: u64,
        run: u64,
        attempt in 0u32..16,
        dma_ppm in 0u32..200_000,
        pressure_ppm in 0u32..1_000_000,
        steal in 0u32..999,
        jitter in 0u32..999,
    ) {
        let plan = FaultPlan {
            seed,
            dma_fail_ppm: dma_ppm,
            spm_pressure_ppm: pressure_ppm,
            spm_steal_max_permille: steal,
            jitter_permille: jitter,
        };
        let mut a = plan.session(run, attempt);
        let mut b = plan.session(run, attempt);
        prop_assert_eq!(a.spm_stolen_permille(), b.spm_stolen_permille());
        prop_assert_eq!(a.spm_capacity(16_384), b.spm_capacity(16_384));
        for _ in 0..64 {
            prop_assert_eq!(a.dma_fault(), b.dma_fault());
            prop_assert_eq!(a.jitter(Cycles(1 << 20)), b.jitter(Cycles(1 << 20)));
        }
    }

    /// Jitter is a bounded multiplicative perturbation: the observed count
    /// stays within ±j per-mille of the true count for any magnitude.
    #[test]
    fn jitter_stays_within_its_envelope(
        seed: u64,
        c in 1u64..u64::MAX / 2_000,
        jitter in 0u32..999,
    ) {
        let plan = FaultPlan { jitter_permille: jitter, ..FaultPlan::with_seed(seed) };
        let mut s = plan.session(0, 0);
        let lo = (c as i128 * (1000 - i128::from(jitter)) / 1000) as u64;
        let hi = (c as i128 * (1000 + i128::from(jitter)) / 1000) as u64;
        for _ in 0..32 {
            let got = s.jitter(Cycles(c)).get();
            prop_assert!((lo..=hi).contains(&got), "{got} outside [{lo}, {hi}]");
        }
        let mut quiet = plan;
        quiet.jitter_permille = 0;
        prop_assert_eq!(quiet.session(0, 0).jitter(Cycles(c)), Cycles(c));
    }

    /// A checkpoint survives render → parse bit-exactly, for any cell mix
    /// and any fingerprint.
    #[test]
    fn checkpoint_round_trips(
        fingerprint: u64,
        cells in prop::collection::vec(cand_cell(), 0..50),
    ) {
        let text = checkpoint::render(fingerprint, &cells);
        let parsed = checkpoint::parse(&text);
        prop_assert_eq!(parsed, Ok(Checkpoint { fingerprint, cells }));
    }
}
