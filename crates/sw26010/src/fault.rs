//! Deterministic fault injection for the simulated core group.
//!
//! The paper's autotuner measures candidates on real SW26010 silicon, where
//! the measurement path is not perfect: DMA descriptors are occasionally
//! rejected or time out and must be reissued, the usable scratch-pad shrinks
//! when the runtime parks athread control blocks or debug buffers in SPM,
//! and wall-clock cycle counts jitter with DRAM refresh and network-on-chip
//! contention. Our simulator is bit-deterministic, so a tuner built only
//! against it would silently assume a perfect machine. This module injects
//! those three failure modes *deterministically* from a seeded [`FaultPlan`]:
//!
//! * **DMA transaction failures** — a batch issue returns
//!   [`MachineError::DmaFault`](crate::MachineError::DmaFault), which is
//!   transient: reissuing the batch (a fresh run / attempt) may succeed.
//! * **SPM capacity pressure** — a run may see a reduced effective SPM
//!   capacity, failing schedules that fit only with zero headroom.
//! * **Cycle-measurement jitter** — reported cycle counts are scaled by a
//!   bounded multiplicative factor, modelling noisy timers.
//!
//! Determinism contract: the fault stream of a run is a pure function of
//! `(plan, run, attempt)` — see [`FaultPlan::session`]. Tuners derive `run`
//! from the candidate's index and `attempt` from the retry counter, so
//! results are bit-identical for any worker count and any evaluation order.
//!
//! All knobs are integers (parts-per-million rates, per-mille magnitudes)
//! and all arithmetic is integral, so the model stays exactly reproducible
//! across platforms.

use crate::clock::Cycles;

/// Odd constant of the splitmix64 increment (Weyl sequence step).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64: advances `state` by the Weyl constant and returns a scrambled
/// output. Statistically solid for this purpose and trivially seedable —
/// every 64-bit seed gives an independent-looking stream.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded description of which faults to inject and how often.
///
/// A plan is pure data (no RNG state); per-run state lives in
/// [`FaultSession`]. Rates are parts-per-million so that `Eq`/`Hash` hold
/// exactly and a plan can sit inside [`MachineConfig`](crate::MachineConfig)
/// without breaking its `PartialEq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Master seed; every injected fault derives from it.
    pub seed: u64,
    /// Probability (ppm) that a DMA batch issue fails transiently.
    pub dma_fail_ppm: u32,
    /// Probability (ppm) that a run executes under SPM capacity pressure.
    pub spm_pressure_ppm: u32,
    /// Maximum fraction (per-mille) of SPM stolen when pressure strikes.
    pub spm_steal_max_permille: u32,
    /// Half-width (per-mille) of the multiplicative jitter applied to
    /// observed cycle counts; `0` disables jitter (and repeat measurement).
    pub jitter_permille: u32,
}

impl FaultPlan {
    /// A plan with the default fault mix: 0.01% DMA batch failures, 2% of
    /// runs under SPM pressure stealing up to 25% of capacity, and ±2%
    /// timing jitter. The DMA rate is *per batch issue*, so a run's failure
    /// probability compounds with how much data it moves — small GEMM tiles
    /// almost never fault, interpreting a large conv occasionally does,
    /// which is exactly the size-dependence of the real machine. Rates high
    /// enough to kill most attempts of a big program belong in targeted
    /// stress tests, not the default envelope.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            dma_fail_ppm: 100,
            spm_pressure_ppm: 20_000,
            spm_steal_max_permille: 250,
            jitter_permille: 20,
        }
    }

    /// Build a plan from the `SWATOP_FAULT_SEED` environment variable
    /// (decimal u64). Returns `None` when unset, empty, or unparseable, so
    /// callers can fall back to a fault-free machine.
    pub fn from_env() -> Option<Self> {
        std::env::var("SWATOP_FAULT_SEED")
            .ok()
            .filter(|s| !s.is_empty())
            .and_then(|s| s.trim().parse::<u64>().ok())
            .map(Self::with_seed)
    }

    /// Derive the fault stream for one measurement run. `run` identifies the
    /// unit of work (tuners use the candidate's stable index in the
    /// enumerated space) and `attempt` the retry ordinal, so a retried run
    /// sees a *different* stream — that is what makes DMA faults transient —
    /// while re-executing the same `(run, attempt)` reproduces it exactly.
    pub fn session(&self, run: u64, attempt: u32) -> FaultSession {
        // Mix seed, run and attempt through distinct odd multipliers so
        // neighbouring runs/attempts land in unrelated streams.
        let mut state = self.seed ^ 0xA076_1D64_78BD_642F;
        state = state.wrapping_add(run.wrapping_mul(GOLDEN_GAMMA));
        state = state.wrapping_add((u64::from(attempt) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // Burn one output so correlated seeds decorrelate before first use.
        splitmix64(&mut state);

        // SPM pressure is drawn once up front: the effective capacity must
        // be stable for the whole run, or mid-program capacity checks would
        // disagree with each other.
        let mut session = FaultSession { plan: *self, state, spm_stolen_permille: 0 };
        if self.spm_steal_max_permille > 0 && session.draw_ppm() < u64::from(self.spm_pressure_ppm)
        {
            let max = u64::from(self.spm_steal_max_permille.min(999));
            session.spm_stolen_permille = (1 + session.next() % max.max(1)) as u32;
        }
        session
    }
}

/// Per-run fault state derived from a [`FaultPlan`]; see
/// [`FaultPlan::session`] for the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSession {
    plan: FaultPlan,
    state: u64,
    spm_stolen_permille: u32,
}

impl FaultSession {
    #[inline]
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// One uniform draw in `[0, 1_000_000)`.
    #[inline]
    fn draw_ppm(&mut self) -> u64 {
        self.next() % 1_000_000
    }

    /// Does the next DMA batch issue fail? Each call consumes one draw.
    pub fn dma_fault(&mut self) -> bool {
        self.plan.dma_fail_ppm > 0 && self.draw_ppm() < u64::from(self.plan.dma_fail_ppm)
    }

    /// Effective SPM capacity for this run, given the nominal capacity in
    /// elements. Identical to `full` unless this run drew capacity pressure.
    pub fn spm_capacity(&self, full: usize) -> usize {
        full - full * self.spm_stolen_permille as usize / 1000
    }

    /// Fraction of SPM stolen this run, in per-mille (0 = no pressure).
    pub fn spm_stolen_permille(&self) -> u32 {
        self.spm_stolen_permille
    }

    /// Apply multiplicative measurement jitter to an observed cycle count:
    /// `c · (1000 + d) / 1000` with `d` uniform in `[-j, +j]` per-mille.
    /// Integer arithmetic keeps the result exactly reproducible.
    pub fn jitter(&mut self, c: Cycles) -> Cycles {
        let j = u64::from(self.plan.jitter_permille.min(999));
        if j == 0 {
            return c;
        }
        let d = (self.next() % (2 * j + 1)) as i64 - j as i64;
        let scaled = c.get() as i128 * (1000 + d as i128) / 1000;
        Cycles(scaled as u64)
    }
}

/// Corruption classes of the seeded *miscompile injector*.
///
/// Where [`FaultPlan`] models an honest machine that fails loudly (dropped
/// batches, stolen SPM, noisy timers), the miscompile injector models the
/// failure mode a schedule verifier exists for: silent wrong answers. Each
/// class corrupts functional data movement without touching the clock
/// model, so a cost-only measurement of the same program is bit-identical —
/// exactly the corruption a tuner cannot see and a differential validator
/// must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MiscompileKind {
    /// Corrupt one DMA payload: after a per-CPE functional copy lands, a
    /// bit is flipped in the destination's first element (an exponent bit,
    /// so the value change always dwarfs ulp-level tolerance).
    CorruptPayload,
    /// Swap ping/pong parity: a sparse subset of `SpmSlot::Double`
    /// resolutions picks the wrong half, so a consumer reads the buffer the
    /// prefetcher is still filling. A *global* swap would be self-consistent
    /// and correct — sparseness is what makes it a hazard.
    SwapParity,
    /// Drop a fused wait: the functional copy of a chained (fused) batch is
    /// elided, modelling a wait that under-counted its chain — compute reads
    /// whatever the SPM held before the fused get.
    DropFusedWait,
}

impl MiscompileKind {
    /// Every corruption class, for injection-matrix sweeps.
    pub const ALL: [MiscompileKind; 3] =
        [MiscompileKind::CorruptPayload, MiscompileKind::SwapParity, MiscompileKind::DropFusedWait];

    /// Stable lowercase name (telemetry, CLI, test matrices).
    pub fn name(&self) -> &'static str {
        match self {
            MiscompileKind::CorruptPayload => "corrupt-payload",
            MiscompileKind::SwapParity => "swap-parity",
            MiscompileKind::DropFusedWait => "drop-fused-wait",
        }
    }
}

/// Seeded description of one injected miscompile. Pure data, like
/// [`FaultPlan`]; per-run state lives in [`MiscompileSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MiscompilePlan {
    pub kind: MiscompileKind,
    /// Phase seed: selects *which* payloads / parities / chains are hit, so
    /// a seed matrix exercises different victims deterministically.
    pub seed: u64,
}

impl MiscompilePlan {
    pub fn new(kind: MiscompileKind, seed: u64) -> Self {
        MiscompilePlan { kind, seed }
    }

    /// Fresh per-run injection state.
    pub fn session(&self) -> MiscompileSession {
        MiscompileSession { plan: *self, copies: 0, chains: 0, parities: 0, fired: 0 }
    }
}

/// Periods of the deterministic firing rules. Chosen small enough that any
/// realistic schedule trips its class at least once (a full-mesh get alone
/// issues 64 per-CPE copies; a double-buffered nest resolves slots every
/// iteration; fused runs chain several batches), and coprime so different
/// classes don't shadow each other.
const CORRUPT_PERIOD: u64 = 61;
const PARITY_PERIOD: u64 = 7;
const CHAIN_PERIOD: u64 = 2;

/// Per-run miscompile state; the event stream is a pure function of the
/// plan and the program's own deterministic operation order, so an injected
/// run is exactly reproducible (and bit-identical across worker counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiscompileSession {
    plan: MiscompilePlan,
    copies: u64,
    chains: u64,
    parities: u64,
    fired: u64,
}

impl MiscompileSession {
    pub fn kind(&self) -> MiscompileKind {
        self.plan.kind
    }

    /// How many corruption events have fired so far. A validator test that
    /// sees zero events must not claim the injection was "caught".
    pub fn events(&self) -> u64 {
        self.fired
    }

    #[inline]
    fn strike(counter: &mut u64, period: u64, seed: u64) -> bool {
        let i = *counter;
        *counter += 1;
        i % period == seed % period
    }

    /// Should the functional copy that just landed be corrupted? Counts
    /// every per-CPE copy; fires only under [`MiscompileKind::CorruptPayload`].
    pub fn corrupt_copy(&mut self) -> bool {
        let hit = Self::strike(&mut self.copies, CORRUPT_PERIOD, self.plan.seed)
            && self.plan.kind == MiscompileKind::CorruptPayload;
        self.fired += u64::from(hit);
        hit
    }

    /// Should this *chained* batch's functional copies be dropped? Called
    /// once per fused batch; fires only under [`MiscompileKind::DropFusedWait`].
    pub fn drop_fused_copy(&mut self) -> bool {
        let hit = Self::strike(&mut self.chains, CHAIN_PERIOD, self.plan.seed)
            && self.plan.kind == MiscompileKind::DropFusedWait;
        self.fired += u64::from(hit);
        hit
    }

    /// Should this double-buffer slot resolution read the wrong parity?
    /// Counts every `SpmSlot::Double` resolution; fires only under
    /// [`MiscompileKind::SwapParity`].
    pub fn flip_parity(&mut self) -> bool {
        let hit = Self::strike(&mut self.parities, PARITY_PERIOD, self.plan.seed)
            && self.plan.kind == MiscompileKind::SwapParity;
        self.fired += u64::from(hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::with_seed(0xF00D)
    }

    #[test]
    fn same_run_and_attempt_reproduces_the_stream() {
        let (mut a, mut b) = (plan().session(17, 2), plan().session(17, 2));
        assert_eq!(a.spm_stolen_permille(), b.spm_stolen_permille());
        for _ in 0..256 {
            assert_eq!(a.dma_fault(), b.dma_fault());
            assert_eq!(a.jitter(Cycles(1_000_000)), b.jitter(Cycles(1_000_000)));
        }
    }

    #[test]
    fn different_attempts_decorrelate() {
        // A retried run must not replay the exact same faults, otherwise
        // retrying a failed DMA would loop forever. Use a high rate so the
        // sequences have enough hits to compare.
        let mut p = plan();
        p.dma_fail_ppm = 100_000;
        let mut a = p.session(17, 0);
        let mut b = p.session(17, 1);
        let seq_a: Vec<bool> = (0..512).map(|_| a.dma_fault()).collect();
        let seq_b: Vec<bool> = (0..512).map(|_| b.dma_fault()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn dma_fault_rate_tracks_the_plan() {
        let mut p = plan();
        p.dma_fail_ppm = 100_000; // 10%
        let mut s = p.session(0, 0);
        let hits = (0..100_000).filter(|_| s.dma_fault()).count();
        assert!((8_000..12_000).contains(&hits), "10% rate drifted: {hits}/100000");
    }

    #[test]
    fn jitter_is_bounded_and_zero_rate_is_identity() {
        let mut s = plan().session(3, 0);
        for _ in 0..1000 {
            let c = s.jitter(Cycles(1_000_000)).get();
            assert!((980_000..=1_020_000).contains(&c), "±2% bound violated: {c}");
        }
        let mut quiet = plan();
        quiet.jitter_permille = 0;
        let mut s = quiet.session(3, 0);
        assert_eq!(s.jitter(Cycles(12_345)), Cycles(12_345));
    }

    #[test]
    fn spm_pressure_is_bounded() {
        let p = plan();
        let mut pressured = 0;
        for run in 0..10_000u64 {
            let s = p.session(run, 0);
            let stolen = s.spm_stolen_permille();
            assert!(stolen <= p.spm_steal_max_permille);
            if stolen > 0 {
                pressured += 1;
                assert!(s.spm_capacity(16_384) < 16_384);
            } else {
                assert_eq!(s.spm_capacity(16_384), 16_384);
            }
        }
        // 2% of runs, 10k trials: expect ~200.
        assert!((100..400).contains(&pressured), "pressure rate drifted: {pressured}");
    }

    #[test]
    fn from_env_parses_or_declines() {
        // Only exercises the parse path that doesn't depend on ambient env.
        assert_eq!(FaultPlan::with_seed(7).seed, 7);
        assert!(FaultPlan::with_seed(7).dma_fail_ppm > 0);
    }

    #[test]
    fn miscompile_classes_are_disjoint() {
        // A session only fires events of its own class: the other two hooks
        // advance their counters but never strike.
        for kind in MiscompileKind::ALL {
            let mut s = MiscompilePlan::new(kind, 3).session();
            let (mut c, mut p, mut d) = (0u64, 0u64, 0u64);
            for _ in 0..1000 {
                c += u64::from(s.corrupt_copy());
                p += u64::from(s.flip_parity());
                d += u64::from(s.drop_fused_copy());
            }
            assert_eq!(c > 0, kind == MiscompileKind::CorruptPayload, "{}", kind.name());
            assert_eq!(p > 0, kind == MiscompileKind::SwapParity, "{}", kind.name());
            assert_eq!(d > 0, kind == MiscompileKind::DropFusedWait, "{}", kind.name());
            assert_eq!(s.events(), c + p + d);
        }
    }

    #[test]
    fn miscompile_firing_is_periodic_and_guaranteed() {
        // Any program issuing at least one full-period window of operations
        // is guaranteed a strike, for every seed.
        for seed in 0..200u64 {
            let mut s = MiscompilePlan::new(MiscompileKind::CorruptPayload, seed).session();
            assert!((0..61).any(|_| s.corrupt_copy()), "seed {seed} never struck");
            let mut s = MiscompilePlan::new(MiscompileKind::SwapParity, seed).session();
            assert!((0..7).any(|_| s.flip_parity()), "seed {seed} never struck");
            let mut s = MiscompilePlan::new(MiscompileKind::DropFusedWait, seed).session();
            assert!((0..2).any(|_| s.drop_fused_copy()), "seed {seed} never struck");
        }
    }

    #[test]
    fn miscompile_sessions_replay_exactly() {
        let mk = || MiscompilePlan::new(MiscompileKind::SwapParity, 42).session();
        let (mut a, mut b) = (mk(), mk());
        let sa: Vec<bool> = (0..256).map(|_| a.flip_parity()).collect();
        let sb: Vec<bool> = (0..256).map(|_| b.flip_parity()).collect();
        assert_eq!(sa, sb);
        // Different seeds strike different victims.
        let mut c = MiscompilePlan::new(MiscompileKind::SwapParity, 43).session();
        let sc: Vec<bool> = (0..256).map(|_| c.flip_parity()).collect();
        assert_ne!(sa, sc);
    }
}
