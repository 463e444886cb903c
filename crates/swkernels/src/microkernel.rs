//! Micro-kernel instruction scheduling: the ground-truth cycle cost.
//!
//! The hand-written assembly kernels of swDNN/swATOP keep a 4×4 block of C
//! vectors resident in registers, and software-pipeline the inner K loop so
//! the broadcast loads for step `k+1` dual-issue (on P1) under the 16
//! `vmad`s of step `k` (on P0). We reproduce that schedule as an explicit
//! instruction stream and run it through the dual-issue scoreboard — hazard
//! stalls at short K, pipeline drains at panel switches and register-block
//! boundaries all emerge from the simulation instead of being assumed.
//!
//! Everything here is pure: a call simulates. A per-CPE tile is priced from
//! its ≤ 4 distinct register blocks ([`reg_blocks`]); sharing block costs
//! *across* calls is [`crate::cost`]'s job, and these functions are the
//! oracle its memos are tested against.

use sw26010::pipeline::{Instruction, Pipe, Scoreboard};
use sw26010::regcomm;
use sw26010::{MachineConfig, MESH};

/// Shape of one register block: `vecs` 4-wide C vectors along the
/// vectorised dimension × `scalars` positions along the other dimension.
/// `vecs · scalars ≤ 16` accumulator registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegBlock {
    pub vecs: usize,
    pub scalars: usize,
}

impl RegBlock {
    pub fn new(vecs: usize, scalars: usize) -> Self {
        assert!((1..=4).contains(&vecs) && (1..=4).contains(&scalars));
        RegBlock { vecs, scalars }
    }
}

// Register map (32 vector registers):
//   0..16   C accumulators
//   16..20  vec-operand loads, even k      20..24 scalar-operand, even k
//   24..28  vec-operand loads, odd k       28..32 scalar-operand, odd k
const ACC_BASE: u16 = 0;
const VEC_BASE: [u16; 2] = [16, 24];
const SCA_BASE: [u16; 2] = [20, 28];

/// Broadcast loads (P1) feeding one K step of `blk`.
///
/// `fast_vec_load`: the vectorised operand is contiguous in SPM, so one
/// `vlddr`/`vlddc` fetches a whole 4-vector; otherwise four scalar
/// load-extend-broadcasts (`vldder`/`vlddec`) build it.
fn loads_per_step(blk: RegBlock, fast_vec_load: bool) -> usize {
    blk.vecs * if fast_vec_load { 1 } else { 4 } + blk.scalars
}

/// Simulate the software-pipelined inner loop over `k_len` steps for one
/// register block and return the total cycles (C load, K loop, C store).
///
/// Instructions issue straight into the scoreboard in schedule order: per
/// step, the `vecs × scalars` vmads reading register set `k % 2` interleave
/// one-for-one with the loads of step `k + 1` into the other set so the
/// decoder can pair them; whichever list is longer trails.
fn simulate_block(cfg: &MachineConfig, blk: RegBlock, k_len: usize, fast_vec_load: bool) -> u64 {
    let mut sb = Scoreboard::default();
    let n_acc = blk.vecs * blk.scalars;
    let per_vec = if fast_vec_load { 1 } else { 4 };
    let n_vec_loads = blk.vecs * per_vec;
    let n_loads = loads_per_step(blk, fast_vec_load);
    // The `i`-th load of a step into register set `set`: the vector operand
    // first (a slow vector is four element loads merged into one register,
    // ready when the last insert completes), then the scalar operand.
    let load = |sb: &mut Scoreboard, set: usize, i: usize| {
        let dst = if i < n_vec_loads {
            VEC_BASE[set] + (i / per_vec) as u16
        } else {
            SCA_BASE[set] + (i - n_vec_loads) as u16
        };
        sb.issue(&Instruction::new(Pipe::P1, Some(dst), &[], cfg.bcast_latency));
    };
    // Load the C accumulators from SPM.
    for a in 0..n_acc as u16 {
        sb.issue(&Instruction::new(Pipe::P1, Some(ACC_BASE + a), &[], cfg.vldd_latency));
    }
    for i in 0..n_loads {
        load(&mut sb, 0, i);
    }
    for k in 0..k_len {
        let set = k % 2;
        let next_loads = if k + 1 < k_len { n_loads } else { 0 };
        for i in 0..n_acc.max(next_loads) {
            if i < n_acc {
                let (v, s) = (i / blk.scalars, i % blk.scalars);
                let acc = ACC_BASE + i as u16;
                let srcs = [VEC_BASE[set] + v as u16, SCA_BASE[set] + s as u16, acc];
                sb.issue(&Instruction::new(Pipe::P0, Some(acc), &srcs, cfg.vmad_latency));
            }
            if i < next_loads {
                load(&mut sb, 1 - set, i);
            }
        }
    }
    // Store C back to SPM: stores consume the accumulators.
    for a in 0..n_acc as u16 {
        sb.issue(&Instruction::new(Pipe::P1, None, &[ACC_BASE + a], cfg.vstd_latency));
    }
    sb.finish_time().get()
}

/// Cycles for one register block running `k_len` accumulation steps, given
/// `exact(steps)`, the exact cost of `steps` of them.
///
/// Short loops are priced exactly; long loops are extrapolated from the
/// steady-state cadence between two exact probes (the schedule is periodic
/// after warm-up), keeping the cost model fast enough for black-box tuning
/// while remaining a genuine pipeline simulation. `exact` is only ever asked
/// for at most 96 steps, and for the same two probes whatever `k_len` is:
/// [`block_cycles`] passes the simulation itself, [`crate::cost`] its memo
/// of it.
pub fn block_cycles_with(k_len: usize, mut exact: impl FnMut(usize) -> u64) -> u64 {
    const EXACT: usize = 96;
    const PROBE: usize = 64;
    if k_len <= EXACT {
        return exact(k_len);
    }
    let c_hi = exact(EXACT);
    let c_lo = exact(PROBE);
    let steady_num = c_hi - c_lo; // cycles for (EXACT-PROBE) steady iterations
    let extra = (k_len - EXACT) as u64;
    c_hi + steady_num * extra / (EXACT - PROBE) as u64
}

/// [`block_cycles_with`] over the scoreboard simulation.
///
/// Pure: every call runs the scoreboard. [`crate::cost`] memoises the
/// simulations; this function is the oracle that memo is tested against.
pub fn block_cycles(cfg: &MachineConfig, blk: RegBlock, k_len: usize, fast_vec_load: bool) -> u64 {
    block_cycles_with(k_len, |steps| simulate_block(cfg, blk, steps, fast_vec_load))
}

/// The register blocking of a per-CPE `v_len × s_len` C tile, as the
/// distinct block shapes with how often each occurs: the tile is cut into
/// blocks of at most 4 vectors × 4 scalars, so only the full block and the
/// ragged right/bottom/corner blocks exist — at most four entries however
/// large the tile. The single owner of the blocking walk, shared by the
/// cycle and the issue-count accounting.
///
/// `v_len` is the per-CPE length of the vectorised dimension (must be a
/// multiple of 4), `s_len` the other dimension.
pub fn reg_blocks(v_len: usize, s_len: usize) -> impl Iterator<Item = (RegBlock, u64)> {
    debug_assert_eq!(v_len % 4, 0, "vectorised dim must be a multiple of 4");
    let n_vec = v_len / 4;
    let (full_v, rest_v) = (n_vec / 4, n_vec % 4);
    let (full_s, rest_s) = (s_len / 4, s_len % 4);
    [(4, 4, full_v * full_s), (4, rest_s, full_v), (rest_v, 4, full_s), (rest_v, rest_s, 1)]
        .into_iter()
        .filter(|&(vecs, scalars, count)| vecs > 0 && scalars > 0 && count > 0)
        .map(|(vecs, scalars, count)| (RegBlock::new(vecs, scalars), count as u64))
}

/// Cycles for the complete per-CPE kernel: the local `Mb × Nb` C tile
/// accumulated over the full K (eight mesh panels of `Kb` each), decomposed
/// into register blocks ([`reg_blocks`]). `block_cost(blk, k_len)` prices one
/// block: [`per_cpe_cycles`] passes the pure [`block_cycles`], the cached
/// query in [`crate::cost`] the same extrapolation over memoised simulations.
pub fn per_cpe_cycles_with(
    cfg: &MachineConfig,
    v_len: usize,
    s_len: usize,
    kb: usize,
    mut block_cost: impl FnMut(RegBlock, usize) -> u64,
) -> u64 {
    // All 8 panels accumulate into the same C block.
    let k_total = MESH * kb;
    // Rotating through the 8 broadcast producers costs a pattern switch per
    // panel (charged once per kernel call: all register blocks stream
    // through panels together in the generated schedule).
    let mut total = cfg.kernel_call_overhead.get() + regcomm::panel_rotation_overhead(cfg).get();
    for (blk, count) in reg_blocks(v_len, s_len) {
        // 8: per-block loop bookkeeping (branch, address updates).
        total += count * (8 + block_cost(blk, k_total));
    }
    total
}

/// [`per_cpe_cycles_with`] over the pure scoreboard simulation: `kb` is the
/// per-CPE K panel, `fast_vec_load` whether the vectorised operand loads as
/// whole vectors.
pub fn per_cpe_cycles(
    cfg: &MachineConfig,
    v_len: usize,
    s_len: usize,
    kb: usize,
    fast_vec_load: bool,
) -> u64 {
    per_cpe_cycles_with(cfg, v_len, s_len, kb, |blk, k_len| {
        block_cycles(cfg, blk, k_len, fast_vec_load)
    })
}

/// Per-CPE instruction issue counts of one kernel call, derived analytically
/// from the same register blocking as [`per_cpe_cycles`]. Used by
/// telemetry to report issue-slot utilization and register-communication
/// traffic without re-running the scoreboard (kernel *cycles* are memoised;
/// these counts are exact regardless of hazard stalls, since in-order issue
/// never drops instructions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueCounts {
    /// P0 (floating-point/vector) instructions: the vmads.
    pub p0: u64,
    /// P1 (memory/register-comm) instructions: broadcast loads plus the
    /// C-accumulator load/store traffic.
    pub p1: u64,
    /// Register-communication broadcast loads (subset of `p1`).
    pub broadcasts: u64,
}

/// Count the instructions one CPE issues for a full kernel call of shape
/// (`v_len`, `s_len`, `kb`): per register block of `vb × sb`, each of the
/// `8·kb` K steps issues `vb·sb` vmads on P0 and its broadcast loads on P1,
/// and the block loads and stores its `vb·sb` C accumulators once.
pub fn per_cpe_issue_counts(
    v_len: usize,
    s_len: usize,
    kb: usize,
    fast_vec_load: bool,
) -> IssueCounts {
    let k_total = (MESH * kb) as u64;
    let mut counts = IssueCounts::default();
    for (blk, count) in reg_blocks(v_len, s_len) {
        let n_acc = (blk.vecs * blk.scalars) as u64;
        let loads = loads_per_step(blk, fast_vec_load) as u64 * k_total;
        counts.p0 += count * n_acc * k_total;
        counts.broadcasts += count * loads;
        counts.p1 += count * (loads + 2 * n_acc);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    /// Oracle for [`simulate_block`]: the schedule built as an explicit
    /// instruction stream (one list of loads per K step, interleaved with
    /// the step's vmads) and run through the scoreboard in one go.
    fn emit_loads(
        cfg: &MachineConfig,
        blk: RegBlock,
        set: usize,
        fast_vec_load: bool,
        out: &mut Vec<Instruction>,
    ) {
        for v in 0..blk.vecs {
            let dst = VEC_BASE[set] + v as u16;
            for _ in 0..if fast_vec_load { 1 } else { 4 } {
                out.push(Instruction::new(Pipe::P1, Some(dst), &[], cfg.bcast_latency));
            }
        }
        for s in 0..blk.scalars {
            let dst = SCA_BASE[set] + s as u16;
            out.push(Instruction::new(Pipe::P1, Some(dst), &[], cfg.bcast_latency));
        }
    }

    fn simulate_block_stream(
        cfg: &MachineConfig,
        blk: RegBlock,
        k_len: usize,
        fast_vec_load: bool,
    ) -> u64 {
        let mut sb = Scoreboard::default();
        let n_acc = (blk.vecs * blk.scalars) as u16;
        for a in 0..n_acc {
            sb.issue(&Instruction::new(Pipe::P1, Some(ACC_BASE + a), &[], cfg.vldd_latency));
        }
        let mut stream = Vec::new();
        emit_loads(cfg, blk, 0, fast_vec_load, &mut stream);
        for k in 0..k_len {
            let set = k % 2;
            let mut loads = Vec::new();
            if k + 1 < k_len {
                emit_loads(cfg, blk, 1 - set, fast_vec_load, &mut loads);
            }
            let mut loads = loads.into_iter();
            for v in 0..blk.vecs {
                for s in 0..blk.scalars {
                    let acc = ACC_BASE + (v * blk.scalars + s) as u16;
                    let srcs = [VEC_BASE[set] + v as u16, SCA_BASE[set] + s as u16, acc];
                    stream.push(Instruction::new(Pipe::P0, Some(acc), &srcs, cfg.vmad_latency));
                    stream.extend(loads.next());
                }
            }
            stream.extend(loads);
        }
        sb.run(&stream);
        for a in 0..n_acc {
            sb.issue(&Instruction::new(Pipe::P1, None, &[ACC_BASE + a], cfg.vstd_latency));
        }
        sb.finish_time().get()
    }

    #[test]
    fn direct_issue_matches_the_instruction_stream() {
        let mut c = cfg();
        for lat in [c.bcast_latency, 1, 9] {
            c.bcast_latency = lat;
            for vecs in 1..=4 {
                for scalars in 1..=4 {
                    let blk = RegBlock::new(vecs, scalars);
                    for fast in [true, false] {
                        for k in [1usize, 2, 3, 8, 64, 96] {
                            assert_eq!(
                                simulate_block(&c, blk, k, fast),
                                simulate_block_stream(&c, blk, k, fast),
                                "{blk:?} k={k} fast={fast} bcast={lat}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The blocking walk [`reg_blocks`] summarises: one block at a time.
    fn walk_blocks(v_len: usize, s_len: usize) -> Vec<RegBlock> {
        let n_vec = v_len / 4;
        let mut out = Vec::new();
        let mut done_v = 0;
        while done_v < n_vec {
            let vb = (n_vec - done_v).min(4);
            let mut done_s = 0;
            while done_s < s_len {
                let sb = (s_len - done_s).min(4);
                out.push(RegBlock::new(vb, sb));
                done_s += sb;
            }
            done_v += vb;
        }
        out
    }

    #[test]
    fn reg_blocks_summarise_the_block_walk() {
        let c = cfg();
        for v_len in (4..=44).step_by(4) {
            for s_len in 1..=13 {
                let walk = walk_blocks(v_len, s_len);
                let blocks: Vec<(RegBlock, u64)> = reg_blocks(v_len, s_len).collect();
                assert!(blocks.len() <= 4);
                assert_eq!(blocks.iter().map(|&(_, n)| n).sum::<u64>(), walk.len() as u64);
                for &(blk, n) in &blocks {
                    let seen = walk.iter().filter(|&&w| w == blk).count() as u64;
                    assert_eq!(seen, n, "v_len {v_len} s_len {s_len} {blk:?}");
                }
                for fast in [true, false] {
                    let naive = c.kernel_call_overhead.get()
                        + regcomm::panel_rotation_overhead(&c).get()
                        + walk
                            .iter()
                            .map(|&blk| 8 + block_cycles(&c, blk, MESH * 3, fast))
                            .sum::<u64>();
                    assert_eq!(per_cpe_cycles(&c, v_len, s_len, 3, fast), naive);
                }
            }
        }
    }

    #[test]
    fn full_block_reaches_steady_sixteen_cycles() {
        // 4 vecs × 4 scalars = 16 vmads/step; P0-bound steady state must be
        // ~16 cycles/step ("16 vmad operations in 16 cycles").
        let c = cfg();
        let blk = RegBlock::new(4, 4);
        let c256 = simulate_block(&c, blk, 256, true);
        let c128 = simulate_block(&c, blk, 128, true);
        let steady = (c256 - c128) as f64 / 128.0;
        assert!(
            (steady - 16.0).abs() < 0.5,
            "steady-state {steady} cycles/step, expected ≈16"
        );
    }

    #[test]
    fn slow_vector_loads_bound_on_p1() {
        // Without contiguous vector loads, 4·4+4 = 20 P1 ops/step dominate
        // the 16 P0 vmads; in-order issue adds bubbles on top of the raw
        // P1 bound, so the steady state lands well above the fast variant's
        // 16 cycles/step but stays below 2× of it.
        let c = cfg();
        let blk = RegBlock::new(4, 4);
        let c256 = simulate_block(&c, blk, 256, false);
        let c128 = simulate_block(&c, blk, 128, false);
        let steady = (c256 - c128) as f64 / 128.0;
        assert!(
            steady > 20.0 && steady < 32.0,
            "steady-state {steady} cycles/step, expected in (20, 32)"
        );
    }

    #[test]
    fn small_blocks_are_latency_bound() {
        // A 1×1 block has 1 vmad/step but the RAW chain through the
        // accumulator (latency 7) bounds it at ~7 cycles/step — far off the
        // dense schedule. This non-linearity is what Eq. (2) cannot see.
        let c = cfg();
        let blk = RegBlock::new(1, 1);
        let c256 = simulate_block(&c, blk, 256, true);
        let c128 = simulate_block(&c, blk, 128, true);
        let steady = (c256 - c128) as f64 / 128.0;
        assert!(steady >= 6.5, "steady {steady}");
    }

    #[test]
    fn extrapolation_matches_exact_simulation() {
        let c = cfg();
        let blk = RegBlock::new(4, 4);
        for &k in &[100usize, 200, 500] {
            let exact = simulate_block(&c, blk, k, true);
            let fast = block_cycles(&c, blk, k, true);
            let err = (exact as f64 - fast as f64).abs() / exact as f64;
            assert!(err < 0.01, "k={k}: exact {exact} vs extrapolated {fast}");
        }
    }

    #[test]
    fn per_cpe_cost_scales_with_work() {
        let c = cfg();
        let small = per_cpe_cycles(&c, 8, 8, 8, true);
        let big = per_cpe_cycles(&c, 16, 16, 16, true);
        assert!(big > 4 * small, "8× the MACs must cost >4× (small {small}, big {big})");
    }

    #[test]
    fn efficiency_of_peak_shape() {
        // v=32, s=8, kb=64: per-CPE MACs = 32·8·512. At 8 flops/cycle ideal
        // cycles = 2·32·8·512/8 = 32768. Overheads should keep us within 85%
        // of peak for this large tile.
        let c = cfg();
        let cycles = per_cpe_cycles(&c, 32, 8, 64, true);
        let ideal = 2.0 * 32.0 * 8.0 * 512.0 / 8.0;
        let eff = ideal / cycles as f64;
        assert!(eff > 0.85, "efficiency {eff} (cycles {cycles}, ideal {ideal})");
        assert!(eff <= 1.0, "cannot exceed peak (eff {eff})");
    }

    #[test]
    #[should_panic]
    fn reg_block_bounds_checked() {
        RegBlock::new(5, 1);
    }

    #[test]
    fn issue_counts_match_emitted_streams() {
        // One full 4×4 block over one panel: counts must equal the vmads and
        // loads the emitter actually produces, plus 2·16 accumulator moves.
        let c = cfg();
        let k_total = MESH * 2;
        for &fast in &[true, false] {
            let counts = per_cpe_issue_counts(16, 4, 2, fast);
            let blk = RegBlock::new(4, 4);
            let mut loads = Vec::new();
            emit_loads(&c, blk, 0, fast, &mut loads);
            let per_step_loads = loads.len() as u64;
            assert_eq!(counts.p0, 16 * k_total as u64);
            assert_eq!(counts.broadcasts, per_step_loads * k_total as u64);
            assert_eq!(counts.p1, per_step_loads * k_total as u64 + 32);
        }
    }

    #[test]
    fn issue_counts_cover_ragged_blocks() {
        // v_len 20 → n_vec 5 → blocks of 4+1 vectors; s_len 6 → 4+2.
        // Total vmads must still equal n_vec·s_len per K step.
        let counts = per_cpe_issue_counts(20, 6, 1, true);
        let k_total = MESH as u64;
        assert_eq!(counts.p0, 5 * 6 * k_total);
        // Four blocks: (4,4), (4,2), (1,4), (1,2); loads = (vb+sb)·k each.
        let loads: u64 = [(4, 4), (4, 2), (1, 4), (1, 2)]
            .iter()
            .map(|&(vb, sb): &(u64, u64)| (vb + sb) * k_total)
            .sum();
        assert_eq!(counts.broadcasts, loads);
        let accs: u64 = [(4, 4), (4, 2), (1, 4), (1, 2)]
            .iter()
            .map(|&(vb, sb): &(u64, u64)| 2 * vb * sb)
            .sum();
        assert_eq!(counts.p1, loads + accs);
    }
}
