//! DMA-wall schedule dimensions: functional equivalence and determinism.
//!
//! The four new dimensions (double buffering, transaction coalescing,
//! register-broadcast tiling, SPM-resident reuse) change *when and how*
//! bytes move, never *which* bytes arrive: a schedule with any combination
//! of them enabled must produce bit-identical output to the plain schedule,
//! and tuning over the enlarged space must stay bit-identical across
//! worker counts.

use proptest::prelude::*;
use sw26010::{CoreGroup, ExecMode, MachineConfig};
use swatop::interp::{execute, instantiate};
use swatop::ops::matmul::{lower_matmul_body, MatmulKnobs, Resident};
use swatop::ops::tiling::PadMode;
use swatop::ops::{DmaKnobs, MatmulOp};
use swatop::scheduler::{Operator, Scheduler};
use swatop::tuner::{tune, TierPolicy, TuneOptions};
use swatop_ir::{MemRole, Program, SpmSlot, Stmt};

/// Base knob set the equivalence tests perturb.
fn base_knobs(t_m: usize, t_n: usize, t_k: usize) -> MatmulKnobs {
    MatmulKnobs {
        t_m,
        t_n,
        t_k,
        a_col: false,
        b_col: false,
        vec_m: false,
        n_outer: false,
        dma: DmaKnobs::default(),
        resident: Resident::None,
    }
}

/// Lower, optimize, plan and *functionally* execute one matmul schedule,
/// returning the exact output buffer (`None` when the knobs are
/// inapplicable to the shape). The optimizer runs with prefetching enabled,
/// so the program's own hints decide which DMA-wall passes apply.
fn run_matmul(
    cfg: &MachineConfig,
    m: usize,
    n: usize,
    k: usize,
    knobs: &MatmulKnobs,
) -> Option<(Vec<f32>, Program)> {
    let mut p = Program::new(format!("mm_{m}x{n}x{k}"));
    let a = p.mem_buf("A", m * k, MemRole::Input);
    let b = p.mem_buf("B", k * n, MemRole::Input);
    let c = p.mem_buf("C", m * n, MemRole::Output);
    let body = lower_matmul_body(&mut p, knobs, a, b, c, m, n, k, PadMode::Lightweight)?;
    p.set_body(Stmt::seq(body));
    let opt = swatop::optimizer::optimize(p, true);
    let exe = swatop::codegen::plan(opt, cfg).ok()?;
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    let binding = instantiate(&mut cg, &exe);
    let inputs = [
        swtensor::init::random_vec(m * k, 0xA),
        swtensor::init::random_vec(k * n, 0xB),
    ];
    let input_ids = exe.program.bufs_with_role(MemRole::Input);
    assert_eq!(input_ids.len(), 2);
    for (id, data) in input_ids.iter().zip(&inputs) {
        cg.mem.write(binding.bufs[id.0], 0, data).unwrap();
    }
    execute(&mut cg, &exe, &binding).ok()?;
    let out_ids = exe.program.bufs_with_role(MemRole::Output);
    let program = exe.program.clone();
    Some((cg.mem.buffer(binding.bufs[out_ids[0].0]).to_vec(), program))
}

/// Whether the planned program contains a double-buffered DMA.
fn has_double_slot(body: &Stmt) -> bool {
    let mut found = false;
    body.visit(&mut |s| {
        if let Stmt::DmaCpe(d) = s {
            if matches!(d.spm, SpmSlot::Double { .. }) {
                found = true;
            }
        }
    });
    found
}

/// Whether the planned program contains a packed-staging transform.
fn has_pack_tiles(p: &Program) -> bool {
    let mut found = false;
    p.body.visit(&mut |s| {
        if let Stmt::Transform(t) = s {
            if matches!(t.kind, swatop_ir::TransformKind::PackTiles { .. }) {
                found = true;
            }
        }
    });
    found
}

#[test]
fn double_buffered_gemm_matches_single_buffered_exactly() {
    let cfg = MachineConfig::default();
    let (m, n, k) = (96, 96, 96);
    let plain = base_knobs(32, 32, 16);
    let mut dbuf = plain;
    dbuf.dma.dbuf = true;
    let (out_plain, prog_plain) = run_matmul(&cfg, m, n, k, &plain).expect("plain runs");
    let (out_dbuf, prog_dbuf) = run_matmul(&cfg, m, n, k, &dbuf).expect("dbuf runs");
    assert!(!has_double_slot(&prog_plain.body), "dbuf off ⇒ no double slots");
    assert!(has_double_slot(&prog_dbuf.body), "dbuf on ⇒ prefetched schedule");
    assert_eq!(out_plain, out_dbuf, "double buffering changed the result");
}

#[test]
fn broadcast_and_resident_match_plain_exactly() {
    let cfg = MachineConfig::default();
    let (m, n, k) = (96, 96, 96);
    let plain = base_knobs(32, 32, 16);
    let (out_plain, _) = run_matmul(&cfg, m, n, k, &plain).expect("plain runs");

    let mut bcast = plain;
    bcast.dma.bcast = true;
    let (out_bcast, _) = run_matmul(&cfg, m, n, k, &bcast).expect("bcast runs");
    assert_eq!(out_plain, out_bcast, "broadcast tiling changed the result");

    // Resident A pairs with mn order, resident B with nm.
    let mut res_a = plain;
    res_a.resident = Resident::A;
    let (out_a, _) = run_matmul(&cfg, m, n, k, &res_a).expect("resident-a runs");
    assert_eq!(out_plain, out_a, "resident-A reuse changed the result");

    let mut res_b = plain;
    res_b.n_outer = true;
    res_b.resident = Resident::B;
    let (out_b, _) = run_matmul(&cfg, m, n, k, &res_b).expect("resident-b runs");
    assert_eq!(out_plain, out_b, "resident-B reuse changed the result");
}

#[test]
fn new_dimensions_are_bit_identical_across_job_counts() {
    let cfg = MachineConfig::default();
    let op = MatmulOp::new(64, 64, 32);
    let space = op.space();
    for knob in ["dbuf", "coal", "bcast", "resident"] {
        assert!(space.has_knob(knob), "matmul space exposes {knob}");
    }
    let all = Scheduler::new(cfg.clone()).enumerate(&op);
    // A strided sample keeps the blackbox run fast while still crossing
    // every new dimension (the stride is coprime with the knob arities).
    let cands: Vec<_> = all.iter().step_by(29).cloned().collect();
    assert!(cands.len() >= 64, "need a nontrivial sample, got {}", cands.len());
    assert!(
        cands.iter().any(|c| c.describe.contains("dbuf=true")),
        "sample crosses the dbuf dimension"
    );
    let sweep =
        |jobs| TuneOptions { jobs, tiers: TierPolicy::exhaustive(), ..TuneOptions::default() };
    let serial = tune(&cfg, &cands, &sweep(1), None).expect("serial");
    for jobs in [2, 4] {
        let par = tune(&cfg, &cands, &sweep(jobs), None).expect("parallel");
        assert_eq!(par.best, serial.best, "jobs={jobs}");
        assert_eq!(par.cycles, serial.cycles, "jobs={jobs}");
        assert_eq!(par.all_cycles, serial.all_cycles, "jobs={jobs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The coalescer never changes the bytes delivered to SPM: any shape,
    /// any base knob set, output is bit-identical with coalescing on/off.
    #[test]
    fn coalescer_preserves_delivered_bytes(
        m in 8usize..100,
        n in 8usize..100,
        k in 8usize..64,
        t_sel in 0usize..4,
        dbuf: bool,
    ) {
        let cfg = MachineConfig::default();
        let tiles = [(32, 32, 8), (32, 32, 16), (32, 64, 16), (64, 32, 8)];
        let (t_m, t_n, t_k) = tiles[t_sel];
        let mut plain = base_knobs(t_m, t_n, t_k);
        plain.dma.dbuf = dbuf;
        let mut coal = plain;
        coal.dma.coalesce = true;
        let (Some((out_plain, _)), Some((out_coal, prog_coal))) = (
            run_matmul(&cfg, m, n, k, &plain),
            run_matmul(&cfg, m, n, k, &coal),
        ) else {
            return Ok(());
        };
        prop_assert_eq!(&out_plain, &out_coal, "m={} n={} k={}", m, n, k);
        // The knob must actually bite on strided fetches wider than one
        // tile row (otherwise the pass correctly leaves the program alone).
        if n > t_n && k > t_k {
            prop_assert!(has_pack_tiles(&prog_coal), "coalesce selected but no PackTiles");
        }
    }

    /// All four dimensions enabled at once still compute the exact same
    /// bytes as the plain schedule.
    #[test]
    fn all_dimensions_combined_preserve_results(
        m in 8usize..100,
        n in 8usize..100,
        k in 8usize..64,
        n_outer: bool,
    ) {
        let cfg = MachineConfig::default();
        let mut plain = base_knobs(32, 32, 16);
        plain.n_outer = n_outer;
        let mut full = plain;
        full.dma = DmaKnobs { dbuf: true, coalesce: true, bcast: true };
        full.resident = if n_outer { Resident::B } else { Resident::A };
        let (Some((out_plain, _)), Some((out_full, _))) = (
            run_matmul(&cfg, m, n, k, &plain),
            run_matmul(&cfg, m, n, k, &full),
        ) else {
            return Ok(());
        };
        prop_assert_eq!(&out_plain, &out_full, "m={} n={} k={}", m, n, k);
    }
}
