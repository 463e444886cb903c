//! Puts gathered over the register bus (DESIGN.md §11.4): on every
//! candidate of every operator, the executable as built — its gatherable
//! puts tagged — against the same program with every put left plain. The
//! gather is taken only where it is priced cheaper, so it never costs
//! cycles; it moves the same bytes, so outputs are bit-identical; and the
//! static checker passes it.

mod common;

use common::every_op;
use swatop_repro::ir::{AVar, DmaCpe, MemRole, Stmt};
use swatop_repro::sw26010::{CoreGroup, Cycles, DmaDirection, ExecMode, MachineConfig};
use swatop_repro::swatop::codegen::{plan, Planned};
use swatop_repro::swatop::interp::{execute, instantiate};
use swatop_repro::swatop::optimizer::coalesce::broadcast_bus;
use swatop_repro::swatop::optimizer::verify::verify_message;
use swatop_repro::swatop::scheduler::{Operator, Scheduler};

fn is_put(d: &DmaCpe) -> bool {
    d.direction == DmaDirection::SpmToMem
}

/// Whether the 8 blocks of a mesh row (or column) of `d` are one line.
fn line_contiguous(d: &DmaCpe) -> bool {
    let (c_r, c_c) = (d.offset.coeff(AVar::Rid), d.offset.coeff(AVar::Cid));
    (d.n_blocks == 1 || d.stride >= 8 * d.block) && (c_c == d.block as i64 || c_r == d.block as i64)
}

/// Clear the bus of every put under `s`.
fn plain_puts(s: &mut Stmt) {
    match s {
        Stmt::Seq(ss) => ss.iter_mut().for_each(plain_puts),
        Stmt::For { body, .. } => plain_puts(body),
        Stmt::If { then_, else_, .. } => {
            plain_puts(then_);
            if let Some(e) = else_ {
                plain_puts(e);
            }
        }
        Stmt::DmaCpe(d) if is_put(d) => d.bcast = None,
        _ => {}
    }
}

/// Cost-only cycles of `exe`.
fn cycles(cfg: &MachineConfig, exe: &Planned) -> Cycles {
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::CostOnly);
    let binding = instantiate(&mut cg, exe);
    execute(&mut cg, exe, &binding).expect("cost-only run")
}

/// The bits of the output of a functional run of `exe` on `op`'s inputs.
fn output(cfg: &MachineConfig, op: &dyn Operator, exe: &Planned) -> Vec<u32> {
    let mut cg = CoreGroup::new(cfg.clone(), ExecMode::Functional);
    let binding = instantiate(&mut cg, exe);
    let inputs = op.input_data(&exe.program);
    for (id, data) in exe.program.bufs_with_role(MemRole::Input).iter().zip(&inputs) {
        cg.mem.write(binding.bufs[id.0], 0, data).expect("input fits");
    }
    execute(&mut cg, exe, &binding).expect("functional run");
    let out = exe.program.bufs_with_role(MemRole::Output)[0];
    cg.mem.buffer(binding.bufs[out.0]).iter().map(|x| x.to_bits()).collect()
}

#[test]
fn gathered_puts_never_cost_cycles_and_move_the_same_bytes() {
    let cfg = MachineConfig::default();
    let sched = Scheduler::new(cfg.clone());
    // Functional runs are the slow half: a debug build compares the outputs
    // of every 4th candidate that gathers.
    let stride = if cfg!(debug_assertions) { 4 } else { 1 };
    let (mut gathering, mut compared, mut refused) = (0, 0, 0);
    for op in every_op() {
        let mut gathers = 0;
        for cand in sched.enumerate(op.as_ref()) {
            let exe: &Planned = &cand.exe;
            let mut puts = Vec::new();
            exe.program.body.visit(&mut |s| match s {
                Stmt::DmaCpe(d) if is_put(d) => puts.push(d.clone()),
                _ => {}
            });
            // A put on the bus is one the price test takes; a put whose
            // layout allows a gather that the test refuses stays plain.
            for d in &puts {
                let priced = broadcast_bus(d);
                assert!(d.bcast.is_none() || d.bcast == priced, "{}", cand.describe);
                refused += usize::from(priced.is_none() && line_contiguous(d));
            }
            if !puts.iter().any(|d| d.bcast.is_some()) {
                continue;
            }
            gathers += 1;
            let mut program = exe.program.clone();
            plain_puts(program.body_mut());
            let plain = plan(program, &cfg).expect("tagging adds no buffer");
            let (g, p) = (cycles(&cfg, exe), cycles(&cfg, &plain));
            assert!(g <= p, "{} at {}: gathered {g} > plain {p}", op.name(), cand.describe);
            if let Err(msg) = verify_message(&cand.exe, &cfg) {
                panic!("{} at {}: {msg}", op.name(), cand.describe);
            }
            if gathers % stride == 0 {
                let same = output(&cfg, op.as_ref(), exe) == output(&cfg, op.as_ref(), &plain);
                assert!(same, "{} at {}: outputs differ", op.name(), cand.describe);
                compared += 1;
            }
        }
        gathering += gathers;
        // Anti-vacuity: every operator whose tile loop ends in a GEMM's
        // output put gathers some of them.
        let name = op.name();
        let gemm_family = !name.starts_with("winograd") && !name.starts_with("implicit");
        assert!(!gemm_family || gathers > 0, "{name}: no candidate gathers a put");
    }
    // Anti-vacuity: outputs were compared, and the price test refused some
    // line-contiguous put. The largest such put of `every_op()` has
    // 128-element blocks and stays plain; `coalesce::tests` refuses a
    // 256-element one.
    assert!(compared > 0 && refused > 0, "{gathering} gathering, {refused} refused");
}
