//! Static legality checking of lowered schedules (the schedule verifier).
//!
//! The DMA-wall passes (double buffering, get-batch fusion, residency,
//! broadcast tiling) are exactly the transformations that miscompile
//! *silently*: a ping/pong slot hazard or a mis-fused chain produces wrong
//! tensors while the cost model happily reports a speedup. This module
//! walks a planned [`Executable`] — a concrete dry run that mirrors the
//! interpreter's dynamic order (loops unrolled over their known extents,
//! conditions evaluated at mesh origin, no data, no machine) — and rejects
//! hazard classes before any execution:
//!
//! * **reply discipline** — a `DmaWait` consuming more completions than are
//!   outstanding (reply underflow), and transfers still un-waited when the
//!   program ends (data may not have landed / a put may not have drained);
//! * **fused-chain invariants** — a `fused` get must ride the engine batch
//!   opened by the *immediately preceding* DMA on the same reply word (that
//!   is what makes "startup waived exactly once per run" sound); a `fused`
//!   transform must directly follow a transform;
//! * **transform chains** — the output of a [`Link::Feeds`] producer is
//!   never materialised: no DMA and no unfused transform may read it, no
//!   put may write it (its readers would never see the write), a chain's
//!   last link must read one, and every producer must have as many readers
//!   as it is marked with;
//! * **ping/pong hazards** — reading an SPM buffer whose fill is still in
//!   flight (use-before-reply: the classic swapped-parity bug), overwriting
//!   a buffer an un-waited put is still sourcing from (residency lifetime
//!   violation), and double-filling a buffer already being filled;
//! * **slot soundness** — `SpmSlot::Double` halves must be distinct buffers
//!   (aliasing), every transfer must fit its destination buffer *and* the
//!   scratch pad under both parities, and all buffer / reply references must
//!   be declared.
//!
//! The walk costs about as much as one cost-only interpretation, so it runs
//! on the winner-validation path (see `swatop::ops::validate_candidate`),
//! not per enumerated candidate.

use std::collections::VecDeque;
use std::fmt;

use sw26010::{DmaDirection, MachineConfig};
use swatop_ir::{Env, Link, MatDesc, MemBufId, SpmBufId, SpmSlot, Stmt};

use crate::codegen::{Executable, Planned};

/// Cap on collected violations: a broken steady-state loop would otherwise
/// report the same hazard once per iteration.
const MAX_VIOLATIONS: usize = 16;

/// One legality violation found by the static checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (kebab-case; used by tests and telemetry).
    pub rule: &'static str,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Statically verify a planned executable against `cfg`. Returns all
/// violations found (capped at [`MAX_VIOLATIONS`]), or `Ok(())` for a
/// schedule with none.
pub fn verify_executable(exe: &Executable, cfg: &MachineConfig) -> Result<(), Vec<Violation>> {
    let exe: &Planned = exe;
    let mut w = Walker {
        exe,
        capacity: cfg.spm_elems(),
        outstanding: vec![VecDeque::new(); exe.program.n_replies],
        filling: vec![0; exe.program.spm_bufs.len()],
        draining: vec![0; exe.program.spm_bufs.len()],
        last: Last::Other,
        unmaterialised: Vec::new(),
        violations: Vec::new(),
    };
    let mut env = Env::new(exe.program.n_vars());
    w.walk(&exe.program.body, &mut env);
    for held in std::mem::take(&mut w.unmaterialised) {
        w.orphan(held);
    }
    for (r, q) in w.outstanding.iter().enumerate() {
        if !q.is_empty() {
            let n = q.len();
            w.violations.push(Violation {
                rule: "unwaited-dma",
                detail: format!(
                    "program ends with {n} un-waited transfer(s) on reply {r}"
                ),
            });
        }
    }
    if w.violations.is_empty() {
        Ok(())
    } else {
        w.violations.truncate(MAX_VIOLATIONS);
        Err(w.violations)
    }
}

/// Convenience wrapper flattening the violation list into one message —
/// the form quarantine reasons are reported in.
pub fn verify_message(exe: &Executable, cfg: &MachineConfig) -> Result<(), String> {
    verify_executable(exe, cfg).map_err(|vs| {
        let msgs: Vec<String> = vs.iter().map(Violation::to_string).collect();
        msgs.join("; ")
    })
}

/// What the previous dynamically executed node was, for fusion legality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Last {
    Dma { reply: usize },
    Transform,
    Other,
}

/// One un-waited transfer: which SPM buffer it is filling (get) or
/// draining (put).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    buf: SpmBufId,
    fills: bool,
}

struct Walker<'a> {
    exe: &'a Planned,
    capacity: usize,
    /// Per-reply FIFO of un-waited transfers, in issue order.
    outstanding: Vec<VecDeque<InFlight>>,
    /// Per SPM buffer: pending gets writing into it.
    filling: Vec<u32>,
    /// Per SPM buffer: pending puts reading out of it.
    draining: Vec<u32>,
    last: Last,
    /// Outputs of `Feeds` producers, never materialised, with the number of
    /// readers still to come.
    unmaterialised: Vec<(MemBufId, u32)>,
    violations: Vec<Violation>,
}

impl Walker<'_> {
    fn viol(&mut self, rule: &'static str, detail: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { rule, detail });
        }
    }

    fn done(&self) -> bool {
        self.violations.len() >= MAX_VIOLATIONS
    }

    /// Resolve a slot to a concrete buffer under `env` (parity of the
    /// selector for `Double`), checking slot soundness once per encounter.
    fn resolve(&mut self, slot: &SpmSlot, env: &Env, what: &str) -> Option<SpmBufId> {
        if let SpmSlot::Double { even, odd, .. } = slot {
            if even == odd {
                self.viol(
                    "slot-aliasing",
                    format!("{what}: double-buffer halves alias (both are spm buf {})", even.0),
                );
            }
        }
        let id = match slot {
            SpmSlot::Single(b) => *b,
            SpmSlot::Double { even, odd, sel } => {
                if sel.eval(env, 0, 0).rem_euclid(2) == 0 {
                    *even
                } else {
                    *odd
                }
            }
        };
        if id.0 >= self.exe.program.spm_bufs.len() {
            self.viol(
                "dangling-spm-buf",
                format!(
                    "{what}: references undeclared SPM buffer {} ({} declared)",
                    id.0,
                    self.exe.program.spm_bufs.len()
                ),
            );
            return None;
        }
        Some(id)
    }

    /// Hazard check for a GEMM operand: reads must not target a buffer
    /// whose fill is still in flight; writes additionally must not target a
    /// buffer an un-waited put is still draining.
    fn operand(&mut self, m: &MatDesc, env: &Env, name: &str, writes: bool) {
        let Some(id) = self.resolve(&m.slot, env, &format!("gemm operand {name}")) else {
            return;
        };
        if self.filling[id.0] > 0 {
            self.viol(
                "use-before-reply",
                format!(
                    "gemm operand {name} reads spm buf {} ('{}') while its fill is in flight",
                    id.0, self.exe.program.spm_bufs[id.0].name
                ),
            );
        }
        if writes && self.draining[id.0] > 0 {
            self.viol(
                "residency-violation",
                format!(
                    "gemm operand {name} overwrites spm buf {} ('{}') while an un-waited put \
                     is draining it",
                    id.0, self.exe.program.spm_bufs[id.0].name
                ),
            );
        }
    }

    /// A producer's output leaves the chain's reach (overwritten, or the
    /// program ends): every reader it is marked with must have read it.
    fn orphan(&mut self, (buf, left): (MemBufId, u32)) {
        if left > 0 {
            let name = &self.exe.program.mem_bufs[buf.0].name;
            let detail =
                format!("{left} of the readers marked on the producer of '{name}' never read it");
            self.viol("orphan-producer", detail);
        }
    }

    /// Transform-chain legality: what `t` reads, and what it leaves
    /// unmaterialised.
    fn chain(&mut self, t: &swatop_ir::TransformOp) {
        let (src, dst) = (t.kind.src(), t.kind.dst());
        let name = |b: MemBufId| self.exe.program.mem_bufs[b.0].name.clone();
        match self.unmaterialised.iter().position(|&(b, _)| b == src) {
            Some(at) if t.link != Link::Alone && self.unmaterialised[at].1 > 0 => {
                self.unmaterialised[at].1 -= 1;
            }
            Some(_) => self.viol(
                "reads-unmaterialised",
                format!("transform reads '{}', a fused chain's intermediate", name(src)),
            ),
            None if matches!(t.link, Link::Ends { .. }) => self.viol(
                "broken-transform-chain",
                format!("the last link of a chain reads '{}', which nothing feeds", name(src)),
            ),
            None => {}
        }
        if let Some(at) = self.unmaterialised.iter().position(|&(b, _)| b == dst) {
            let held = self.unmaterialised.swap_remove(at);
            self.orphan(held);
        }
        if let Link::Feeds { readers } = t.link {
            self.unmaterialised.push((dst, readers));
        }
    }

    fn walk(&mut self, s: &Stmt, env: &mut Env) {
        if self.done() {
            return;
        }
        match s {
            Stmt::Nop => {}
            Stmt::Seq(ss) => ss.iter().for_each(|x| self.walk(x, env)),
            Stmt::For { var, extent, body } => {
                for i in 0..*extent {
                    if self.done() {
                        return;
                    }
                    env.set(*var, i as i64);
                    self.walk(body, env);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                if cond.eval(env, 0, 0) {
                    self.walk(then_, env);
                } else if let Some(e) = else_ {
                    self.walk(e, env);
                }
            }
            Stmt::DmaCg(_) => {
                self.viol(
                    "unlowered-dma",
                    "DMA_CG node survived lowering: run DMA inference first".into(),
                );
                self.last = Last::Other;
            }
            Stmt::DmaCpe(d) => {
                if d.fused && self.last != (Last::Dma { reply: d.reply.0 }) {
                    self.viol(
                        "broken-fused-chain",
                        format!(
                            "fused DMA on reply {} does not directly follow a DMA on the same \
                             reply (startup would be waived without an open batch)",
                            d.reply.0
                        ),
                    );
                }
                if d.reply.0 >= self.exe.program.n_replies {
                    self.viol(
                        "dangling-reply",
                        format!(
                            "DMA references undeclared reply {} ({} declared)",
                            d.reply.0, self.exe.program.n_replies
                        ),
                    );
                    self.last = Last::Other;
                    return;
                }
                // Footprint soundness under *both* parities: the transfer
                // must fit each half it can resolve to, and the half must
                // fit the scratch pad.
                for b in d.spm.bufs() {
                    if b.0 >= self.exe.program.spm_bufs.len() {
                        continue; // reported by resolve below
                    }
                    let decl = &self.exe.program.spm_bufs[b.0];
                    if d.spm_elems() > decl.len {
                        self.viol(
                            "slot-overflow",
                            format!(
                                "transfer of {} elems overflows spm buf {} ('{}', {} elems) — \
                                 would corrupt the adjacent allocation",
                                d.spm_elems(),
                                b.0,
                                decl.name,
                                decl.len
                            ),
                        );
                    }
                    let off = self.exe.try_spm_offset(b).unwrap_or(0);
                    if off + d.spm_elems() > self.capacity {
                        self.viol(
                            "spm-capacity",
                            format!(
                                "transfer into spm buf {} ('{}') reaches {} elems, over the \
                                 {}-elem scratch pad",
                                b.0,
                                decl.name,
                                off + d.spm_elems(),
                                self.capacity
                            ),
                        );
                    }
                }
                let Some(id) = self.resolve(&d.spm, env, "dma") else {
                    self.last = Last::Other;
                    return;
                };
                match d.direction {
                    DmaDirection::MemToSpm => {
                        if self.unmaterialised.iter().any(|&(b, _)| b == d.buf) {
                            let name = &self.exe.program.mem_bufs[d.buf.0].name;
                            self.viol(
                                "reads-unmaterialised",
                                format!("get reads '{name}', a fused chain's intermediate"),
                            );
                        }
                        if self.filling[id.0] > 0 {
                            self.viol(
                                "double-fill",
                                format!(
                                    "get fills spm buf {} ('{}') while a previous fill is \
                                     still in flight",
                                    id.0, self.exe.program.spm_bufs[id.0].name
                                ),
                            );
                        }
                        if self.draining[id.0] > 0 {
                            self.viol(
                                "residency-violation",
                                format!(
                                    "get overwrites spm buf {} ('{}') while an un-waited put \
                                     is draining it",
                                    id.0, self.exe.program.spm_bufs[id.0].name
                                ),
                            );
                        }
                        self.filling[id.0] += 1;
                    }
                    DmaDirection::SpmToMem => {
                        if self.unmaterialised.iter().any(|&(b, _)| b == d.buf) {
                            let name = &self.exe.program.mem_bufs[d.buf.0].name;
                            self.viol(
                                "writes-unmaterialised",
                                format!(
                                    "put writes '{name}', a fused chain's intermediate that its \
                                     readers compute from the chain's source"
                                ),
                            );
                        }
                        if self.filling[id.0] > 0 {
                            self.viol(
                                "use-before-reply",
                                format!(
                                    "put reads spm buf {} ('{}') while its fill is in flight",
                                    id.0, self.exe.program.spm_bufs[id.0].name
                                ),
                            );
                        }
                        self.draining[id.0] += 1;
                    }
                }
                self.outstanding[d.reply.0]
                    .push_back(InFlight { buf: id, fills: d.direction == DmaDirection::MemToSpm });
                self.last = Last::Dma { reply: d.reply.0 };
            }
            Stmt::DmaWait { reply, times } => {
                if reply.0 >= self.exe.program.n_replies {
                    self.viol(
                        "dangling-reply",
                        format!(
                            "wait references undeclared reply {} ({} declared)",
                            reply.0, self.exe.program.n_replies
                        ),
                    );
                } else {
                    let q = &mut self.outstanding[reply.0];
                    if q.len() < *times {
                        let issued = q.len();
                        self.viol(
                            "reply-underflow",
                            format!(
                                "wait for {times} completions on reply {} but only {issued} \
                                 transfer(s) are outstanding",
                                reply.0
                            ),
                        );
                    }
                    for _ in 0..*times {
                        let Some(t) = self.outstanding[reply.0].pop_front() else { break };
                        let side =
                            if t.fills { &mut self.filling } else { &mut self.draining };
                        side[t.buf.0] = side[t.buf.0].saturating_sub(1);
                    }
                }
                self.last = Last::Other;
            }
            Stmt::Gemm(g) => {
                self.operand(&g.a, env, "A", false);
                self.operand(&g.b, env, "B", false);
                self.operand(&g.c, env, "C", true);
                self.last = Last::Other;
            }
            Stmt::Transform(t) => {
                self.chain(t);
                if t.link.feeds() {
                    // Runs nothing where it stands.
                    return;
                }
                if t.fused && self.last != Last::Transform {
                    self.viol(
                        "broken-fused-chain",
                        "fused transform does not directly follow a transform (startup would \
                         be waived without an open pipeline)"
                            .into(),
                    );
                }
                self.last = Last::Transform;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::DmaDirection::*;
    use swatop_ir::{
        AffineExpr, Cond, DmaCpe, GemmOp, MatDesc, MemRole, Program, ReplyId, TransformKind,
        TransformOp,
    };
    use swtensor::MatLayout;

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    /// A minimal program: one mem buffer, `n` SPM buffers of 64 elems.
    fn base_program(n_spm: usize) -> Program {
        let mut p = Program::new("t");
        p.mem_buf("m", 1 << 16, MemRole::Input);
        for i in 0..n_spm {
            p.spm_buf(format!("s{i}"), 64);
        }
        p
    }

    fn get(buf: usize, spm: SpmSlot, reply: usize, fused: bool) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: swatop_ir::MemBufId(buf),
            offset: AffineExpr::zero(),
            block: 64,
            stride: 64,
            n_blocks: 1,
            direction: MemToSpm,
            spm,
            reply: ReplyId(reply),
            bcast: None,
            fused,
        })
    }

    fn put(buf: usize, spm: SpmSlot, reply: usize) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: swatop_ir::MemBufId(buf),
            offset: AffineExpr::zero(),
            block: 64,
            stride: 64,
            n_blocks: 1,
            direction: SpmToMem,
            spm,
            reply: ReplyId(reply),
            bcast: None,
            fused: false,
        })
    }

    fn wait(reply: usize, times: usize) -> Stmt {
        Stmt::DmaWait { reply: ReplyId(reply), times }
    }

    fn gemm(a: usize, b: usize, c: usize) -> Stmt {
        let d = |i: usize| MatDesc::new(SpmSlot::single(SpmBufId(i)), MatLayout::RowMajor, 8);
        Stmt::gemm(GemmOp {
            m: 8,
            n: 8,
            k: 8,
            alpha: 1.0,
            beta: 1.0,
            a: d(a),
            b: d(b),
            c: d(c),
            vd: swkernels::VecDim::M,
            k_step: None,
        })
    }

    fn check(p: Program) -> Result<(), Vec<Violation>> {
        let exe = crate::codegen::plan(p, &cfg()).unwrap();
        verify_executable(&exe, &cfg())
    }

    fn rules(r: Result<(), Vec<Violation>>) -> Vec<&'static str> {
        r.unwrap_err().iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_get_compute_put_passes() {
        let mut p = base_program(3);
        p.fresh_reply();
        p.set_body(Stmt::seq(vec![
            get(0, SpmSlot::single(SpmBufId(0)), 0, false),
            get(0, SpmSlot::single(SpmBufId(1)), 0, true),
            wait(0, 2),
            gemm(0, 1, 2),
            put(0, SpmSlot::single(SpmBufId(2)), 0),
            wait(0, 1),
        ]));
        assert_eq!(check(p), Ok(()));
    }

    #[test]
    fn unwaited_dma_and_underflow_are_flagged() {
        let mut p = base_program(1);
        p.fresh_reply();
        p.set_body(get(0, SpmSlot::single(SpmBufId(0)), 0, false));
        assert!(rules(check(p)).contains(&"unwaited-dma"));

        let mut p = base_program(1);
        p.fresh_reply();
        p.set_body(Stmt::seq(vec![get(0, SpmSlot::single(SpmBufId(0)), 0, false), wait(0, 2)]));
        assert!(rules(check(p)).contains(&"reply-underflow"));
    }

    #[test]
    fn fused_chain_must_follow_same_reply_dma() {
        // Fused get after a wait: the engine batch is closed.
        let mut p = base_program(2);
        p.fresh_reply();
        p.fresh_reply();
        p.set_body(Stmt::seq(vec![
            get(0, SpmSlot::single(SpmBufId(0)), 0, false),
            wait(0, 1),
            get(0, SpmSlot::single(SpmBufId(1)), 0, true),
            wait(0, 1),
        ]));
        assert!(rules(check(p)).contains(&"broken-fused-chain"));

        // Fused get chained across *different* reply words.
        let mut p = base_program(2);
        p.fresh_reply();
        p.fresh_reply();
        p.set_body(Stmt::seq(vec![
            get(0, SpmSlot::single(SpmBufId(0)), 0, false),
            get(0, SpmSlot::single(SpmBufId(1)), 1, true),
            wait(0, 1),
            wait(1, 1),
        ]));
        assert!(rules(check(p)).contains(&"broken-fused-chain"));
    }

    #[test]
    fn use_before_reply_is_flagged() {
        // Compute on a tile whose fill has not been waited.
        let mut p = base_program(3);
        p.fresh_reply();
        p.set_body(Stmt::seq(vec![
            get(0, SpmSlot::single(SpmBufId(0)), 0, false),
            gemm(0, 1, 2),
            wait(0, 1),
        ]));
        assert!(rules(check(p)).contains(&"use-before-reply"));
    }

    #[test]
    fn residency_violation_is_flagged() {
        // Refill a buffer an un-waited put is still draining.
        let mut p = base_program(1);
        p.fresh_reply();
        p.set_body(Stmt::seq(vec![
            put(0, SpmSlot::single(SpmBufId(0)), 0),
            get(0, SpmSlot::single(SpmBufId(0)), 0, false),
            wait(0, 2),
        ]));
        assert!(rules(check(p)).contains(&"residency-violation"));
    }

    #[test]
    fn aliased_double_slot_is_flagged() {
        let mut p = base_program(1);
        p.fresh_reply();
        let slot = SpmSlot::Double {
            even: SpmBufId(0),
            odd: SpmBufId(0),
            sel: AffineExpr::zero(),
        };
        p.set_body(Stmt::seq(vec![get(0, slot, 0, false), wait(0, 1)]));
        assert!(rules(check(p)).contains(&"slot-aliasing"));
    }

    #[test]
    fn slot_overflow_is_flagged() {
        // 128-elem transfer into a 64-elem buffer tramples its neighbour.
        let mut p = base_program(2);
        p.fresh_reply();
        let mut g = get(0, SpmSlot::single(SpmBufId(0)), 0, false);
        if let Stmt::DmaCpe(d) = &mut g {
            d.block = 128;
            d.stride = 128;
        }
        p.set_body(Stmt::seq(vec![g, wait(0, 1)]));
        assert!(rules(check(p)).contains(&"slot-overflow"));
    }

    #[test]
    fn swapped_parity_in_double_buffer_is_caught() {
        // The prefetch idiom with the compute parity inverted: iteration i
        // computes on the tile being prefetched instead of the landed one.
        let mut p = base_program(4);
        let v = p.fresh_var("i");
        p.fresh_reply();
        let fill = |sel: AffineExpr| SpmSlot::Double {
            even: SpmBufId(0),
            odd: SpmBufId(1),
            sel,
        };
        let steady = AffineExpr::loop_var(v);
        let next = AffineExpr::loop_var(v).add_const(1);
        let n = 4usize;
        let prologue = get(0, fill(AffineExpr::zero()), 0, false);
        // Correct body: wait for the landed tile, prefetch next, compute on
        // the landed parity.
        let body_ok = Stmt::seq(vec![
            wait(0, 1),
            Stmt::if_(
                Cond::lt_const(next.clone(), n as i64),
                get(0, fill(next.clone()), 0, false),
            ),
            Stmt::gemm(GemmOp {
                m: 8,
                n: 8,
                k: 8,
                alpha: 1.0,
                beta: 1.0,
                a: MatDesc::new(fill(steady.clone()), MatLayout::RowMajor, 8),
                b: MatDesc::new(SpmSlot::single(SpmBufId(2)), MatLayout::RowMajor, 8),
                c: MatDesc::new(SpmSlot::single(SpmBufId(3)), MatLayout::RowMajor, 8),
                vd: swkernels::VecDim::M,
                k_step: None,
            }),
        ]);
        let mut ok = p.clone();
        ok.set_body(Stmt::seq(vec![prologue.clone(), Stmt::for_(v, n, body_ok)]));
        assert_eq!(check(ok), Ok(()));

        // Swapped parity: compute reads sel+1 — the half still in flight.
        let body_bad = Stmt::seq(vec![
            wait(0, 1),
            Stmt::if_(
                Cond::lt_const(next.clone(), n as i64),
                get(0, fill(next.clone()), 0, false),
            ),
            Stmt::gemm(GemmOp {
                m: 8,
                n: 8,
                k: 8,
                alpha: 1.0,
                beta: 1.0,
                a: MatDesc::new(fill(next), MatLayout::RowMajor, 8),
                b: MatDesc::new(SpmSlot::single(SpmBufId(2)), MatLayout::RowMajor, 8),
                c: MatDesc::new(SpmSlot::single(SpmBufId(3)), MatLayout::RowMajor, 8),
                vd: swkernels::VecDim::M,
                k_step: None,
            }),
        ]);
        let mut bad = p;
        bad.set_body(Stmt::seq(vec![prologue, Stmt::for_(v, 4, body_bad)]));
        assert!(rules(check(bad)).contains(&"use-before-reply"));
    }

    /// `m` packed into a scratch buffer with the given link, then the
    /// scratch buffer packed on into another with the other link.
    fn chain(producer: Link, reader: Link, between: Vec<Stmt>) -> Program {
        let mut p = base_program(1);
        let m = swatop_ir::MemBufId(0);
        let (mid, out) = (p.mem_buf("mid", 64, MemRole::Temp), p.mem_buf("out", 64, MemRole::Output));
        p.n_replies = 1;
        let pack = |src, dst, link| {
            let kind = TransformKind::PackTensor { src, dst, src_dims: vec![64], perm: vec![0] };
            Stmt::Transform(TransformOp { link, ..TransformOp::new(kind) })
        };
        let mut body = vec![pack(m, mid, producer)];
        body.extend(between);
        body.push(pack(mid, out, reader));
        p.set_body(Stmt::seq(body));
        p
    }

    #[test]
    fn an_unmaterialised_intermediate_is_read_by_its_chain_alone() {
        let (feeds, ends) = (Link::Feeds { readers: 1 }, Link::Ends { reads: 64, compute: 0 });
        assert_eq!(check(chain(feeds, ends, vec![])), Ok(()));
        // A get of the intermediate reads memory nothing wrote.
        let read = vec![get(1, SpmSlot::single(SpmBufId(0)), 0, false), wait(0, 1)];
        assert_eq!(rules(check(chain(feeds, ends, read))), vec!["reads-unmaterialised"]);
        // A put into it lands where its readers never look.
        let write = vec![put(1, SpmSlot::single(SpmBufId(0)), 0), wait(0, 1)];
        assert_eq!(rules(check(chain(feeds, ends, write))), vec!["writes-unmaterialised"]);
        // So does an unfused transform.
        assert_eq!(
            rules(check(chain(feeds, Link::Alone, vec![]))),
            vec!["reads-unmaterialised", "orphan-producer"]
        );
        // A last link with no producer before it.
        assert_eq!(rules(check(chain(Link::Alone, ends, vec![]))), vec!["broken-transform-chain"]);
    }

    #[test]
    fn a_producer_no_transform_consumes_is_rejected() {
        let two = Link::Feeds { readers: 2 };
        let ends = Link::Ends { reads: 64, compute: 0 };
        assert_eq!(rules(check(chain(two, ends, vec![]))), vec!["orphan-producer"]);
        let mut p = base_program(1);
        let mid = p.mem_buf("mid", 64, MemRole::Temp);
        let kind = TransformKind::PackTensor {
            src: swatop_ir::MemBufId(0), dst: mid, src_dims: vec![64], perm: vec![0],
        };
        let link = Link::Feeds { readers: 1 };
        p.set_body(Stmt::Transform(TransformOp { link, ..TransformOp::new(kind) }));
        assert_eq!(rules(check(p)), vec!["orphan-producer"]);
    }

    #[test]
    fn violations_are_capped() {
        // A loop spamming the same hazard must not produce one violation
        // per iteration.
        let mut p = base_program(1);
        let v = p.fresh_var("i");
        p.fresh_reply();
        p.set_body(Stmt::for_(v, 1000, wait(0, 1)));
        let vs = check(p).unwrap_err();
        assert!(vs.len() <= MAX_VIOLATIONS);
    }
}
