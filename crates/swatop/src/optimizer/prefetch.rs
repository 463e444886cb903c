//! Hiding memory access latency: automatic software prefetching
//! (paper Sec. 4.5.2).
//!
//! The pass finds the steady-state loop nest — a perfect `for` nest whose
//! body starts with a group of `DMA_CPE` *get* nodes and their wait — and
//! rewrites it to double buffering:
//!
//! * every fetched SPM buffer gains a twin; operands select between the two
//!   by the parity of the **linearised iteration index** (an affine
//!   expression over the nest variables);
//! * the gets for iteration `I+1` are issued *before* the wait for
//!   iteration `I`, guarded by the **next-iteration inference** chain: the
//!   nested if-then-else over the enclosing loop variables that the paper
//!   describes — branch `j` fires when loop `j` can advance and all deeper
//!   loops are exhausted, and re-issues the gets with `v_j := v_j + 1`,
//!   `v_l := 0 (l > j)`;
//! * a prologue issues the gets for iteration 0 ahead of the nest.
//!
//! Because the DMA engine completes FIFO and the reply word consumes
//! completions in issue order, the original reply word still pairs each
//! wait with the right transfer.

use sw26010::DmaDirection;
use swatop_ir::transform::build_nest;
use swatop_ir::{AffineExpr, Cond, DmaCpe, Program, SpmBufId, SpmSlot, Stmt, VarId};

/// Apply double buffering to every matching steady-state nest in the
/// program. Where the pattern applies nowhere the program comes back as it
/// went in — the same handle, no part of it copied.
pub fn apply_double_buffering(mut program: Program) -> Program {
    if !has_steady_state_nest(&program.body) {
        return program;
    }
    let mut body = program.take_body();
    // Twin buffers are shared across all transformed nests (they run
    // sequentially), keeping the coalesced SPM region small.
    let mut twins: Vec<(SpmBufId, SpmBufId)> = Vec::new();
    rewrite(&mut body, &mut program, &mut twins);
    program.set_body(body);
    program
}

/// Whether [`rewrite`] would transform anything under `stmt`.
fn has_steady_state_nest(stmt: &Stmt) -> bool {
    if steady_state_gets(stmt).is_some() {
        return true;
    }
    match stmt {
        Stmt::Seq(ss) => ss.iter().any(has_steady_state_nest),
        Stmt::For { body, .. } => has_steady_state_nest(body),
        Stmt::If { then_, else_, .. } => {
            has_steady_state_nest(then_) || else_.as_ref().is_some_and(|e| has_steady_state_nest(e))
        }
        _ => false,
    }
}

/// Transform every matching nest of the subtree in place; nodes outside a
/// matching nest are not touched.
fn rewrite(stmt: &mut Stmt, program: &mut Program, twins: &mut Vec<(SpmBufId, SpmBufId)>) {
    // Try to transform the perfect nest rooted here.
    if let Some(n_gets) = steady_state_gets(stmt) {
        let nest = std::mem::replace(stmt, Stmt::Nop);
        *stmt = transform_nest(nest, n_gets, program, twins);
        return;
    }
    match stmt {
        Stmt::Seq(ss) => ss.iter_mut().for_each(|s| rewrite(s, program, twins)),
        Stmt::For { body, .. } => rewrite(body, program, twins),
        Stmt::If { then_, else_, .. } => {
            rewrite(then_, program, twins);
            if let Some(e) = else_ {
                rewrite(e, program, twins);
            }
        }
        _ => {}
    }
}

/// The linearised iteration index of a nest: `Σ vᵢ · Π_{j>i} Eⱼ`.
pub fn linear_index(loops: &[(VarId, usize)]) -> AffineExpr {
    let mut expr = AffineExpr::zero();
    let mut scale: i64 = 1;
    for &(var, extent) in loops.iter().rev() {
        expr = expr.add_term(swatop_ir::AVar::Loop(var), scale);
        scale *= extent as i64;
    }
    expr
}

/// The next-iteration inference chain: for each loop depth `j` (innermost
/// first), the branch condition "loop j advances" and the substitution
/// applied to the prefetched address expressions.
pub fn next_index_branches(
    loops: &[(VarId, usize)],
) -> Vec<(Cond, Vec<(VarId, AffineExpr)>)> {
    let k = loops.len();
    let mut branches = Vec::with_capacity(k);
    for j in (0..k).rev() {
        let (vj, ej) = loops[j];
        let mut cond = Cond::lt_const(AffineExpr::loop_var(vj).add_const(1), ej as i64);
        for &(vl, el) in &loops[j + 1..] {
            cond = cond.and(Cond::Eq(AffineExpr::loop_var(vl), AffineExpr::konst(el as i64 - 1)));
        }
        let mut subst: Vec<(VarId, AffineExpr)> =
            vec![(vj, AffineExpr::loop_var(vj).add_const(1))];
        for &(vl, _) in &loops[j + 1..] {
            subst.push((vl, AffineExpr::zero()));
        }
        branches.push((cond, subst));
    }
    branches
}

/// Whether the perfect nest rooted at `stmt` is a steady-state nest: its
/// innermost body starts with a run of single-slot gets and their wait.
/// Returns the length of that run.
fn steady_state_gets(stmt: &Stmt) -> Option<usize> {
    let mut nest_vars: Vec<VarId> = Vec::new();
    let mut iterations = 1usize;
    let mut cur = stmt;
    while let Stmt::For { var, extent, body } = cur {
        nest_vars.push(*var);
        iterations *= extent;
        cur = body;
    }
    // A single-iteration nest has nothing to pipeline: the prologue would
    // be the whole loop.
    if nest_vars.is_empty() || iterations <= 1 {
        return None;
    }
    let items: &[Stmt] = match cur {
        Stmt::Seq(ss) => ss,
        other => std::slice::from_ref(other),
    };
    // Leading run of Single-slot gets.
    fn single_get(s: &Stmt) -> Option<&DmaCpe> {
        match s {
            Stmt::DmaCpe(d)
                if d.direction == DmaDirection::MemToSpm
                    && matches!(d.spm, SpmSlot::Single(_)) =>
            {
                Some(d)
            }
            _ => None,
        }
    }
    let gets: Vec<&DmaCpe> = items.iter().map_while(single_get).collect();
    if gets.is_empty() {
        return None;
    }
    // The wait must match the gets' shared reply word.
    let Stmt::DmaWait { reply, times } = items.get(gets.len())? else {
        return None;
    };
    if *times != gets.len() || gets.iter().any(|g| g.reply != *reply) {
        return None;
    }
    // At least one get must vary with the nest (else hoisting applies).
    if !gets.iter().any(|g| nest_vars.iter().any(|v| g.offset.depends_on(*v))) {
        return None;
    }
    // The rest must not issue on the same reply word (FIFO pairing).
    let mut reuses_reply = false;
    for s in &items[gets.len() + 1..] {
        s.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                if d.reply == *reply {
                    reuses_reply = true;
                }
            }
        });
    }
    (!reuses_reply).then_some(gets.len())
}

/// `g` re-issued at another address into another slot.
fn reissue(g: &DmaCpe, offset: AffineExpr, spm: SpmSlot) -> DmaCpe {
    DmaCpe {
        buf: g.buf,
        offset,
        block: g.block,
        stride: g.stride,
        n_blocks: g.n_blocks,
        direction: g.direction,
        spm,
        reply: g.reply,
        bcast: g.bcast,
        fused: g.fused,
    }
}

/// Double-buffer a nest [`steady_state_gets`] accepted with `n_gets`.
fn transform_nest(
    nest: Stmt,
    n_gets: usize,
    program: &mut Program,
    twins: &mut Vec<(SpmBufId, SpmBufId)>,
) -> Stmt {
    let mut loops: Vec<(VarId, usize)> = Vec::new();
    let mut body = nest;
    while let Stmt::For { var, extent, body: inner } = body {
        loops.push((var, extent));
        body = *inner;
    }
    let nest_vars: Vec<VarId> = loops.iter().map(|(v, _)| *v).collect();
    let mut items: Vec<Stmt> = match body {
        Stmt::Seq(ss) => ss,
        other => vec![other],
    };
    let mut rest = items.split_off(n_gets + 1);
    let Some(Stmt::DmaWait { reply, .. }) = items.pop() else {
        unreachable!("steady_state_gets checked the wait")
    };
    let gets: Vec<(DmaCpe, SpmBufId)> = items
        .into_iter()
        .map(|s| match s {
            Stmt::DmaCpe(d) => match d.spm {
                SpmSlot::Single(b) => (d, b),
                SpmSlot::Double { .. } => unreachable!("steady_state_gets checked the slots"),
            },
            _ => unreachable!("steady_state_gets checked the gets"),
        })
        .collect();
    // Inner steady-state nests (e.g. the reduction loops of a convolution
    // tile) are double-buffered on their own, with their own linearised
    // selectors — prefetching is applied at *every* level it matches.
    rest.iter_mut().for_each(|s| rewrite(s, program, twins));

    // Twin buffers (shared program-wide per original buffer).
    let lin = linear_index(&loops);
    let mut twin: Vec<(SpmBufId, SpmBufId)> = Vec::new();
    for &(_, b) in &gets {
        if twin.iter().any(|(orig, _)| *orig == b) {
            continue;
        }
        let tb = match twins.iter().find(|(o, _)| *o == b) {
            Some((_, t)) => *t,
            None => {
                let len = program.spm_bufs[b.0].len;
                let name = format!("{}_dbl", program.spm_bufs[b.0].name);
                let tb = program.spm_buf(name, len);
                twins.push((b, tb));
                tb
            }
        };
        twin.push((b, tb));
    }
    let twin_of = |b: SpmBufId| twin.iter().find(|(o, _)| *o == b).map(|(_, t)| *t);

    let dbl_slot = |b: SpmBufId, sel: AffineExpr| SpmSlot::Double {
        even: b,
        odd: twin_of(b).expect("twin exists"),
        sel,
    };

    // Prologue: gets for iteration 0 (all nest vars = 0) → even buffers.
    let mut out = Vec::with_capacity(gets.len() + 1);
    for (g, b) in &gets {
        let mut offset = g.offset.clone();
        for &v in &nest_vars {
            offset = offset.subst(v, &AffineExpr::zero());
        }
        out.push(Stmt::DmaCpe(reissue(g, offset, dbl_slot(*b, AffineExpr::zero()))));
    }

    // Next-iteration prefetch chain.
    let sel_next = lin.add_const(1);
    let mut chain: Option<Stmt> = None;
    for (cond, subst) in next_index_branches(&loops).into_iter().rev() {
        let mut issue = Vec::with_capacity(gets.len());
        for (g, b) in &gets {
            let mut offset = g.offset.clone();
            for (v, e) in &subst {
                offset = offset.subst(*v, e);
            }
            // Note: the parity selector stays `lin + 1` in terms of the
            // *current* iteration variables — substituting the odometer
            // step into it would double-advance the parity.
            issue.push(Stmt::DmaCpe(reissue(g, offset, dbl_slot(*b, sel_next.clone()))));
        }
        let branch = Stmt::seq(issue);
        chain = Some(match chain {
            None => Stmt::if_(cond, branch),
            Some(tail) => Stmt::if_else(cond, branch, tail),
        });
    }

    // Retarget the steady-state body through the parity selector.
    rest.iter_mut().for_each(|s| retarget(s, &twin, &lin));

    let mut new_body = Vec::with_capacity(rest.len() + 2);
    new_body.extend(chain);
    new_body.push(Stmt::DmaWait { reply, times: gets.len() });
    new_body.extend(rest);

    out.push(build_nest(&loops, Stmt::seq(new_body)));
    Stmt::seq(out)
}

/// Replace `Single(b)` slots by `Double{b, twin, sel}` for mapped buffers.
fn retarget(stmt: &mut Stmt, twin: &[(SpmBufId, SpmBufId)], sel: &AffineExpr) {
    let map_slot = |s: &mut SpmSlot| {
        if let SpmSlot::Single(b) = *s {
            if let Some(&(_, t)) = twin.iter().find(|(o, _)| *o == b) {
                *s = SpmSlot::Double { even: b, odd: t, sel: sel.clone() };
            }
        }
    };
    match stmt {
        Stmt::Seq(ss) => ss.iter_mut().for_each(|s| retarget(s, twin, sel)),
        Stmt::For { body, .. } => retarget(body, twin, sel),
        Stmt::If { then_, else_, .. } => {
            retarget(then_, twin, sel);
            if let Some(e) = else_ {
                retarget(e, twin, sel);
            }
        }
        Stmt::DmaCpe(d) => map_slot(&mut d.spm),
        Stmt::Gemm(g) => {
            map_slot(&mut g.a.slot);
            map_slot(&mut g.b.slot);
            map_slot(&mut g.c.slot);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swatop_ir::{AVar, MemRole};

    fn make_program(extents: &[usize]) -> Program {
        // for v0 in E0 { for v1 in E1 { get A[v…]; wait; gemm-ish put } }
        let mut p = Program::new("pf");
        let vars: Vec<usize> =
            extents.iter().enumerate().map(|(i, _)| p.fresh_var(format!("v{i}"))).collect();
        let src = p.mem_buf("src", 1 << 20, MemRole::Input);
        let dst = p.mem_buf("dst", 1 << 20, MemRole::Output);
        let sa = p.spm_buf("a", 64);
        let sc = p.spm_buf("c", 64);
        let r_get = p.fresh_reply();
        let r_put = p.fresh_reply();
        let mut offset = AffineExpr::zero().add_term(AVar::Rid, 8).add_term(AVar::Cid, 1);
        let mut scale = 64i64;
        for &v in vars.iter().rev() {
            offset = offset.add_term(AVar::Loop(v), scale);
            scale *= 64;
        }
        let get = Stmt::DmaCpe(DmaCpe {
            buf: src,
            offset: offset.clone(),
            block: 64,
            stride: 64,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(sa),
            reply: r_get,
            bcast: None,
            fused: false,
        });
        let put = Stmt::DmaCpe(DmaCpe {
            buf: dst,
            offset,
            block: 64,
            stride: 64,
            n_blocks: 1,
            direction: DmaDirection::SpmToMem,
            spm: SpmSlot::Single(sc),
            reply: r_put,
            bcast: None,
            fused: false,
        });
        let body = Stmt::seq(vec![
            get,
            Stmt::DmaWait { reply: r_get, times: 1 },
            put,
            Stmt::DmaWait { reply: r_put, times: 1 },
        ]);
        let loops: Vec<(usize, usize)> =
            vars.into_iter().zip(extents.iter().copied()).collect();
        p.set_body(build_nest(&loops, body));
        p
    }

    #[test]
    fn linear_index_is_row_major() {
        let lin = linear_index(&[(0, 4), (1, 5)]);
        let mut env = swatop_ir::Env::new(2);
        env.set(0, 2);
        env.set(1, 3);
        assert_eq!(lin.eval(&env, 0, 0), 13);
    }

    #[test]
    fn branch_conditions_are_an_odometer() {
        let loops = [(0usize, 3usize), (1, 4)];
        let branches = next_index_branches(&loops);
        assert_eq!(branches.len(), 2);
        let mut env = swatop_ir::Env::new(2);
        // Middle of inner loop: inner branch fires.
        env.set(0, 1);
        env.set(1, 2);
        assert!(branches[0].0.eval(&env, 0, 0));
        // End of inner loop: outer branch fires instead.
        env.set(1, 3);
        assert!(!branches[0].0.eval(&env, 0, 0));
        assert!(branches[1].0.eval(&env, 0, 0));
        // Very last iteration: no branch fires.
        env.set(0, 2);
        env.set(1, 3);
        assert!(!branches[0].0.eval(&env, 0, 0));
        assert!(!branches[1].0.eval(&env, 0, 0));
    }

    #[test]
    fn transform_produces_double_slots_and_prologue() {
        let p = make_program(&[4]);
        let spm_before = p.spm_bufs.len();
        let out = apply_double_buffering(p);
        assert_eq!(out.spm_bufs.len(), spm_before + 1, "one twin buffer");
        // A prologue DMA before the loop.
        if let Stmt::Seq(ss) = &*out.body {
            assert!(matches!(ss[0], Stmt::DmaCpe(_)), "prologue get");
            assert!(matches!(ss[1], Stmt::For { .. }));
        } else {
            panic!("expected Seq(prologue, loop), got {:?}", out.body);
        }
        // Gets inside the loop are guarded and double-buffered.
        let mut guarded_dma = 0;
        out.body.visit(&mut |s| {
            if let Stmt::If { then_, .. } = s {
                then_.visit(&mut |t| {
                    if let Stmt::DmaCpe(d) = t {
                        if matches!(d.spm, SpmSlot::Double { .. })
                            && d.direction == DmaDirection::MemToSpm
                        {
                            guarded_dma += 1;
                        }
                    }
                });
            }
        });
        assert!(guarded_dma >= 1, "prefetch get must be guarded");
    }

    #[test]
    fn two_level_nest_gets_if_else_chain() {
        let p = make_program(&[3, 4]);
        let out = apply_double_buffering(p);
        // The odometer must contain an If with an else branch.
        let mut has_else = false;
        out.body.visit(&mut |s| {
            if let Stmt::If { else_: Some(_), .. } = s {
                has_else = true;
            }
        });
        assert!(has_else, "expected nested if-then-else next-index chain");
    }

    #[test]
    fn nest_without_gets_is_untouched() {
        let mut p = Program::new("none");
        let v = p.fresh_var("i");
        let r = p.fresh_reply();
        p.set_body(Stmt::for_(v, 4, Stmt::DmaWait { reply: r, times: 0 }));
        let before = p.body.clone();
        let out = apply_double_buffering(p);
        assert_eq!(out.body, before);
    }

    #[test]
    fn invariant_only_gets_are_skipped() {
        // A get that ignores the loop variable should be hoisted, not
        // double-buffered.
        let mut p = Program::new("inv");
        let v = p.fresh_var("i");
        let src = p.mem_buf("src", 1024, MemRole::Input);
        let s = p.spm_buf("s", 16);
        let r = p.fresh_reply();
        let get = Stmt::DmaCpe(DmaCpe {
            buf: src,
            offset: AffineExpr::konst(0),
            block: 16,
            stride: 16,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(s),
            reply: r,
            bcast: None,
            fused: false,
        });
        p.set_body(Stmt::for_(v, 4, Stmt::seq(vec![get, Stmt::DmaWait { reply: r, times: 1 }])));
        let before = p.body.clone();
        let out = apply_double_buffering(p);
        assert_eq!(out.body, before);
    }
}
