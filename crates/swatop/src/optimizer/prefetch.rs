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
    if twin_elems(&program).is_none() {
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

/// The SPM elements [`apply_double_buffering`] would add to `program` — one
/// twin per fetched buffer, program-wide — or `None` where no nest matches
/// and the rewrite hands the program back. Read-only: the scheduler asks it
/// whether the double-buffered form fits the scratch pad without making it.
pub fn twin_elems(program: &Program) -> Option<usize> {
    let mut fetched: Vec<SpmBufId> = Vec::new();
    fetched_buffers(&program.body, &mut fetched)
        .then(|| fetched.iter().map(|b| program.spm_bufs[b.0].len).sum())
}

/// [`rewrite`] without the writing: collect, in the order `rewrite` would
/// make their twins, the buffers the matching nests under `stmt` fetch into.
/// Returns whether any nest matched.
fn fetched_buffers(stmt: &Stmt, fetched: &mut Vec<SpmBufId>) -> bool {
    if let Some((gets, rest)) = steady_state_gets(stmt) {
        for s in rest {
            fetched_buffers(s, fetched);
        }
        for g in gets {
            if let Stmt::DmaCpe(DmaCpe { spm: SpmSlot::Single(b), .. }) = g {
                if !fetched.contains(b) {
                    fetched.push(*b);
                }
            }
        }
        return true;
    }
    match stmt {
        Stmt::Seq(ss) => ss.iter().fold(false, |any, s| fetched_buffers(s, fetched) | any),
        Stmt::For { body, .. } => fetched_buffers(body, fetched),
        Stmt::If { then_, else_, .. } => {
            fetched_buffers(then_, fetched)
                | else_.as_ref().is_some_and(|e| fetched_buffers(e, fetched))
        }
        _ => false,
    }
}

/// Transform every matching nest of the subtree in place; nodes outside a
/// matching nest are not touched.
fn rewrite(stmt: &mut Stmt, program: &mut Program, twins: &mut Vec<(SpmBufId, SpmBufId)>) {
    // Try to transform the perfect nest rooted here.
    if let Some(n_gets) = steady_state_gets(stmt).map(|(gets, _)| gets.len()) {
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
    let strides = loops.iter().rev().scan(1i64, |scale, &(var, extent)| {
        let term = (swatop_ir::AVar::Loop(var), *scale);
        *scale *= extent as i64;
        Some(term)
    });
    AffineExpr::from_terms(strides, 0)
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
/// Returns that run and the statements after the wait.
fn steady_state_gets(stmt: &Stmt) -> Option<(&[Stmt], &[Stmt])> {
    let mut iterations = 1usize;
    let mut cur = stmt;
    while let Stmt::For { extent, body, .. } = cur {
        iterations *= extent;
        cur = body;
    }
    // A single-iteration nest has nothing to pipeline: the prologue would
    // be the whole loop.
    if !matches!(stmt, Stmt::For { .. }) || iterations <= 1 {
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
    let n_gets = items.iter().map_while(single_get).count();
    if n_gets == 0 {
        return None;
    }
    let gets = || items[..n_gets].iter().filter_map(single_get);
    // The wait must match the gets' shared reply word.
    let Some(&Stmt::DmaWait { reply, times }) = items.get(n_gets) else {
        return None;
    };
    if times != n_gets || gets().any(|g| g.reply != reply) {
        return None;
    }
    // At least one get must vary with the nest (else hoisting applies).
    let varies = |g: &DmaCpe| {
        let mut cur = stmt;
        while let Stmt::For { var, body, .. } = cur {
            if g.offset.depends_on(*var) {
                return true;
            }
            cur = body;
        }
        false
    };
    if !gets().any(varies) {
        return None;
    }
    // The rest must not issue on the same reply word (FIFO pairing).
    let rest = &items[n_gets + 1..];
    let mut reuses_reply = false;
    for s in rest {
        s.visit(&mut |s| {
            if let Stmt::DmaCpe(d) = s {
                if d.reply == reply {
                    reuses_reply = true;
                }
            }
        });
    }
    (!reuses_reply).then_some((&items[..n_gets], rest))
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
    let first: Vec<(VarId, i64)> = loops.iter().map(|&(v, _)| (v, 0)).collect();
    for (g, b) in &gets {
        let offset = g.offset.subst_consts(&first);
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

    /// A get of `len` elements into `spm`, its address moving with `var`.
    fn get_of(
        src: swatop_ir::MemBufId,
        spm: SpmSlot,
        reply: swatop_ir::ReplyId,
        var: Option<VarId>,
        len: usize,
    ) -> Stmt {
        let offset = var.map_or(AffineExpr::zero(), |v| AffineExpr::loop_var(v).scale(len as i64));
        Stmt::DmaCpe(DmaCpe {
            buf: src,
            offset,
            block: len,
            stride: len,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm,
            reply,
            bcast: None,
            fused: false,
        })
    }

    fn spm_total(p: &Program) -> usize {
        p.spm_bufs.iter().map(|b| b.len).sum()
    }

    /// What the rewrite itself adds, for comparison.
    fn added_by_rewrite(p: &Program) -> usize {
        spm_total(&apply_double_buffering(p.clone())) - spm_total(p)
    }

    #[test]
    fn twin_elems_counts_each_fetched_buffer_once() {
        // Two nests in sequence fetch into `a`; the second also into `b`,
        // and an inner nest in its rest into `c`. `d` is never fetched.
        let mut p = Program::new("twins");
        let (i, j, k) = (p.fresh_var("i"), p.fresh_var("j"), p.fresh_var("k"));
        let src = p.mem_buf("src", 1 << 20, MemRole::Input);
        let (a, b, c) = (p.spm_buf("a", 64), p.spm_buf("b", 48), p.spm_buf("c", 20));
        p.spm_buf("d", 1000);
        let (r0, r1, r2) = (p.fresh_reply(), p.fresh_reply(), p.fresh_reply());
        let single = SpmSlot::Single;
        let first = Stmt::for_(
            i,
            4,
            Stmt::seq(vec![
                get_of(src, single(a), r0, Some(i), 64),
                Stmt::DmaWait { reply: r0, times: 1 },
            ]),
        );
        let inner = Stmt::for_(
            k,
            3,
            Stmt::seq(vec![
                get_of(src, single(c), r2, Some(k), 20),
                Stmt::DmaWait { reply: r2, times: 1 },
            ]),
        );
        let second = Stmt::for_(
            j,
            2,
            Stmt::seq(vec![
                get_of(src, single(a), r1, Some(j), 64),
                get_of(src, single(b), r1, None, 48),
                Stmt::DmaWait { reply: r1, times: 2 },
                inner.clone(),
            ]),
        );
        p.set_body(Stmt::seq(vec![first.clone(), second]));
        assert_eq!(twin_elems(&p), Some(64 + 48 + 20));
        assert_eq!(added_by_rewrite(&p), 64 + 48 + 20);
        // Without the outer match the inner nest is found by descent.
        p.set_body(Stmt::seq(vec![first, Stmt::if_(Cond::lt_const(AffineExpr::zero(), 1), inner)]));
        assert_eq!(twin_elems(&p), Some(64 + 20));
        assert_eq!(added_by_rewrite(&p), 64 + 20);
    }

    #[test]
    fn twin_elems_is_none_wherever_the_pattern_is_rejected() {
        let mut p = Program::new("rejects");
        let v = p.fresh_var("i");
        let src = p.mem_buf("src", 1 << 20, MemRole::Input);
        let (a, a2) = (p.spm_buf("a", 64), p.spm_buf("a2", 64));
        let (r, other) = (p.fresh_reply(), p.fresh_reply());
        let get = || get_of(src, SpmSlot::Single(a), r, Some(v), 64);
        let wait = |reply, times| Stmt::DmaWait { reply, times };
        let in_loop = |extent, items: Vec<Stmt>| Stmt::for_(v, extent, Stmt::seq(items));
        let double = SpmSlot::Double { even: a, odd: a2, sel: AffineExpr::loop_var(v) };
        let rejected = [
            ("no loop", Stmt::seq(vec![get(), wait(r, 1)])),
            ("one iteration", in_loop(1, vec![get(), wait(r, 1)])),
            ("no leading get", in_loop(4, vec![wait(r, 0), get(), wait(r, 1)])),
            ("already double", in_loop(4, vec![get_of(src, double, r, Some(v), 64), wait(r, 1)])),
            ("no wait", in_loop(4, vec![get()])),
            ("wait count", in_loop(4, vec![get(), wait(r, 2)])),
            ("wait reply", in_loop(4, vec![get(), wait(other, 1)])),
            (
                "invariant gets",
                in_loop(4, vec![get_of(src, SpmSlot::Single(a), r, None, 64), wait(r, 1)]),
            ),
            ("reply reused", in_loop(4, vec![get(), wait(r, 1), get(), wait(r, 1)])),
        ];
        for (why, body) in rejected {
            p.set_body(body);
            assert_eq!(twin_elems(&p), None, "{why}");
            let before = p.part_addrs();
            assert_eq!(apply_double_buffering(p.clone()).part_addrs(), before, "{why}");
        }
        p.set_body(in_loop(4, vec![get(), wait(r, 1)]));
        assert_eq!(twin_elems(&p), Some(64), "the accepted form of the same nest");
    }

    #[test]
    fn twin_elems_answers_the_capacity_question_of_the_rewrite() {
        use crate::codegen::fits;
        let cfg = sw26010::MachineConfig::default();
        // Doubled, the layout is the scratch pad to the element, then one
        // element over.
        for (over, fetched) in [(0, 1000), (1, 1000), (0, 4), (1, 4)] {
            let mut p = make_program(&[2, 3]);
            let streamed = p.spm_bufs[0].len;
            let resident = cfg.spm_elems() + over - 2 * (streamed + fetched) - p.spm_bufs[1].len;
            p.spm_buf("resident", resident);
            let v = p.fresh_var("t");
            let src = p.mem_buf("more", 1 << 20, MemRole::Input);
            let (f, r) = (p.spm_buf("f", fetched), p.fresh_reply());
            let tail = Stmt::for_(
                v,
                5,
                Stmt::seq(vec![
                    get_of(src, SpmSlot::Single(f), r, Some(v), fetched),
                    Stmt::DmaWait { reply: r, times: 1 },
                ]),
            );
            let body = p.take_body();
            p.set_body(Stmt::seq(vec![body, tail]));
            assert!(fits(&p, &cfg));
            let twins = twin_elems(&p).unwrap();
            assert_eq!(twins, streamed + fetched);
            let doubled = apply_double_buffering(p.clone());
            assert_eq!(spm_total(&doubled), cfg.spm_elems() + over);
            assert_eq!(fits(&doubled, &cfg), over == 0);
            assert_eq!(crate::codegen::fits_with(&p, twins, &cfg), fits(&doubled, &cfg));
        }
    }
}
