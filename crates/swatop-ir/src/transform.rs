//! Structural IR transformations: variable substitution, loop split,
//! loop reorder, loop fusion.
//!
//! These are the paper's *loop transformation* vocabulary (Sec. 4.3.1)
//! expressed as tree rewrites. The operator library usually lowers schedule
//! points parametrically (constructing already-tiled nests), but the
//! rewrites here are genuine and independently tested: `split` introduces
//! the outer/inner pair with a boundary guard when the factor does not
//! divide the extent, `reorder` permutes a perfect nest, and `fuse` merges
//! two adjacent loops over the same extent.

use crate::expr::{AffineExpr, Cond, VarId};
use crate::stmt::{DmaCg, DmaCpe, GemmOp, MatDesc, SpmSlot, Stmt};

/// Substitute loop variable `var` by `by` in every affine expression of the
/// subtree. Nodes are built field by field: each expression is substituted
/// once, never cloned first only to be replaced.
pub fn subst_var(stmt: &Stmt, var: VarId, by: &AffineExpr) -> Stmt {
    let slot = |s: &SpmSlot| match s {
        SpmSlot::Single(b) => SpmSlot::Single(*b),
        SpmSlot::Double { even, odd, sel } => {
            SpmSlot::Double { even: *even, odd: *odd, sel: sel.subst(var, by) }
        }
    };
    let mat = |m: &MatDesc| MatDesc {
        slot: slot(&m.slot),
        layout: m.layout,
        ld: m.ld,
        offset: m.offset,
    };
    match stmt {
        Stmt::Seq(ss) => Stmt::Seq(ss.iter().map(|s| subst_var(s, var, by)).collect()),
        Stmt::For { var: v, extent, body } => {
            debug_assert_ne!(*v, var, "substituting a bound variable");
            Stmt::For { var: *v, extent: *extent, body: Box::new(subst_var(body, var, by)) }
        }
        Stmt::If { cond, then_, else_ } => Stmt::If {
            cond: cond.subst(var, by),
            then_: Box::new(subst_var(then_, var, by)),
            else_: else_.as_ref().map(|e| Box::new(subst_var(e, var, by))),
        },
        Stmt::DmaCg(d) => Stmt::DmaCg(DmaCg {
            buf: d.buf,
            offset: d.offset.subst(var, by),
            rows: d.rows,
            cols: d.cols,
            row_stride: d.row_stride,
            mesh_swap: d.mesh_swap,
            direction: d.direction,
            spm: slot(&d.spm),
            reply: d.reply,
        }),
        Stmt::DmaCpe(d) => Stmt::DmaCpe(DmaCpe {
            buf: d.buf,
            offset: d.offset.subst(var, by),
            block: d.block,
            stride: d.stride,
            n_blocks: d.n_blocks,
            direction: d.direction,
            spm: slot(&d.spm),
            reply: d.reply,
            bcast: d.bcast,
            fused: d.fused,
        }),
        Stmt::Gemm(g) => Stmt::gemm(GemmOp {
            m: g.m,
            n: g.n,
            k: g.k,
            alpha: g.alpha,
            beta: g.beta,
            a: mat(&g.a),
            b: mat(&g.b),
            c: mat(&g.c),
            vd: g.vd,
            k_step: g.k_step.as_ref().map(|e| e.subst(var, by)),
        }),
        other => other.clone(),
    }
}

/// Split a `For` loop by `factor`, producing
/// `for outer in 0..ceil(extent/factor) { for inner in 0..factor { … } }`
/// with the body's `var` replaced by `outer·factor + inner`. When the
/// factor does not divide the extent, the body is guarded by
/// `outer·factor + inner < extent` — the boundary the paper's boundary
/// processing then optimises.
///
/// Panics if `stmt` is not a `For`.
pub fn split(stmt: &Stmt, factor: usize, outer: VarId, inner: VarId) -> Stmt {
    let Stmt::For { var, extent, body } = stmt else {
        panic!("split: not a For loop");
    };
    assert!(factor > 0, "split factor must be positive");
    let combined = AffineExpr::loop_var(outer)
        .scale(factor as i64)
        .add(&AffineExpr::loop_var(inner));
    let new_body = subst_var(body, *var, &combined);
    let guarded = if extent % factor == 0 {
        new_body
    } else {
        Stmt::if_(Cond::lt_const(combined, *extent as i64), new_body)
    };
    Stmt::for_(outer, extent.div_ceil(factor), Stmt::for_(inner, factor, guarded))
}

/// Extract the perfect loop nest at the root of `stmt`: the chain of `For`
/// nodes each of whose body is directly the next `For` (or the innermost
/// body). Returns `(loops, innermost_body)`.
pub fn perfect_nest(stmt: &Stmt) -> (Vec<(VarId, usize)>, Stmt) {
    let mut loops = Vec::new();
    let mut cur = stmt;
    loop {
        match cur {
            Stmt::For { var, extent, body } => {
                loops.push((*var, *extent));
                cur = body;
            }
            other => return (loops, other.clone()),
        }
    }
}

/// Rebuild a perfect nest from loops (outermost first) and a body.
pub fn build_nest(loops: &[(VarId, usize)], body: Stmt) -> Stmt {
    loops
        .iter()
        .rev()
        .fold(body, |acc, &(var, extent)| Stmt::for_(var, extent, acc))
}

/// Reorder the outermost perfect nest of `stmt` according to `perm`:
/// new position `i` holds the old loop `perm[i]`. The nest must be at least
/// `perm.len()` deep; deeper loops stay attached to the body.
pub fn reorder(stmt: &Stmt, perm: &[usize]) -> Stmt {
    let (loops, body) = perfect_nest(stmt);
    assert!(
        perm.len() <= loops.len(),
        "reorder: permutation deeper than nest ({} > {})",
        perm.len(),
        loops.len()
    );
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(p < perm.len() && !seen[p], "reorder: invalid permutation");
        seen[p] = true;
    }
    let tail = build_nest(&loops[perm.len()..], body);
    let permuted: Vec<(VarId, usize)> = perm.iter().map(|&p| loops[p]).collect();
    build_nest(&permuted, tail)
}

/// Fuse two sibling loops of equal extent into one: `for i {A}; for j {B}`
/// becomes `for i {A; B[j := i]}`. This is the reverse of `split`'s effect
/// at the schedule level; swATOP uses it to enlarge GEMM dimensions by
/// merging independent multiplications.
pub fn fuse(a: &Stmt, b: &Stmt) -> Stmt {
    let (Stmt::For { var: va, extent: ea, body: ba }, Stmt::For { var: vb, extent: eb, body: bb }) =
        (a, b)
    else {
        panic!("fuse: both statements must be For loops");
    };
    assert_eq!(ea, eb, "fuse: extents differ ({ea} vs {eb})");
    let bb2 = subst_var(bb, *vb, &AffineExpr::loop_var(*va));
    Stmt::for_(*va, *ea, Stmt::seq(vec![(**ba).clone(), bb2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::{MemBufId, ReplyId, SpmBufId};
    use sw26010::DmaDirection;

    fn dma_at(offset: AffineExpr) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: MemBufId(0),
            offset,
            block: 4,
            stride: 4,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::single(SpmBufId(0)),
            reply: ReplyId(0),
            bcast: None,
            fused: false,
        })
    }

    /// Collect the offsets a nest would enumerate, by brute-force walking.
    fn enumerate_offsets(stmt: &Stmt, n_vars: usize) -> Vec<i64> {
        fn walk(s: &Stmt, env: &mut crate::expr::Env, out: &mut Vec<i64>) {
            match s {
                Stmt::Seq(ss) => ss.iter().for_each(|x| walk(x, env, out)),
                Stmt::For { var, extent, body } => {
                    for i in 0..*extent {
                        env.set(*var, i as i64);
                        walk(body, env, out);
                    }
                }
                Stmt::If { cond, then_, else_ } => {
                    if cond.eval(env, 0, 0) {
                        walk(then_, env, out);
                    } else if let Some(e) = else_ {
                        walk(e, env, out);
                    }
                }
                Stmt::DmaCpe(d) => out.push(d.offset.eval(env, 0, 0)),
                _ => {}
            }
        }
        let mut env = crate::expr::Env::new(n_vars);
        let mut out = Vec::new();
        walk(stmt, &mut env, &mut out);
        out
    }

    #[test]
    fn split_exact_preserves_iteration_space() {
        // for v0 in 0..12 { dma @ 5*v0 } split by 4
        let orig = Stmt::for_(0, 12, dma_at(AffineExpr::loop_var(0).scale(5)));
        let s = split(&orig, 4, 1, 2);
        let orig_offs = enumerate_offsets(&orig, 3);
        let split_offs = enumerate_offsets(&s, 3);
        assert_eq!(orig_offs, split_offs);
        // No boundary guard needed.
        assert_eq!(s.count(|x| matches!(x, Stmt::If { .. })), 0);
    }

    #[test]
    fn split_with_remainder_guards_boundary() {
        let orig = Stmt::for_(0, 10, dma_at(AffineExpr::loop_var(0)));
        let s = split(&orig, 4, 1, 2);
        assert_eq!(s.count(|x| matches!(x, Stmt::If { .. })), 1);
        let offs = enumerate_offsets(&s, 3);
        assert_eq!(offs, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn reorder_permutes_iteration_order() {
        // for i in 0..2 { for j in 0..3 { dma @ 10*i + j } }
        let body = dma_at(AffineExpr::loop_var(0).scale(10).add(&AffineExpr::loop_var(1)));
        let nest = Stmt::for_(0, 2, Stmt::for_(1, 3, body));
        let swapped = reorder(&nest, &[1, 0]);
        let offs = enumerate_offsets(&swapped, 2);
        // j outer now: (j, i) order.
        assert_eq!(offs, vec![0, 10, 1, 11, 2, 12]);
        // Same multiset as original.
        let mut a = enumerate_offsets(&nest, 2);
        let mut b = offs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn fuse_merges_same_extent_loops() {
        let a = Stmt::for_(0, 4, dma_at(AffineExpr::loop_var(0)));
        let b = Stmt::for_(1, 4, dma_at(AffineExpr::loop_var(1).scale(100)));
        let f = fuse(&a, &b);
        let offs = enumerate_offsets(&f, 2);
        assert_eq!(offs, vec![0, 0, 1, 100, 2, 200, 3, 300]);
        assert_eq!(f.count(|x| matches!(x, Stmt::For { .. })), 1);
    }

    #[test]
    fn subst_reaches_double_buffer_selectors() {
        let s = Stmt::DmaCpe(DmaCpe {
            buf: MemBufId(0),
            offset: AffineExpr::loop_var(0),
            block: 1,
            stride: 1,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Double {
                even: SpmBufId(0),
                odd: SpmBufId(1),
                sel: AffineExpr::loop_var(0),
            },
            reply: ReplyId(0),
            bcast: None,
            fused: false,
        });
        let r = subst_var(&s, 0, &AffineExpr::konst(7));
        if let Stmt::DmaCpe(d) = r {
            assert_eq!(d.offset, AffineExpr::konst(7));
            if let SpmSlot::Double { sel, .. } = d.spm {
                assert_eq!(sel, AffineExpr::konst(7));
            } else {
                panic!("slot kind changed");
            }
        } else {
            panic!("node kind changed");
        }
    }

    #[test]
    fn perfect_nest_extraction() {
        let body = dma_at(AffineExpr::zero());
        let nest = Stmt::for_(0, 2, Stmt::for_(1, 3, Stmt::for_(2, 4, body.clone())));
        let (loops, inner) = perfect_nest(&nest);
        assert_eq!(loops, vec![(0, 2), (1, 3), (2, 4)]);
        assert_eq!(inner, body);
        let rebuilt = build_nest(&loops, inner);
        assert_eq!(rebuilt, nest);
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn reorder_rejects_bad_perm() {
        let nest = Stmt::for_(0, 2, Stmt::for_(1, 3, Stmt::Nop));
        reorder(&nest, &[0, 0]);
    }
}
