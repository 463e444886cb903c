//! Guard-range analysis (DESIGN.md §19): which iterations of a loop take one
//! path through its body.
//!
//! It has two readers. The cost-only interpreter's steady-state
//! extrapolation asks it whether a range of iterations repeats a reference
//! period, with a DMA bounds check as the leaf test; the analytic model asks
//! it where a boundary-guarded loop's iterations are all priced alike, so it
//! walks one iteration per run of them.
//!
//! Everything here is affine reasoning over the body's expressions: the
//! variables of enclosing loops are fixed at their values in the `Env`, the
//! variable of a loop inside the body ranges over that loop's extent —
//! narrowed by the guards around the statement — and `rid` / `cid` are 0, as
//! both readers evaluate them.

use crate::{AVar, AffineExpr, Cond, DmaCpe, Env, Stmt, VarId};

/// Whether every iteration `lo ..= hi` of the loop over `var`, with the
/// enclosing loops' variables as in `env`, takes one path through `body`:
/// every `If` condition that reads `var` is constant over the range (an `Eq`
/// is never true in it), and `leaf` accepts every `DMA_CPE` node that can
/// run, given the least and greatest offset it takes over the range (no
/// `leaf`: every node may run anywhere). False when the body has a loop of
/// its own over `var`.
pub fn one_path<'s>(
    var: VarId,
    body: &'s Stmt,
    env: &Env,
    (lo, hi): (i64, i64),
    leaf: Option<&mut dyn FnMut(&'s DmaCpe, (i64, i64)) -> bool>,
) -> bool {
    Check { var, env, lo, hi, ranges: Vec::new(), leaf: leaf.map(|f| f as _) }.stmt(body)
}

/// Whether some `If` condition inside `s` reads loop variable `var` (with a
/// coefficient ≠ 0).
pub fn guards_read(s: &Stmt, var: VarId) -> bool {
    fn reads(c: &Cond, var: VarId) -> bool {
        match c {
            Cond::Lt(l, r) | Cond::Ge(l, r) | Cond::Eq(l, r) => {
                l.depends_on(var) || r.depends_on(var)
            }
            Cond::And(a, b) => reads(a, var) || reads(b, var),
        }
    }
    match s {
        Stmt::Seq(ss) => ss.iter().any(|x| guards_read(x, var)),
        Stmt::For { body, .. } => guards_read(body, var),
        Stmt::If { cond, then_, else_ } => {
            reads(cond, var)
                || guards_read(then_, var)
                || else_.as_ref().is_some_and(|e| guards_read(e, var))
        }
        _ => false,
    }
}

/// The per-range walk behind [`one_path`].
struct Check<'c, 's> {
    var: VarId,
    env: &'c Env,
    lo: i64,
    hi: i64,
    /// The range of each inner loop variable in scope, innermost binding
    /// last: a loop's extent, narrowed by the guards entered since.
    ranges: Vec<(VarId, i64, i64)>,
    leaf: Option<&'c mut dyn FnMut(&'s DmaCpe, (i64, i64)) -> bool>,
}

/// What an arm of an `If` asks of `e = lhs − rhs`.
#[derive(Clone, Copy)]
enum Sign {
    Negative,
    NonNegative,
    Zero,
}

impl<'s> Check<'_, 's> {
    fn stmt(&mut self, s: &'s Stmt) -> bool {
        match s {
            Stmt::Seq(ss) => ss.iter().all(|x| self.stmt(x)),
            Stmt::For { var, .. } if *var == self.var => false,
            Stmt::For { var, extent, body } => {
                if *extent == 0 {
                    return true;
                }
                self.ranges.push((*var, 0, *extent as i64 - 1));
                let ok = self.stmt(body);
                self.ranges.pop();
                ok
            }
            Stmt::If { cond, then_, else_ } => {
                self.constant(cond)
                    && self.arm(cond, true, then_)
                    && else_.as_ref().is_none_or(|e| self.arm(cond, false, e))
            }
            Stmt::DmaCpe(d) if self.leaf.is_some() => {
                let offsets = self.range(&d.offset, (self.lo, self.hi));
                self.leaf.as_mut().is_some_and(|leaf| leaf(d, offsets))
            }
            _ => true,
        }
    }

    /// Check the arm of `cond` that runs when it is `taken`, under the inner
    /// variable ranges that entering it implies; an arm no iteration of the
    /// range can enter holds trivially.
    fn arm(&mut self, cond: &Cond, taken: bool, s: &'s Stmt) -> bool {
        let mark = self.ranges.len();
        let ok = !self.narrow(cond, taken) || self.stmt(s);
        self.ranges.truncate(mark);
        ok
    }

    /// Bind the narrower ranges that `cond` evaluating to `taken` implies;
    /// false when it cannot evaluate so anywhere in the range.
    fn narrow(&mut self, cond: &Cond, taken: bool) -> bool {
        use Sign::*;
        let (l, r, sign) = match (cond, taken) {
            (Cond::And(a, b), true) => return self.narrow(a, true) && self.narrow(b, true),
            (Cond::And(..), false) | (Cond::Eq(..), false) => return true,
            (Cond::Lt(l, r), true) | (Cond::Ge(l, r), false) => (l, r, Negative),
            (Cond::Lt(l, r), false) | (Cond::Ge(l, r), true) => (l, r, NonNegative),
            (Cond::Eq(l, r), true) => (l, r, Zero),
        };
        let e = l.add(&r.scale(-1));
        let (min, max) = self.range(&e, (self.lo, self.hi));
        let possible = match sign {
            Negative => min < 0,
            NonNegative => max >= 0,
            Zero => min <= 0 && 0 <= max,
        };
        // One inner variable `w` with `e = c·w + rest`: bound `c·w` by
        // what `rest` allows, then `w`.
        let mut inner = e.terms().filter_map(|(v, c)| match v {
            AVar::Loop(w) => self.bound(w).map(|range| (w, c, range)),
            _ => None,
        });
        let (Some((w, c, (old_min, old_max))), None) = (inner.next(), inner.next()) else {
            return possible;
        };
        let (rest_min, rest_max) = self.range(&e.add_term(AVar::Loop(w), -c), (self.lo, self.hi));
        let (cw_min, cw_max) = match sign {
            Negative => (i64::MIN, -rest_min - 1),
            NonNegative => (-rest_max, i64::MAX),
            Zero => (-rest_max, -rest_min),
        };
        let (w_min, w_max) = if c > 0 {
            (ceil_div(cw_min, c), floor_div(cw_max, c))
        } else {
            (ceil_div(cw_max, c), floor_div(cw_min, c))
        };
        let (new_min, new_max) = (old_min.max(w_min), old_max.min(w_max));
        self.ranges.push((w, new_min, new_max));
        possible && new_min <= new_max
    }

    /// The range of inner loop variable `w` here, if `w` is one.
    fn bound(&self, w: VarId) -> Option<(i64, i64)> {
        self.ranges.iter().rev().find(|r| r.0 == w).map(|&(_, min, max)| (min, max))
    }

    /// Least and greatest value of `e` while `var` ranges over `at` and the
    /// inner loops' variables over their ranges here.
    fn range(&self, e: &AffineExpr, at: (i64, i64)) -> (i64, i64) {
        let (mut min, mut max) = (e.constant(), e.constant());
        for (v, c) in e.terms() {
            let (a, b) = match v {
                AVar::Loop(w) if w == self.var => at,
                AVar::Loop(w) => self.bound(w).unwrap_or((self.env.get(w), self.env.get(w))),
                AVar::Rid | AVar::Cid => (0, 0),
            };
            min += (c * a).min(c * b);
            max += (c * a).max(c * b);
        }
        (min, max)
    }

    /// Whether `c` takes one value at every iteration of the range, for each
    /// value of the inner loops' variables.
    fn constant(&self, c: &Cond) -> bool {
        let (l, r, eq) = match c {
            Cond::And(a, b) => return self.constant(a) && self.constant(b),
            Cond::Lt(l, r) | Cond::Ge(l, r) => (l, r, false),
            Cond::Eq(l, r) => (l, r, true),
        };
        let e = l.add(&r.scale(-1));
        let a = e.coeff(AVar::Loop(self.var));
        if a == 0 {
            return true;
        }
        if eq {
            let (min, max) = self.range(&e, (self.lo, self.hi));
            return min > 0 || max < 0;
        }
        // `a·v + rest < 0` flips inside the range exactly when `rest` lies in
        // `[−max a·v, −min a·v)`; `rest` must miss that window entirely.
        let (rest_min, rest_max) = self.range(&e, (0, 0));
        let (av_min, av_max) = ((a * self.lo).min(a * self.hi), (a * self.lo).max(a * self.hi));
        rest_max < -av_max || rest_min >= -av_min
    }
}

fn floor_div(a: i64, b: i64) -> i64 {
    match (a, b > 0) {
        (i64::MIN | i64::MAX, _) => a.signum() * b.signum() * i64::MAX,
        (_, true) => a.div_euclid(b),
        (_, false) => (-a).div_euclid(-b),
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    match a {
        i64::MIN | i64::MAX => a.signum() * b.signum() * i64::MAX,
        _ => -floor_div(-a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemBufId, ReplyId, SpmBufId, SpmSlot};
    use sw26010::DmaDirection;

    fn get(offset: AffineExpr) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: MemBufId(0),
            offset,
            block: 8,
            stride: 8,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm: SpmSlot::Single(SpmBufId(0)),
            reply: ReplyId(0),
            bcast: None,
            fused: false,
        })
    }

    /// Offsets within `[0, most]`.
    fn within(most: i64) -> impl FnMut(&DmaCpe, (i64, i64)) -> bool {
        move |_, (min, max)| 0 <= min && max <= most
    }

    #[test]
    fn guards_hold_only_where_no_iteration_of_the_range_flips_them() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        let env = Env::new(2);
        // A 4-iteration inner loop `j` around a get at `64i + j` under
        // `guard` and an unguarded one.
        let holds = |guard: Cond, range, most: Option<i64>| {
            let node = get(i.scale(64).add(&j));
            let body = Stmt::for_(1, 4, Stmt::seq(vec![Stmt::if_(guard, node.clone()), node]));
            match most {
                Some(most) => one_path(0, &body, &env, range, Some(&mut within(most))),
                None => one_path(0, &body, &env, range, None),
            }
        };
        // `i + 1 < 28` flips at 27; `4i + j < 40` at i = 10.
        assert!(holds(Cond::lt_const(i.add_const(1), 28), (1, 26), None));
        assert!(!holds(Cond::lt_const(i.add_const(1), 28), (1, 27), None));
        let mixed = || Cond::lt_const(i.scale(4).add(&j), 40);
        assert!(holds(mixed(), (2, 9), None));
        assert!(!holds(mixed(), (2, 10), None));
        assert!(holds(mixed(), (10, 50), None));
        // An `Eq` must never hold inside the range; one of `j` alone may.
        let eq = || Cond::Eq(i.clone(), AffineExpr::konst(10));
        assert!(holds(eq(), (11, 40), None));
        assert!(!holds(eq(), (2, 10), None));
        assert!(holds(Cond::Eq(j.clone(), AffineExpr::konst(3)), (0, 90), None));
        // Offsets `64i + j` within `[0, 64·20 + 3]`: up to i = 20.
        assert!(holds(eq(), (11, 20), Some(64 * 20 + 3)));
        assert!(!holds(eq(), (11, 21), Some(64 * 20 + 3)));
        // A body with its own loop over `i` never takes one path.
        assert!(!one_path(0, &Stmt::for_(0, 2, get(i.clone())), &env, (0, 0), None));
    }

    #[test]
    fn a_guard_bounds_what_its_arms_can_reach() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        let env = Env::new(2);
        // Under `j + 1 < 4` a get at `64i + 100j` reaches 64i + 200; in the
        // else arm, where `j == 3`, one at `64i + j` reaches 64i + 3.
        let guarded = Stmt::for_(
            1,
            4,
            Stmt::if_else(
                Cond::lt_const(j.add_const(1), 4),
                get(i.scale(64).add(&j.scale(100))),
                get(i.scale(64).add(&j)),
            ),
        );
        assert!(one_path(0, &guarded, &env, (0, 10), Some(&mut within(840))));
        assert!(!one_path(0, &guarded, &env, (0, 10), Some(&mut within(839))));
        // A guard no iteration of the range takes spares its arm the bounds;
        // an `Eq` binds its variable.
        let never = Stmt::for_(
            1,
            4,
            Stmt::seq(vec![
                Stmt::if_(Cond::lt_const(i.clone(), 0), get(i.scale(1000))),
                Stmt::if_(Cond::Eq(j.clone(), AffineExpr::konst(0)), get(j.scale(1000))),
            ]),
        );
        assert!(one_path(0, &never, &env, (3, 90), Some(&mut within(0))));
        assert!(!one_path(0, &never, &env, (-1, 90), Some(&mut within(0))));
    }

    #[test]
    fn guards_read_sees_nonzero_coefficients_at_any_depth() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        let nested = Stmt::for_(1, 3, Stmt::if_(Cond::lt_const(i.add(&j), 5), get(j.clone())));
        assert!(guards_read(&nested, 0) && guards_read(&nested, 1));
        assert!(!guards_read(&nested, 2));
        // Offsets are not guards, and `i − i` reads nothing.
        assert!(!guards_read(&get(i.clone()), 0));
        let cancelled = Stmt::if_(Cond::lt_const(i.add(&i.scale(-1)), 1), Stmt::Nop);
        assert!(!guards_read(&cancelled, 0));
    }
}
