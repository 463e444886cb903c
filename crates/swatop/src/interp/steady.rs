//! The static half of steady-state loop extrapolation (DESIGN.md §19): what
//! a `For` node's body lets the cost-only interpreter skip.
//!
//! The dynamic half lives in the interpreter's `For` arm: it snapshots the
//! machine at every iteration boundary ([`sw26010::Snapshot`]) and, once the
//! state at iteration `i` equals the state at `i − P` for a multiple `P` of
//! the loop's [`period`], asks [`repeats`] whether iterations `i − P ..= hi`
//! all take one path through the body and raise no error. If so, iterations
//! `i ..= hi` would issue exactly what the reference period `i − P .. i`
//! issued, from the same relative state, so
//! [`sw26010::CoreGroup::extrapolate`] advances the machine over whole
//! periods of them instead.
//!
//! Everything here is affine reasoning over the body's expressions: the
//! variables of enclosing loops are fixed at their current values, the
//! variable of a loop inside the body ranges over that loop's extent —
//! narrowed by the guards around the statement — and `rid` / `cid` are 0, as
//! the interpreter evaluates them.

use swatop_ir::{AVar, AffineExpr, Cond, DmaCpe, Env, SpmSlot, Stmt, VarId};

/// Bodies lighter than this — in statements executed per iteration — are
/// cheaper to walk than to snapshot at every boundary.
const MIN_WEIGHT: usize = 4;

/// Loops shorter than this many periods leave too little to skip once the
/// reference period and the usual odd last iteration are run.
const MIN_PERIODS: usize = 4;

/// Periods longer than this are not looked for: the snapshot ring would
/// outgrow the loops that could use it.
const MAX_PERIOD: usize = 64;

/// The period of `for var in 0..extent { body }` — the iterations after
/// which every DMA first-start residue (modulo `residue_period`, the
/// machine's [`sw26010::dma::start_period`]) and every double-buffer parity
/// in the body repeat — if extrapolating the loop can pay. `None` also when
/// the body defeats the analysis: a `DMA_CG` node, an inner loop over `var`,
/// or a read of an inner loop's variable outside that loop.
pub(super) fn period(
    var: VarId,
    extent: usize,
    body: &Stmt,
    residue_period: usize,
) -> Option<usize> {
    let mut inner: Vec<VarId> = Vec::new();
    body.visit(&mut |s| {
        if let Stmt::For { var: w, .. } = s {
            inner.push(*w);
        }
    });
    if inner.contains(&var) {
        return None;
    }
    let mut scan = Scan {
        var,
        inner: &inner,
        scope: Vec::new(),
        residue_period: residue_period as i64,
        period: 1,
        weight: 0,
        sound: true,
    };
    scan.stmt(body, 1);
    let period = scan.period as usize;
    let pays =
        scan.weight >= MIN_WEIGHT && period <= MAX_PERIOD && MIN_PERIODS * period <= extent;
    (scan.sound && pays).then_some(period)
}

/// Whether every iteration `lo ..= hi` of the loop over `var`, with the
/// enclosing loops' variables as in `env`, takes one path through `body` and
/// raises no error: every `If` condition that reads `var` is constant over
/// the range (an `Eq` is never true in it), and every `DMA_CPE` offset that
/// can run stays within the bounds `limits` gives for its node — `None` for
/// a node that cannot run at all.
pub(super) fn repeats<'s>(
    var: VarId,
    body: &'s Stmt,
    env: &Env,
    (lo, hi): (i64, i64),
    limits: &mut dyn FnMut(&'s DmaCpe) -> Option<(i64, i64)>,
) -> bool {
    Check { var, env, lo, hi, ranges: Vec::new(), limits }.stmt(body)
}

/// The one-pass scan behind [`period`].
struct Scan<'p> {
    var: VarId,
    /// The variables of the loops inside the body.
    inner: &'p [VarId],
    /// The inner loops enclosing the statement being scanned.
    scope: Vec<VarId>,
    residue_period: i64,
    period: i64,
    /// Statements executed per iteration, counting both arms of an `If`.
    weight: usize,
    sound: bool,
}

impl Scan<'_> {
    fn stmt(&mut self, s: &Stmt, times: usize) {
        match s {
            Stmt::Seq(ss) => ss.iter().for_each(|x| self.stmt(x, times)),
            Stmt::For { var, extent, body } => {
                self.scope.push(*var);
                self.stmt(body, times * extent);
                self.scope.pop();
            }
            Stmt::If { cond, then_, else_ } => {
                self.cond(cond);
                self.stmt(then_, times);
                if let Some(e) = else_ {
                    self.stmt(e, times);
                }
            }
            Stmt::DmaCpe(d) => {
                self.expr(&d.offset, Some(self.residue_period));
                self.slot(&d.spm);
                self.weight += times;
            }
            Stmt::Gemm(g) => {
                [&g.a.slot, &g.b.slot, &g.c.slot].into_iter().for_each(|s| self.slot(s));
                self.weight += times;
            }
            Stmt::DmaWait { .. } | Stmt::Transform(_) => self.weight += times,
            Stmt::DmaCg(_) => self.sound = false,
            Stmt::Nop => {}
        }
    }

    fn cond(&mut self, c: &Cond) {
        match c {
            Cond::Lt(l, r) | Cond::Ge(l, r) | Cond::Eq(l, r) => {
                self.expr(l, None);
                self.expr(r, None);
            }
            Cond::And(a, b) => {
                self.cond(a);
                self.cond(b);
            }
        }
    }

    fn slot(&mut self, s: &SpmSlot) {
        if let SpmSlot::Double { sel, .. } = s {
            self.expr(sel, Some(2));
        }
    }

    /// Note what `e` reads: with `modulus`, the period after which its value
    /// modulo `modulus` repeats in `var`, i.e. the least `P` with
    /// `coeff · P ≡ 0`.
    fn expr(&mut self, e: &AffineExpr, modulus: Option<i64>) {
        for &(v, c) in e.terms() {
            let AVar::Loop(w) = v else { continue };
            if w == self.var {
                if let Some(m) = modulus {
                    self.period = lcm(self.period, m / gcd(c.rem_euclid(m), m));
                }
            } else if self.inner.contains(&w) && !self.scope.contains(&w) {
                // An inner loop's variable read outside that loop holds
                // whatever its last iteration left: not an affine range.
                self.sound = false;
            }
        }
    }
}

/// The per-range walk behind [`repeats`].
struct Check<'c, 's> {
    var: VarId,
    env: &'c Env,
    lo: i64,
    hi: i64,
    /// The range of each inner loop variable in scope, innermost binding
    /// last: a loop's extent, narrowed by the guards entered since.
    ranges: Vec<(VarId, i64, i64)>,
    limits: &'c mut dyn FnMut(&'s DmaCpe) -> Option<(i64, i64)>,
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
            Stmt::DmaCpe(d) => match (self.limits)(d) {
                Some((least, most)) => {
                    let (min, max) = self.range(&d.offset, (self.lo, self.hi));
                    least <= min && max <= most
                }
                None => false,
            },
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
        let mut inner = e.terms().iter().filter_map(|&(v, c)| match v {
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
        for &(v, c) in e.terms() {
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

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: i64, b: i64) -> i64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw26010::DmaDirection;
    use swatop_ir::{MemBufId, ReplyId, SpmBufId};

    fn get(offset: AffineExpr, spm: SpmSlot) -> Stmt {
        Stmt::DmaCpe(DmaCpe {
            buf: MemBufId(0),
            offset,
            block: 8,
            stride: 8,
            n_blocks: 1,
            direction: DmaDirection::MemToSpm,
            spm,
            reply: ReplyId(0),
            bcast: None,
            fused: false,
        })
    }

    fn get_and_wait(offset: AffineExpr, sel: AffineExpr) -> Stmt {
        let slot = SpmSlot::Double { even: SpmBufId(0), odd: SpmBufId(1), sel };
        Stmt::seq(vec![get(offset, slot), Stmt::DmaWait { reply: ReplyId(0), times: 1 }])
    }

    /// A 4-iteration inner loop `j` around two gets and waits, the first of
    /// them under `guard`: 16 statements per iteration of the loop over `i`.
    fn body(offset: AffineExpr, sel: AffineExpr, guard: Option<Cond>) -> Stmt {
        let node = get_and_wait(offset, sel);
        let first = match guard {
            Some(c) => Stmt::if_(c, node.clone()),
            None => node.clone(),
        };
        Stmt::for_(1, 4, Stmt::seq(vec![first, node]))
    }

    #[test]
    fn the_period_is_the_least_that_repeats_every_residue_and_parity() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        for (coeff, sel, want) in [(64, 2, 1), (100, 2, 8), (37, 1, 32), (96, 1, 2), (0, 3, 2)] {
            let b = body(i.scale(coeff).add(&j), i.scale(sel), None);
            assert_eq!(period(0, 200, &b, 32), Some(want), "coefficient {coeff}, selector {sel}");
        }
        // Too short for the periods to pay, too light, or reading `j` after
        // its loop: no period.
        let b = body(i.scale(37), i.clone(), None);
        assert_eq!(period(0, 127, &b, 32), None);
        assert_eq!(period(0, 128, &b, 32), Some(32));
        let light = get(i.scale(64), SpmSlot::Single(SpmBufId(0)));
        assert_eq!(period(0, 100, &light, 32), None);
        let single = SpmSlot::Single(SpmBufId(0));
        let stale = Stmt::seq(vec![body(i.scale(64), i.clone(), None), get(j.clone(), single)]);
        assert_eq!(period(0, 100, &stale, 32), None);
    }

    #[test]
    fn guards_hold_only_where_no_iteration_of_the_range_flips_them() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        let env = Env::new(2);
        let mut any = |_: &DmaCpe| Some((i64::MIN, i64::MAX));
        let holds = |c: Cond, range, limits: &mut dyn FnMut(&DmaCpe) -> Option<(i64, i64)>| {
            repeats(0, &body(i.scale(64).add(&j), i.clone(), Some(c)), &env, range, limits)
        };
        // `i + 1 < 28` flips at 27; `4i + j < 40` at i = 10.
        assert!(holds(Cond::lt_const(i.add_const(1), 28), (1, 26), &mut any));
        assert!(!holds(Cond::lt_const(i.add_const(1), 28), (1, 27), &mut any));
        let mixed = || Cond::lt_const(i.scale(4).add(&j), 40);
        assert!(holds(mixed(), (2, 9), &mut any));
        assert!(!holds(mixed(), (2, 10), &mut any));
        assert!(holds(mixed(), (10, 50), &mut any));
        // An `Eq` must never hold inside the range; one of `j` alone may.
        let eq = || Cond::Eq(i.clone(), AffineExpr::konst(10));
        assert!(holds(eq(), (11, 40), &mut any));
        assert!(!holds(eq(), (2, 10), &mut any));
        assert!(holds(Cond::Eq(j.clone(), AffineExpr::konst(3)), (0, 90), &mut any));
        // Offsets `64i + j` within `[0, 64·20 + 3]`: up to i = 20.
        let mut bounded = |_: &DmaCpe| Some((0, 64 * 20 + 3));
        assert!(holds(eq(), (11, 20), &mut bounded));
        assert!(!holds(eq(), (11, 21), &mut bounded));
    }

    #[test]
    fn a_guard_bounds_what_its_arms_can_reach() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        let env = Env::new(2);
        let single = || SpmSlot::Single(SpmBufId(0));
        // Under `j + 1 < 4` a get at `64i + 100j` reaches 64i + 200; in the
        // else arm, where `j == 3`, one at `64i + j` reaches 64i + 3.
        let guarded = Stmt::for_(
            1,
            4,
            Stmt::if_else(
                Cond::lt_const(j.add_const(1), 4),
                get(i.scale(64).add(&j.scale(100)), single()),
                get(i.scale(64).add(&j), single()),
            ),
        );
        let within = |most: i64| move |_: &DmaCpe| Some((0, most));
        assert!(repeats(0, &guarded, &env, (0, 10), &mut within(840)));
        assert!(!repeats(0, &guarded, &env, (0, 10), &mut within(839)));
        // A guard no iteration of the range takes spares its arm the bounds;
        // an `Eq` binds its variable.
        let never = Stmt::for_(
            1,
            4,
            Stmt::seq(vec![
                Stmt::if_(Cond::lt_const(i.clone(), 0), get(i.scale(1000), single())),
                Stmt::if_(Cond::Eq(j.clone(), AffineExpr::konst(0)), get(j.scale(1000), single())),
            ]),
        );
        assert!(repeats(0, &never, &env, (3, 90), &mut within(0)));
        assert!(!repeats(0, &never, &env, (-1, 90), &mut within(0)));
    }
}
