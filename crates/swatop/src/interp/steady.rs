//! The static half of steady-state loop extrapolation (DESIGN.md §19): what
//! a `For` node's body lets the cost-only interpreter skip.
//!
//! The dynamic half lives in the interpreter's `For` arm: it snapshots the
//! machine at every iteration boundary ([`sw26010::Snapshot`]) and, once the
//! state at iteration `i` equals the state at `i − P` for a multiple `P` of
//! the loop's [`period`], asks [`swatop_ir::guards::one_path`] whether
//! iterations `i − P ..= hi` all take one path through the body, with every
//! `DMA_CPE` offset in bounds. If so, iterations `i ..= hi` would issue
//! exactly what the reference period `i − P .. i` issued, from the same
//! relative state, so [`sw26010::CoreGroup::extrapolate`] advances the
//! machine over whole periods of them instead.

use swatop_ir::{AVar, AffineExpr, Cond, SpmSlot, Stmt, VarId};

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
        for (v, c) in e.terms() {
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
    use swatop_ir::{DmaCpe, MemBufId, ReplyId, SpmBufId};

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

    /// A 4-iteration inner loop `j` around two gets and waits: 16 statements
    /// per iteration of the loop over `i`.
    fn body(offset: AffineExpr, sel: AffineExpr) -> Stmt {
        let node = get_and_wait(offset, sel);
        Stmt::for_(1, 4, Stmt::seq(vec![node.clone(), node]))
    }

    #[test]
    fn the_period_is_the_least_that_repeats_every_residue_and_parity() {
        let (i, j) = (AffineExpr::loop_var(0), AffineExpr::loop_var(1));
        for (coeff, sel, want) in [(64, 2, 1), (100, 2, 8), (37, 1, 32), (96, 1, 2), (0, 3, 2)] {
            let b = body(i.scale(coeff).add(&j), i.scale(sel));
            assert_eq!(period(0, 200, &b, 32), Some(want), "coefficient {coeff}, selector {sel}");
        }
        // Too short for the periods to pay, too light, or reading `j` after
        // its loop: no period.
        let b = body(i.scale(37), i.clone());
        assert_eq!(period(0, 127, &b, 32), None);
        assert_eq!(period(0, 128, &b, 32), Some(32));
        let light = get(i.scale(64), SpmSlot::Single(SpmBufId(0)));
        assert_eq!(period(0, 100, &light, 32), None);
        let single = SpmSlot::Single(SpmBufId(0));
        let stale = Stmt::seq(vec![body(i.scale(64), i.clone()), get(j.clone(), single)]);
        assert_eq!(period(0, 100, &stale, 32), None);
    }
}
