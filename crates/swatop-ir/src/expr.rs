//! Affine expressions and conditions over loop variables.
//!
//! Addresses in the IR are affine functions of the enclosing loop variables
//! and the CPE mesh coordinates:
//! `Φ(I) = Σ cᵢ·varᵢ + c_rid·rid + c_cid·cid + c₀`. Affine closure under
//! substitution is what makes the paper's DMA inference, hoisting analysis
//! and next-iteration prefetch inference mechanical.

use std::cmp::Ordering;
use std::fmt;

/// Index of a loop variable in a program's variable table.
pub type VarId = usize;

/// A variable an affine expression may reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AVar {
    /// A loop iteration variable.
    Loop(VarId),
    /// The CPE's row id within the 8×8 mesh.
    Rid,
    /// The CPE's column id within the 8×8 mesh.
    Cid,
}

/// An affine expression `Σ coeff·var + constant` (i64 arithmetic).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// Sorted, deduplicated, zero-free terms.
    terms: Vec<(AVar, i64)>,
    constant: i64,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn konst(c: i64) -> Self {
        AffineExpr { terms: Vec::new(), constant: c }
    }

    /// The expression `0`.
    pub fn zero() -> Self {
        Self::konst(0)
    }

    /// The single-variable expression `v`.
    pub fn var(v: AVar) -> Self {
        AffineExpr { terms: vec![(v, 1)], constant: 0 }
    }

    /// The loop-variable expression `varᵢ`.
    pub fn loop_var(v: VarId) -> Self {
        Self::var(AVar::Loop(v))
    }

    /// `Σ coeff·var + constant` over `terms` in any order, repeats summed —
    /// built with one allocation of exactly the nonzero terms, where a chain
    /// of [`AffineExpr::add_term`] copies the expression at every step.
    pub fn from_terms<I>(terms: I, constant: i64) -> Self
    where
        I: IntoIterator<Item = (AVar, i64)>,
        I::IntoIter: Clone,
    {
        let terms = terms.into_iter().filter(|&(_, c)| c != 0);
        let mut out = Vec::with_capacity(terms.clone().count());
        out.extend(terms);
        out.sort_unstable_by_key(|&(v, _)| v);
        // `dedup_by` hands over (later, earlier kept): fold the later in.
        out.dedup_by(|later, kept| later.0 == kept.0 && { kept.1 += later.1; true });
        out.retain(|&(_, c)| c != 0);
        AffineExpr { terms: out, constant }
    }

    pub fn constant(&self) -> i64 {
        self.constant
    }

    pub fn terms(&self) -> &[(AVar, i64)] {
        &self.terms
    }

    /// Coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: AVar) -> i64 {
        self.terms.iter().find(|(t, _)| *t == v).map_or(0, |(_, c)| *c)
    }

    /// `self + other`: a merge of the two sorted term lists.
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        let (a, b) = (&self.terms, &other.terms);
        let mut terms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    terms.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    terms.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    let c = a[i].1 + b[j].1;
                    if c != 0 {
                        terms.push((a[i].0, c));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&a[i..]);
        terms.extend_from_slice(&b[j..]);
        AffineExpr { terms, constant: self.constant + other.constant }
    }

    /// `self + c`.
    pub fn add_const(&self, c: i64) -> AffineExpr {
        let mut e = self.clone();
        e.constant += c;
        e
    }

    /// `self + coeff·v`.
    pub fn add_term(&self, v: AVar, coeff: i64) -> AffineExpr {
        let mut e = self.clone();
        if coeff == 0 {
            return e;
        }
        match e.terms.binary_search_by_key(&v, |&(t, _)| t) {
            Ok(i) if e.terms[i].1 + coeff == 0 => {
                e.terms.remove(i);
            }
            Ok(i) => e.terms[i].1 += coeff,
            Err(i) => e.terms.insert(i, (v, coeff)),
        }
        e
    }

    /// `self · c`.
    pub fn scale(&self, c: i64) -> AffineExpr {
        if c == 0 {
            return AffineExpr::zero();
        }
        AffineExpr {
            terms: self.terms.iter().map(|&(v, k)| (v, k * c)).collect(),
            constant: self.constant * c,
        }
    }

    /// Substitute loop variable `var` by expression `by` (affine closure).
    pub fn subst(&self, var: VarId, by: &AffineExpr) -> AffineExpr {
        let coeff = self.coeff(AVar::Loop(var));
        if coeff == 0 {
            return self.clone();
        }
        let rest = self.terms.iter().copied().filter(|&(v, _)| v != AVar::Loop(var));
        let scaled = by.terms.iter().map(|&(v, c)| (v, c * coeff));
        AffineExpr::from_terms(rest.chain(scaled), self.constant + coeff * by.constant)
    }

    /// Substitute a constant for each `(var, value)` of `values`: what a
    /// chain of [`AffineExpr::subst`] by constants gives, in one allocation.
    pub fn subst_consts(&self, values: &[(VarId, i64)]) -> AffineExpr {
        let value = |v: AVar| match v {
            AVar::Loop(i) => values.iter().find(|&&(x, _)| x == i).map(|&(_, k)| k),
            AVar::Rid | AVar::Cid => None,
        };
        let constant =
            self.terms.iter().fold(self.constant, |acc, &(v, c)| acc + value(v).map_or(0, |k| c * k));
        let rest = self.terms.iter().copied().filter(|&(v, _)| value(v).is_none());
        AffineExpr::from_terms(rest, constant)
    }

    /// Evaluate under an environment plus mesh coordinates.
    pub fn eval(&self, env: &Env, rid: i64, cid: i64) -> i64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            let val = match v {
                AVar::Loop(i) => env.get(i),
                AVar::Rid => rid,
                AVar::Cid => cid,
            };
            acc += c * val;
        }
        acc
    }

    /// Does the expression reference loop variable `v`?
    pub fn depends_on(&self, v: VarId) -> bool {
        self.coeff(AVar::Loop(v)) != 0
    }

    /// Does the expression reference `rid` or `cid`?
    pub fn uses_mesh(&self) -> bool {
        self.coeff(AVar::Rid) != 0 || self.coeff(AVar::Cid) != 0
    }

    /// Loop variables referenced, ascending.
    pub fn loop_vars(&self) -> Vec<VarId> {
        self.terms
            .iter()
            .filter_map(|(v, _)| match v {
                AVar::Loop(i) => Some(*i),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            let name = match v {
                AVar::Loop(i) => format!("v{i}"),
                AVar::Rid => "rid".into(),
                AVar::Cid => "cid".into(),
            };
            if c == 1 {
                write!(f, "{name}")?;
            } else {
                write!(f, "{c}*{name}")?;
            }
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// Loop-variable environment during interpretation.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vals: Vec<i64>,
}

impl Env {
    pub fn new(n_vars: usize) -> Self {
        Env { vals: vec![0; n_vars] }
    }

    #[inline]
    pub fn get(&self, v: VarId) -> i64 {
        self.vals[v]
    }

    #[inline]
    pub fn set(&mut self, v: VarId, val: i64) {
        self.vals[v] = val;
    }
}

/// Boolean conditions over affine expressions (`if-then-else` nodes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `lhs < rhs`
    Lt(AffineExpr, AffineExpr),
    /// `lhs >= rhs`
    Ge(AffineExpr, AffineExpr),
    /// `lhs == rhs`
    Eq(AffineExpr, AffineExpr),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
}

impl Cond {
    pub fn lt(l: AffineExpr, r: AffineExpr) -> Cond {
        Cond::Lt(l, r)
    }

    /// `expr < c`
    pub fn lt_const(l: AffineExpr, c: i64) -> Cond {
        Cond::Lt(l, AffineExpr::konst(c))
    }

    pub fn and(self, other: Cond) -> Cond {
        Cond::And(Box::new(self), Box::new(other))
    }

    pub fn eval(&self, env: &Env, rid: i64, cid: i64) -> bool {
        match self {
            Cond::Lt(l, r) => l.eval(env, rid, cid) < r.eval(env, rid, cid),
            Cond::Ge(l, r) => l.eval(env, rid, cid) >= r.eval(env, rid, cid),
            Cond::Eq(l, r) => l.eval(env, rid, cid) == r.eval(env, rid, cid),
            Cond::And(a, b) => a.eval(env, rid, cid) && b.eval(env, rid, cid),
        }
    }

    /// Substitute a loop variable throughout.
    pub fn subst(&self, var: VarId, by: &AffineExpr) -> Cond {
        match self {
            Cond::Lt(l, r) => Cond::Lt(l.subst(var, by), r.subst(var, by)),
            Cond::Ge(l, r) => Cond::Ge(l.subst(var, by), r.subst(var, by)),
            Cond::Eq(l, r) => Cond::Eq(l.subst(var, by), r.subst(var, by)),
            Cond::And(a, b) => Cond::And(Box::new(a.subst(var, by)), Box::new(b.subst(var, by))),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Lt(l, r) => write!(f, "{l} < {r}"),
            Cond::Ge(l, r) => write!(f, "{l} >= {r}"),
            Cond::Eq(l, r) => write!(f, "{l} == {r}"),
            Cond::And(a, b) => write!(f, "({a}) && ({b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval() {
        // 3*v0 + 2*v1 + rid + 5
        let e = AffineExpr::zero()
            .add_term(AVar::Loop(0), 3)
            .add_term(AVar::Loop(1), 2)
            .add_term(AVar::Rid, 1)
            .add_const(5);
        let mut env = Env::new(2);
        env.set(0, 4);
        env.set(1, 10);
        assert_eq!(e.eval(&env, 7, 0), 12 + 20 + 7 + 5);
        assert!(e.depends_on(0));
        assert!(!e.depends_on(3));
        assert!(e.uses_mesh());
        assert_eq!(e.loop_vars(), vec![0, 1]);
    }

    #[test]
    fn add_cancels_terms() {
        let a = AffineExpr::loop_var(0).scale(3);
        let b = AffineExpr::loop_var(0).scale(-3).add_const(1);
        let s = a.add(&b);
        assert!(s.terms().is_empty());
        assert_eq!(s.constant(), 1);
    }

    #[test]
    fn add_merges_sorted_terms_canonically() {
        // Interleaved, overlapping and cancelling terms: the result is the
        // sorted, deduplicated, zero-free form whichever way it is built.
        let a = AffineExpr::zero()
            .add_term(AVar::Cid, 2)
            .add_term(AVar::Loop(3), 5)
            .add_term(AVar::Loop(0), 1);
        let b = AffineExpr::zero()
            .add_term(AVar::Loop(3), -5)
            .add_term(AVar::Rid, 7)
            .add_term(AVar::Loop(1), 4)
            .add_const(9);
        let s = a.add(&b);
        assert_eq!(
            s.terms(),
            &[(AVar::Loop(0), 1), (AVar::Loop(1), 4), (AVar::Rid, 7), (AVar::Cid, 2)]
        );
        assert_eq!(s.constant(), 9);
        assert_eq!(s, b.add(&a));
        // add_term: zero coefficients and exact cancellation leave no term.
        assert_eq!(a.add_term(AVar::Rid, 0), a);
        assert_eq!(a.add_term(AVar::Cid, -2).coeff(AVar::Cid), 0);
        assert_eq!(a.add_term(AVar::Cid, -2).terms().len(), 2);
        assert_eq!(a.add_term(AVar::Cid, 1).coeff(AVar::Cid), 3);
    }

    #[test]
    fn from_terms_equals_the_add_term_chain() {
        let cases: &[&[(AVar, i64)]] = &[
            &[],
            &[(AVar::Cid, 4)],
            &[(AVar::Loop(2), 8), (AVar::Loop(0), 32), (AVar::Cid, 4), (AVar::Rid, 1024)],
            // Repeats sum, cancellations and zeros leave nothing behind.
            &[(AVar::Loop(1), 3), (AVar::Rid, 0), (AVar::Loop(1), 4), (AVar::Cid, 2)],
            &[(AVar::Loop(1), 3), (AVar::Cid, 2), (AVar::Loop(1), -3), (AVar::Cid, -2)],
        ];
        for &terms in cases {
            let chain = terms.iter().fold(AffineExpr::konst(7), |e, &(v, c)| e.add_term(v, c));
            let built = AffineExpr::from_terms(terms.iter().copied(), 7);
            assert_eq!(built, chain, "{terms:?}");
            assert_eq!(built.terms.capacity(), terms.iter().filter(|t| t.1 != 0).count());
        }
    }

    #[test]
    fn substitution_is_affine() {
        // e = 4*v0 + 1; v0 := 2*v1 + 3 → 8*v1 + 13
        let e = AffineExpr::loop_var(0).scale(4).add_const(1);
        let by = AffineExpr::loop_var(1).scale(2).add_const(3);
        let s = e.subst(0, &by);
        assert_eq!(s.coeff(AVar::Loop(1)), 8);
        assert_eq!(s.coeff(AVar::Loop(0)), 0);
        assert_eq!(s.constant(), 13);
    }

    #[test]
    fn constant_substitution_equals_the_subst_chain() {
        // 4*v0 + 3*v1 - 2*v2 + 5*rid + 1
        let e = AffineExpr::from_terms(
            [(AVar::Loop(0), 4), (AVar::Loop(1), 3), (AVar::Loop(2), -2), (AVar::Rid, 5)],
            1,
        );
        let values = [(2, 7), (0, -3), (9, 100)];
        let chain = values.iter().fold(e.clone(), |e, &(v, k)| e.subst(v, &AffineExpr::konst(k)));
        assert_eq!(e.subst_consts(&values), chain);
        assert_eq!(chain.terms(), &[(AVar::Loop(1), 3), (AVar::Rid, 5)]);
        assert_eq!(chain.constant(), 1 - 14 - 12);
        // A substituted expression merges into the rest; a term it cancels
        // is dropped.
        let by = AffineExpr::from_terms([(AVar::Loop(1), -1), (AVar::Cid, 2)], 3);
        let merged = [(AVar::Loop(1), -1), (AVar::Loop(2), -2), (AVar::Rid, 5), (AVar::Cid, 8)];
        assert_eq!(e.subst(0, &by), AffineExpr::from_terms(merged, 13));
        let diff = AffineExpr::loop_var(0).add(&AffineExpr::loop_var(1).scale(-1));
        assert_eq!(diff.subst(0, &AffineExpr::loop_var(1)), AffineExpr::zero());
    }

    #[test]
    fn substitution_of_absent_var_is_identity() {
        let e = AffineExpr::loop_var(2).add_const(7);
        assert_eq!(e.subst(0, &AffineExpr::konst(100)), e);
    }

    #[test]
    fn scale_by_zero() {
        let e = AffineExpr::loop_var(0).add_const(9);
        assert_eq!(e.scale(0), AffineExpr::zero());
    }

    #[test]
    fn cond_eval_and_subst() {
        let mut env = Env::new(1);
        env.set(0, 3);
        let c = Cond::lt_const(AffineExpr::loop_var(0), 4);
        assert!(c.eval(&env, 0, 0));
        env.set(0, 4);
        assert!(!c.eval(&env, 0, 0));

        let c2 = c.subst(0, &AffineExpr::konst(1));
        assert!(c2.eval(&env, 0, 0)); // 1 < 4 regardless of env

        let both = Cond::lt_const(AffineExpr::loop_var(0), 10)
            .and(Cond::Ge(AffineExpr::loop_var(0), AffineExpr::konst(4)));
        assert!(both.eval(&env, 0, 0));
    }

    #[test]
    fn display_round_trips_visually() {
        let e = AffineExpr::loop_var(0).scale(2).add_term(AVar::Cid, 1).add_const(3);
        let s = e.to_string();
        assert!(s.contains("2*v0") && s.contains("cid") && s.contains('3'), "{s}");
    }
}
