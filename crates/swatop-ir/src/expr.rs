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

/// Terms an expression holds in place; more spill to the heap.
const INLINE: usize = 4;
/// Inline variable codes: a loop id below `RID_CODE` is its own code, then
/// `rid` and `cid` — so code order is [`AVar`] order.
const RID_CODE: u8 = 254;
const CID_CODE: u8 = 255;

/// An affine expression `Σ coeff·var + constant` (i64 arithmetic).
///
/// The terms are sorted by variable, deduplicated and zero-free. Up to four
/// of them live inline, a `u8` variable code and an `i32` coefficient each,
/// whenever every one fits (loop ids below 254, coefficients within `i32`);
/// otherwise they spill to one boxed slice. The form is a function of the
/// value — inline whenever it fits, unused slots zero — so the derived
/// equality and hash compare values. Arithmetic builds its result on the
/// stack and allocates only the slice of a spilled result.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    terms: Store,
    constant: i64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum Store {
    Inline { len: u8, vars: [u8; INLINE], coeffs: [i32; INLINE] },
    Spilled(Box<[(AVar, i64)]>),
}

impl Store {
    const EMPTY: Store = Store::Inline { len: 0, vars: [0; INLINE], coeffs: [0; INLINE] };

    /// The inline form of canonical `terms`, if they fit in it.
    fn inline(terms: &[(AVar, i64)]) -> Option<Store> {
        if terms.len() > INLINE {
            return None;
        }
        let (mut vars, mut coeffs) = ([0; INLINE], [0; INLINE]);
        for (i, &(v, c)) in terms.iter().enumerate() {
            vars[i] = code(v)?;
            coeffs[i] = i32::try_from(c).ok()?;
        }
        Some(Store::Inline { len: terms.len() as u8, vars, coeffs })
    }
}

/// The inline code of `v`, if it has one.
fn code(v: AVar) -> Option<u8> {
    match v {
        AVar::Loop(id) => u8::try_from(id).ok().filter(|&code| code < RID_CODE),
        AVar::Rid => Some(RID_CODE),
        AVar::Cid => Some(CID_CODE),
    }
}

fn decode(code: u8) -> AVar {
    match code {
        RID_CODE => AVar::Rid,
        CID_CODE => AVar::Cid,
        id => AVar::Loop(usize::from(id)),
    }
}

/// Terms under construction: on the stack when at most `STACK` can arise,
/// else on the heap, where the spilled result takes the buffer over.
enum Buf {
    Stack([(AVar, i64); STACK], usize),
    Heap(Vec<(AVar, i64)>),
}

const STACK: usize = 8;

impl Buf {
    fn with_capacity(n: usize) -> Buf {
        if n <= STACK {
            Buf::Stack([(AVar::Rid, 0); STACK], 0)
        } else {
            Buf::Heap(Vec::with_capacity(n))
        }
    }

    fn push(&mut self, t: (AVar, i64)) {
        match self {
            Buf::Stack(buf, len) => {
                buf[*len] = t;
                *len += 1;
            }
            Buf::Heap(buf) => buf.push(t),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(AVar, i64)] {
        match self {
            Buf::Stack(buf, len) => &mut buf[..*len],
            Buf::Heap(buf) => buf,
        }
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Buf::Stack(_, len) => *len = n,
            Buf::Heap(buf) => buf.truncate(n),
        }
    }

    /// The expression of these canonical terms plus `constant`.
    fn finish(self, constant: i64) -> AffineExpr {
        let terms = match self {
            Buf::Stack(buf, len) => {
                let terms = &buf[..len];
                Store::inline(terms).unwrap_or_else(|| Store::Spilled(terms.into()))
            }
            Buf::Heap(buf) => {
                Store::inline(&buf).unwrap_or_else(|| Store::Spilled(buf.into_boxed_slice()))
            }
        };
        AffineExpr { terms, constant }
    }
}

/// The terms of an [`AffineExpr`], in variable order.
#[derive(Clone)]
pub struct Terms<'a>(TermIter<'a>);

#[derive(Clone)]
enum TermIter<'a> {
    Inline(std::iter::Zip<std::slice::Iter<'a, u8>, std::slice::Iter<'a, i32>>),
    Spilled(std::slice::Iter<'a, (AVar, i64)>),
}

impl Iterator for Terms<'_> {
    type Item = (AVar, i64);

    fn next(&mut self) -> Option<(AVar, i64)> {
        match &mut self.0 {
            TermIter::Inline(it) => it.next().map(|(&code, &c)| (decode(code), i64::from(c))),
            TermIter::Spilled(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            TermIter::Inline(it) => it.size_hint(),
            TermIter::Spilled(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Terms<'_> {}

impl fmt::Debug for Terms<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn konst(c: i64) -> Self {
        AffineExpr { terms: Store::EMPTY, constant: c }
    }

    /// The expression `0`.
    pub fn zero() -> Self {
        Self::konst(0)
    }

    /// The single-variable expression `v`.
    pub fn var(v: AVar) -> Self {
        Self::from_terms([(v, 1)], 0)
    }

    /// The loop-variable expression `varᵢ`.
    pub fn loop_var(v: VarId) -> Self {
        Self::var(AVar::Loop(v))
    }

    /// `Σ coeff·var + constant` over `terms` in any order, repeats summed —
    /// built in one place, where a chain of [`AffineExpr::add_term`] builds
    /// an expression at every step.
    pub fn from_terms<I>(terms: I, constant: i64) -> Self
    where
        I: IntoIterator<Item = (AVar, i64)>,
        I::IntoIter: Clone,
    {
        let terms = terms.into_iter().filter(|&(_, c)| c != 0);
        let mut buf = Buf::with_capacity(terms.clone().count());
        terms.for_each(|t| buf.push(t));
        let s = buf.as_mut_slice();
        s.sort_unstable_by_key(|&(v, _)| v);
        // Fold each run of one variable into its first term, then drop the
        // runs that summed to zero.
        let mut runs = usize::from(!s.is_empty());
        for i in 1..s.len() {
            if s[runs - 1].0 == s[i].0 {
                s[runs - 1].1 += s[i].1;
            } else {
                s[runs] = s[i];
                runs += 1;
            }
        }
        let mut kept = 0;
        for i in 0..runs {
            if s[i].1 != 0 {
                s[kept] = s[i];
                kept += 1;
            }
        }
        buf.truncate(kept);
        buf.finish(constant)
    }

    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// The terms `(var, coeff)`, sorted by variable, none with a zero
    /// coefficient.
    pub fn terms(&self) -> Terms<'_> {
        Terms(match &self.terms {
            Store::Inline { len, vars, coeffs } => {
                let len = usize::from(*len);
                TermIter::Inline(vars[..len].iter().zip(&coeffs[..len]))
            }
            Store::Spilled(terms) => TermIter::Spilled(terms.iter()),
        })
    }

    /// Coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: AVar) -> i64 {
        match &self.terms {
            Store::Inline { len, vars, coeffs } => {
                let Some(code) = code(v) else { return 0 };
                let at = vars[..usize::from(*len)].iter().position(|&x| x == code);
                at.map_or(0, |i| i64::from(coeffs[i]))
            }
            Store::Spilled(terms) => terms.iter().find(|t| t.0 == v).map_or(0, |t| t.1),
        }
    }

    /// `self + other`: a merge of the two sorted term lists.
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        merge(self.terms(), other.terms(), self.constant + other.constant)
    }

    /// `self + c`.
    pub fn add_const(&self, c: i64) -> AffineExpr {
        AffineExpr { terms: self.terms.clone(), constant: self.constant + c }
    }

    /// `self + coeff·v`.
    pub fn add_term(&self, v: AVar, coeff: i64) -> AffineExpr {
        if coeff == 0 {
            return self.clone();
        }
        merge(self.terms(), [(v, coeff)].into_iter(), self.constant)
    }

    /// `self · c`.
    pub fn scale(&self, c: i64) -> AffineExpr {
        if c == 0 {
            return AffineExpr::zero();
        }
        let mut buf = Buf::with_capacity(self.terms().len());
        self.terms().for_each(|(v, k)| buf.push((v, k * c)));
        buf.finish(self.constant * c)
    }

    /// Substitute loop variable `var` by expression `by` (affine closure).
    pub fn subst(&self, var: VarId, by: &AffineExpr) -> AffineExpr {
        let coeff = self.coeff(AVar::Loop(var));
        if coeff == 0 {
            return self.clone();
        }
        let rest = self.terms().filter(|&(v, _)| v != AVar::Loop(var));
        let scaled = by.terms().map(|(v, c)| (v, c * coeff));
        AffineExpr::from_terms(rest.chain(scaled), self.constant + coeff * by.constant)
    }

    /// Substitute a constant for each `(var, value)` of `values`: what a
    /// chain of [`AffineExpr::subst`] by constants gives, built once.
    pub fn subst_consts(&self, values: &[(VarId, i64)]) -> AffineExpr {
        let value = |v: AVar| match v {
            AVar::Loop(i) => values.iter().find(|&&(x, _)| x == i).map(|&(_, k)| k),
            AVar::Rid | AVar::Cid => None,
        };
        let constant =
            self.terms().fold(self.constant, |acc, (v, c)| acc + value(v).map_or(0, |k| c * k));
        let rest = self.terms().filter(|&(v, _)| value(v).is_none());
        AffineExpr::from_terms(rest, constant)
    }

    /// Evaluate under an environment plus mesh coordinates.
    pub fn eval(&self, env: &Env, rid: i64, cid: i64) -> i64 {
        let value = |v: AVar| match v {
            AVar::Loop(i) => env.get(i),
            AVar::Rid => rid,
            AVar::Cid => cid,
        };
        // One match on the form, not one per term.
        match &self.terms {
            Store::Inline { len, vars, coeffs } => {
                let terms = vars[..usize::from(*len)].iter().zip(coeffs);
                terms.fold(self.constant, |acc, (&v, &c)| acc + i64::from(c) * value(decode(v)))
            }
            Store::Spilled(terms) => {
                terms.iter().fold(self.constant, |acc, &(v, c)| acc + c * value(v))
            }
        }
    }

    /// Does the expression reference loop variable `v`?
    pub fn depends_on(&self, v: VarId) -> bool {
        self.coeff(AVar::Loop(v)) != 0
    }

    /// Does the expression reference `rid` or `cid`?
    pub fn uses_mesh(&self) -> bool {
        self.coeff(AVar::Rid) != 0 || self.coeff(AVar::Cid) != 0
    }
}

/// The sum of two sorted term lists plus `constant`.
fn merge(
    a: impl ExactSizeIterator<Item = (AVar, i64)>,
    b: impl ExactSizeIterator<Item = (AVar, i64)>,
    constant: i64,
) -> AffineExpr {
    let mut buf = Buf::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let (v, c) = match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => match x.0.cmp(&y.0) {
                Ordering::Less => a.next().expect("peeked"),
                Ordering::Greater => b.next().expect("peeked"),
                Ordering::Equal => {
                    a.next();
                    b.next();
                    (x.0, x.1 + y.1)
                }
            },
            (Some(_), None) => a.next().expect("peeked"),
            (None, Some(_)) => b.next().expect("peeked"),
            (None, None) => break,
        };
        if c != 0 {
            buf.push((v, c));
        }
    }
    buf.finish(constant)
}

impl Default for AffineExpr {
    fn default() -> Self {
        AffineExpr::zero()
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AffineExpr")
            .field("terms", &self.terms())
            .field("constant", &self.constant)
            .finish()
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
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
    }

    #[test]
    fn add_cancels_terms() {
        let a = AffineExpr::loop_var(0).scale(3);
        let b = AffineExpr::loop_var(0).scale(-3).add_const(1);
        let s = a.add(&b);
        assert_eq!(s.terms().len(), 0);
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
            s.terms().collect::<Vec<_>>(),
            [(AVar::Loop(0), 1), (AVar::Loop(1), 4), (AVar::Rid, 7), (AVar::Cid, 2)]
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
            // At most four small terms: held inline, nothing allocated.
            assert!(matches!(built.terms, Store::Inline { .. }), "{built:?}");
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
        assert_eq!(chain.terms().collect::<Vec<_>>(), [(AVar::Loop(1), 3), (AVar::Rid, 5)]);
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
