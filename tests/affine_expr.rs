//! `AffineExpr` against a reference model: a plain sorted `Vec` of terms
//! and a constant, each operation written the obvious way.
//!
//! The expression keeps up to four terms inline and spills to the heap past
//! that, or when a loop id is 254 or more, or when a coefficient leaves
//! `i32` (DESIGN.md §18). The inputs cross every one of those lines — 0–8
//! terms, loop ids up to 300, coefficients past ±2³¹ — so both forms, and
//! arithmetic that moves a value from one form to the other, answer every
//! operation as the model does. Equality and hashing are derived, so they
//! follow the value only because the form is canonical: a value built two
//! ways must compare and hash equal.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use swatop_ir::{AVar, AffineExpr, Env, VarId};

/// Loop ids the environment covers: every id the strategies draw.
const N_VARS: usize = 301;

/// The reference: sorted by variable, repeats summed, no zero coefficient.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    terms: Vec<(AVar, i64)>,
    constant: i64,
}

impl Model {
    fn new(terms: impl IntoIterator<Item = (AVar, i64)>, constant: i64) -> Model {
        let mut out: Vec<(AVar, i64)> = Vec::new();
        for (v, c) in terms {
            match out.iter_mut().find(|t| t.0 == v) {
                Some(t) => t.1 += c,
                None => out.push((v, c)),
            }
        }
        out.retain(|t| t.1 != 0);
        out.sort();
        Model { terms: out, constant }
    }

    fn coeff(&self, v: AVar) -> i64 {
        self.terms.iter().find(|t| t.0 == v).map_or(0, |t| t.1)
    }

    fn add(&self, other: &Model) -> Model {
        Model::new(self.terms.iter().chain(&other.terms).copied(), self.constant + other.constant)
    }

    fn scale(&self, k: i64) -> Model {
        Model::new(self.terms.iter().map(|&(v, c)| (v, c * k)), self.constant * k)
    }

    fn subst(&self, var: VarId, by: &Model) -> Model {
        let k = self.coeff(AVar::Loop(var));
        let rest = self.terms.iter().copied().filter(|&(v, _)| v != AVar::Loop(var));
        let scaled = by.terms.iter().map(|&(v, c)| (v, c * k));
        Model::new(rest.chain(scaled), self.constant + k * by.constant)
    }

    fn subst_consts(&self, values: &[(VarId, i64)]) -> Model {
        let mut constant = self.constant;
        let mut rest = Vec::new();
        for &(v, c) in &self.terms {
            let value = match v {
                AVar::Loop(i) => values.iter().find(|x| x.0 == i).map(|x| x.1),
                AVar::Rid | AVar::Cid => None,
            };
            match value {
                Some(k) => constant += c * k,
                None => rest.push((v, c)),
            }
        }
        Model::new(rest, constant)
    }

    fn eval(&self, env: &Env, rid: i64, cid: i64) -> i64 {
        let value = |v: AVar| match v {
            AVar::Loop(i) => env.get(i),
            AVar::Rid => rid,
            AVar::Cid => cid,
        };
        self.terms.iter().map(|&(v, c)| c * value(v)).sum::<i64>() + self.constant
    }

    fn display(&self) -> String {
        let mut parts: Vec<String> = self
            .terms
            .iter()
            .map(|&(v, c)| {
                let name = match v {
                    AVar::Loop(i) => format!("v{i}"),
                    AVar::Rid => "rid".to_string(),
                    AVar::Cid => "cid".to_string(),
                };
                if c == 1 {
                    name
                } else {
                    format!("{c}*{name}")
                }
            })
            .collect();
        if self.constant != 0 || parts.is_empty() {
            parts.push(self.constant.to_string());
        }
        parts.join(" + ")
    }
}

fn hash_of(e: &AffineExpr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// Every observation the expression offers, against the model's.
fn agree(e: &AffineExpr, m: &Model, env: &Env) -> Result<(), TestCaseError> {
    prop_assert_eq!(e.terms().collect::<Vec<_>>(), m.terms.clone());
    prop_assert_eq!(e.terms().len(), m.terms.len());
    prop_assert_eq!(e.constant(), m.constant);
    for v in [AVar::Loop(0), AVar::Loop(3), AVar::Loop(253), AVar::Loop(254), AVar::Loop(300)]
        .into_iter()
        .chain([AVar::Rid, AVar::Cid])
        .chain(m.terms.iter().map(|t| t.0))
    {
        prop_assert_eq!(e.coeff(v), m.coeff(v), "coeff({:?})", v);
        if let AVar::Loop(i) = v {
            prop_assert_eq!(e.depends_on(i), m.coeff(v) != 0);
        }
    }
    prop_assert_eq!(e.uses_mesh(), m.coeff(AVar::Rid) != 0 || m.coeff(AVar::Cid) != 0);
    prop_assert_eq!(e.eval(env, 3, -5), m.eval(env, 3, -5));
    prop_assert_eq!(e.to_string(), m.display());
    // Canonical: the value built term by term is the same expression.
    let chain = m.terms.iter().fold(AffineExpr::konst(m.constant), |e, &(v, c)| e.add_term(v, c));
    prop_assert_eq!(&chain, e);
    prop_assert_eq!(hash_of(&chain), hash_of(e));
    Ok(())
}

fn arb_var() -> impl Strategy<Value = AVar> {
    prop_oneof![
        (0usize..6).prop_map(AVar::Loop),
        (250usize..N_VARS).prop_map(AVar::Loop),
        Just(AVar::Rid),
        Just(AVar::Cid),
    ]
}

/// Small coefficients (zeros, cancellations) and some past `i32`.
fn arb_coeff() -> impl Strategy<Value = i64> {
    const I32: i64 = 1 << 31;
    prop_oneof![
        -3i64..4,
        -20i64..21,
        I32 - 4..I32 + 3,
        -I32 - 3..-I32 + 4,
        -(1i64 << 34)..(1i64 << 34),
    ]
}

fn arb_terms() -> impl Strategy<Value = Vec<(AVar, i64)>> {
    proptest::collection::vec((arb_var(), arb_coeff()), 0..9)
}

/// Terms a substituted expression may bring: small enough that scaling
/// them by a coefficient past `i32` stays inside `i64`.
fn arb_small_terms() -> impl Strategy<Value = Vec<(AVar, i64)>> {
    proptest::collection::vec((arb_var(), -20i64..21), 0..9)
}

fn env(seed: i64) -> Env {
    let mut env = Env::new(N_VARS);
    for i in 0..N_VARS {
        env.set(i, (i as i64 * 37 + seed).rem_euclid(101) - 50);
    }
    env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `from_terms` over any order and repeats, the `add_term` chain and
    /// the one-term constructors all give the model's expression.
    #[test]
    fn construction_matches_the_model(
        terms in arb_terms(), constant in -1_000i64..1_000, seed in 0i64..101, v in arb_var(),
    ) {
        let env = env(seed);
        let m = Model::new(terms.iter().copied(), constant);
        agree(&AffineExpr::from_terms(terms.iter().copied(), constant), &m, &env)?;
        let chain = terms.iter().fold(AffineExpr::konst(constant), |e, &(v, c)| e.add_term(v, c));
        agree(&chain, &m, &env)?;
        agree(&AffineExpr::var(v), &Model::new([(v, 1)], 0), &env)?;
        if let AVar::Loop(i) = v {
            agree(&AffineExpr::loop_var(i), &Model::new([(v, 1)], 0), &env)?;
        }
        agree(&AffineExpr::konst(constant), &Model::new([], constant), &env)?;
        agree(&AffineExpr::zero(), &Model::new([], 0), &env)?;
        agree(&AffineExpr::default(), &Model::new([], 0), &env)?;
    }

    /// Every arithmetic operation gives the model's result, whichever form
    /// its operands and its result take.
    #[test]
    fn arithmetic_matches_the_model(
        a in arb_terms(), b in arb_terms(), by in arb_small_terms(),
        ks in (-1_000i64..1_000, -1_000i64..1_000, -1_000i64..1_000),
        term in (arb_var(), arb_coeff()),
        var in prop_oneof![0usize..6, 250usize..N_VARS],
        values in proptest::collection::vec((prop_oneof![0usize..6, 250usize..N_VARS], -50i64..50), 0..5),
        seed in 0i64..101,
    ) {
        let (env, (ka, kb, k), (v, c)) = (env(seed), ks, term);
        let (ma, mb, mby) = (Model::new(a.clone(), ka), Model::new(b.clone(), kb), Model::new(by.clone(), k));
        let (ea, eb, eby) =
            (AffineExpr::from_terms(a, ka), AffineExpr::from_terms(b, kb), AffineExpr::from_terms(by, k));
        agree(&ea.add(&eb), &ma.add(&mb), &env)?;
        agree(&ea.add_const(k), &Model::new(ma.terms.clone(), ka + k), &env)?;
        agree(&ea.add_term(v, c), &ma.add(&Model::new([(v, c)], 0)), &env)?;
        agree(&ea.scale(k), &ma.scale(k), &env)?;
        agree(&ea.scale(0), &Model::new([], 0), &env)?;
        agree(&ea.subst(var, &eby), &ma.subst(var, &mby), &env)?;
        // A variable `a` reads, when it reads one: a substitution that acts.
        let read = ma.terms.iter().find_map(|t| match t.0 {
            AVar::Loop(i) => Some(i),
            AVar::Rid | AVar::Cid => None,
        });
        let read = read.unwrap_or(var);
        agree(&ea.subst(read, &eby), &ma.subst(read, &mby), &env)?;
        agree(&ea.subst_consts(&values), &ma.subst_consts(&values), &env)?;
    }

    /// Equality and the hash follow the value: a value reached two ways is
    /// one expression; two values the model tells apart differ.
    #[test]
    fn equality_and_hash_follow_the_value(
        a in arb_terms(), b in arb_terms(), ka in -3i64..3, kb in -3i64..3,
        v in arb_var(), c in arb_coeff(),
    ) {
        let (ma, mb) = (Model::new(a.clone(), ka), Model::new(b.clone(), kb));
        let mut reversed = a.clone();
        reversed.reverse();
        let (ea, eb) = (AffineExpr::from_terms(a, ka), AffineExpr::from_terms(b, kb));
        prop_assert_eq!(ea == eb, ma == mb);
        if ea == eb {
            prop_assert_eq!(hash_of(&ea), hash_of(&eb));
        }
        let same = [
            AffineExpr::from_terms(reversed, ka),
            ea.add_term(v, c).add_term(v, -c),
            ea.add(&eb).add(&eb.scale(-1)),
            ea.scale(-1).scale(-1),
        ];
        for e in &same {
            prop_assert_eq!(e, &ea);
            prop_assert_eq!(hash_of(e), hash_of(&ea));
        }
    }
}
