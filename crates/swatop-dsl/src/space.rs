//! Schedule spaces: the optimisation half of the DSL.
//!
//! A space is an ordered list of knobs; its points are the Cartesian
//! product of the knob candidate lists. The scheduler enumerates points in
//! a stable order, so a point's `index` is a reproducible identifier for a
//! schedule strategy.

/// One degree of freedom of the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Knob {
    /// A split factor (`FactorVar` in the paper): the candidates are the
    /// admissible factors.
    Factor { name: String, candidates: Vec<usize> },
    /// A named enumeration (reorder candidates, layout candidates…).
    Choice { name: String, candidates: Vec<String> },
    /// A boolean (e.g. "vectorise along M?").
    Toggle { name: String },
}

impl Knob {
    pub fn name(&self) -> &str {
        match self {
            Knob::Factor { name, .. } | Knob::Choice { name, .. } | Knob::Toggle { name } => name,
        }
    }

    pub fn arity(&self) -> usize {
        match self {
            Knob::Factor { candidates, .. } => candidates.len(),
            Knob::Choice { candidates, .. } => candidates.len(),
            Knob::Toggle { .. } => 2,
        }
    }
}

/// The schedule space: all valid combinations of knob values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleSpace {
    knobs: Vec<Knob>,
}

impl ScheduleSpace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a split-factor knob.
    pub fn factor(&mut self, name: impl Into<String>, candidates: Vec<usize>) -> &mut Self {
        assert!(!candidates.is_empty(), "factor knob needs candidates");
        self.knobs.push(Knob::Factor { name: name.into(), candidates });
        self
    }

    /// Add an enumerated-choice knob.
    pub fn choice(&mut self, name: impl Into<String>, candidates: Vec<String>) -> &mut Self {
        assert!(!candidates.is_empty(), "choice knob needs candidates");
        self.knobs.push(Knob::Choice { name: name.into(), candidates });
        self
    }

    /// Add a boolean knob.
    pub fn toggle(&mut self, name: impl Into<String>) -> &mut Self {
        self.knobs.push(Knob::Toggle { name: name.into() });
        self
    }

    pub fn knobs(&self) -> &[Knob] {
        &self.knobs
    }

    /// Number of points (Cartesian product of arities).
    pub fn size(&self) -> usize {
        self.knobs.iter().map(Knob::arity).product()
    }

    /// The point with the given linear index (row-major over knob order).
    pub fn point(&self, mut index: usize) -> SchedulePoint {
        assert!(index < self.size(), "point index out of range");
        let mut sel = vec![0usize; self.knobs.len()];
        for (i, k) in self.knobs.iter().enumerate().rev() {
            let a = k.arity();
            sel[i] = index % a;
            index /= a;
        }
        SchedulePoint { sel }
    }

    /// Iterate all points in index order.
    pub fn points(&self) -> impl Iterator<Item = SchedulePoint> + '_ {
        (0..self.size()).map(|i| self.point(i))
    }

    /// Whether a knob with this name exists — lowering code shared between
    /// operators probes optional knobs with this before reading them.
    pub fn has_knob(&self, name: &str) -> bool {
        self.knobs.iter().any(|k| k.name() == name)
    }

    fn knob_index(&self, name: &str) -> usize {
        self.knobs
            .iter()
            .position(|k| k.name() == name)
            .unwrap_or_else(|| panic!("unknown knob '{name}'"))
    }
}

/// A concrete assignment of every knob of a space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedulePoint {
    sel: Vec<usize>,
}

impl SchedulePoint {
    /// The chosen factor value of a `Factor` knob.
    pub fn factor(&self, space: &ScheduleSpace, name: &str) -> usize {
        let i = space.knob_index(name);
        match &space.knobs[i] {
            Knob::Factor { candidates, .. } => candidates[self.sel[i]],
            other => panic!("knob '{name}' is not a factor ({other:?})"),
        }
    }

    /// The chosen string of a `Choice` knob.
    pub fn choice<'s>(&self, space: &'s ScheduleSpace, name: &str) -> &'s str {
        let i = space.knob_index(name);
        match &space.knobs[i] {
            Knob::Choice { candidates, .. } => &candidates[self.sel[i]],
            other => panic!("knob '{name}' is not a choice ({other:?})"),
        }
    }

    /// The chosen boolean of a `Toggle` knob.
    pub fn toggle(&self, space: &ScheduleSpace, name: &str) -> bool {
        let i = space.knob_index(name);
        match &space.knobs[i] {
            Knob::Toggle { .. } => self.sel[i] == 1,
            other => panic!("knob '{name}' is not a toggle ({other:?})"),
        }
    }

    /// Linear index of this point in its space.
    pub fn index(&self, space: &ScheduleSpace) -> usize {
        let mut idx = 0;
        for (i, k) in space.knobs.iter().enumerate() {
            idx = idx * k.arity() + self.sel[i];
        }
        idx
    }

    /// The per-knob candidate indices, in knob order.
    pub fn sel(&self) -> &[usize] {
        &self.sel
    }

    /// The point of `space` with the given per-knob candidate indices (the
    /// inverse of [`SchedulePoint::sel`]).
    pub fn from_sel(space: &ScheduleSpace, sel: Vec<usize>) -> SchedulePoint {
        assert_eq!(sel.len(), space.knobs.len(), "selection length != knob count");
        for (k, &s) in space.knobs.iter().zip(&sel) {
            assert!(s < k.arity(), "selection {s} out of range for knob '{}'", k.name());
        }
        SchedulePoint { sel }
    }

    /// Human-readable description against its space.
    pub fn describe(&self, space: &ScheduleSpace) -> String {
        use std::fmt::Write;
        // `name=value, ` per knob; 8 covers the value of every knob in the
        // operator library, so the common case never regrows.
        let cap: usize = space.knobs.iter().map(|k| k.name().len() + 8).sum();
        let mut out = String::with_capacity(cap);
        for (i, k) in space.knobs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(k.name());
            out.push('=');
            match k {
                Knob::Factor { candidates, .. } => {
                    write!(out, "{}", candidates[self.sel[i]]).expect("write to String")
                }
                Knob::Choice { candidates, .. } => out.push_str(&candidates[self.sel[i]]),
                Knob::Toggle { .. } => {
                    out.push_str(if self.sel[i] == 1 { "true" } else { "false" })
                }
            }
        }
        out
    }
}

/// All divisors of `n`, ascending (`FactorVar` default candidate set).
pub fn factors_of(n: usize) -> Vec<usize> {
    let mut f: Vec<usize> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
    f.sort_unstable();
    f
}

/// Divisors of `n` that are themselves multiples of `m` (e.g. tile sizes
/// that keep a dimension mesh- and vector-aligned).
pub fn factors_of_min(n: usize, m: usize) -> Vec<usize> {
    factors_of(n).into_iter().filter(|d| d % m == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_space() -> ScheduleSpace {
        let mut s = ScheduleSpace::new();
        s.factor("t", vec![1, 2, 4]);
        s.choice("ord", vec!["ab".into(), "ba".into()]);
        s.toggle("vec_m");
        s
    }

    #[test]
    fn size_is_product() {
        assert_eq!(demo_space().size(), 3 * 2 * 2);
    }

    #[test]
    fn point_roundtrip_through_index() {
        let s = demo_space();
        for i in 0..s.size() {
            let p = s.point(i);
            assert_eq!(p.index(&s), i);
        }
    }

    #[test]
    fn point_roundtrip_through_sel() {
        let s = demo_space();
        for p in s.points() {
            assert_eq!(SchedulePoint::from_sel(&s, p.sel().to_vec()), p);
        }
        assert_eq!(s.point(7).sel(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_sel_rejects_out_of_range() {
        let s = demo_space();
        SchedulePoint::from_sel(&s, vec![3, 0, 0]);
    }

    #[test]
    fn describe_format_is_stable() {
        let s = demo_space();
        assert_eq!(s.point(0).describe(&s), "t=1, ord=ab, vec_m=false");
        assert_eq!(s.point(s.size() - 1).describe(&s), "t=4, ord=ba, vec_m=true");
        let empty = ScheduleSpace::new();
        assert_eq!(empty.point(0).describe(&empty), "");
    }

    #[test]
    fn points_enumerate_all_combinations() {
        let s = demo_space();
        let mut seen = std::collections::HashSet::new();
        for p in s.points() {
            let key = (p.factor(&s, "t"), p.choice(&s, "ord").to_string(), p.toggle(&s, "vec_m"));
            assert!(seen.insert(key), "duplicate point");
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn accessors_typed() {
        let s = demo_space();
        let p = s.point(s.size() - 1);
        assert_eq!(p.factor(&s, "t"), 4);
        assert_eq!(p.choice(&s, "ord"), "ba");
        assert!(p.toggle(&s, "vec_m"));
        let d = p.describe(&s);
        assert!(d.contains("t=4") && d.contains("ord=ba") && d.contains("vec_m=true"));
    }

    #[test]
    #[should_panic(expected = "unknown knob")]
    fn unknown_knob_panics() {
        let s = demo_space();
        s.point(0).factor(&s, "nope");
    }

    #[test]
    fn factor_helpers() {
        assert_eq!(factors_of(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(factors_of_min(64, 32), vec![32, 64]);
        assert_eq!(factors_of(1), vec![1]);
        assert!(factors_of_min(12, 5).is_empty());
    }
}
