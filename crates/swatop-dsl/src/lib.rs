//! # swatop-dsl — describing schedule spaces
//!
//! The paper's DSL (Sec. 4.2, Fig. 4) is embedded in C++; here it is
//! embedded in Rust. What an operator computes is its lowering and golden
//! reference (the `swatop` crate's `Operator`); the DSL describes the
//! **schedule space** — *how* it may be computed: `FactorVar`s for loop
//! splits (swATOP "automatically traverses all valid candidates of the
//! factor"), explicit reorder candidates ("since there are extremely
//! numerous permutations of a set, reorder requires explicit candidates"),
//! layout choices and vectorization choices.
//!
//! A [`SchedulePoint`] is one concrete assignment of every knob; the
//! scheduler in the `swatop` crate enumerates all points, filters invalid
//! ones (SPM capacity, divisibility, vector-width constraints) and lowers
//! each survivor to IR.
//!
//! ```
//! use swatop_dsl::{factors_of, ScheduleSpace};
//!
//! // Split factors, a reorder choice, a vectorization choice — the Fig. 4
//! // vocabulary.
//! let mut space = ScheduleSpace::new();
//! space.factor("t_no", factors_of(64));
//! space.factor("t_co", factors_of(32));
//! space.choice("order", vec!["ro_co_kr_kc".into(), "kr_kc_ro_co".into()]);
//! space.toggle("vec_m");
//! assert_eq!(space.size(), 7 * 6 * 2 * 2);
//! let last = space.point(space.size() - 1);
//! assert_eq!(last.factor(&space, "t_no"), 64);
//! assert_eq!(last.choice(&space, "order"), "kr_kc_ro_co");
//! ```

pub mod space;

pub use space::{factors_of, Knob, SchedulePoint, ScheduleSpace};
