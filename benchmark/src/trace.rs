//! In-memory spans recorded around the calls into each layer.
//!
//! A span is named `<layer>.<what>`; its layer is the module it calls into.
//! Work done once per schedule point (tens of thousands of sub-millisecond
//! slices per op) is recorded as one *aggregate* span per op: `busy_s` is
//! the sum of the slices, `count` their number, `start_s..end_s` the first
//! and last slice. For a plain span `busy_s == end_s - start_s`. A span's
//! self time is its busy time minus its children's busy time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sw26010::json::{escape_json, fmt_f64};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Canonical index of the op this span belongs to (the shared
    /// identifier of one "request").
    pub op: Option<usize>,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    pub busy_s: f64,
    pub count: u64,
}

/// Accumulator for one aggregate span: time its slices with [`Slices::time`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Slices {
    first: Option<Instant>,
    last: Option<Instant>,
    busy: Duration,
    count: u64,
}

impl Slices {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let end = Instant::now();
        self.first.get_or_insert(t);
        self.last = Some(end);
        self.busy += end - t;
        self.count += 1;
        r
    }

    pub fn busy_s(&self) -> f64 {
        self.busy.as_secs_f64()
    }

    pub fn count(&self) -> u64 {
        self.count
    }
}

pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace { t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span that is a child of the innermost open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: Option<usize>,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> R {
        let start_s = self.now_s();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
            busy_s: 0.0,
            count: 1,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_s = self.now_s();
        self.spans[id].end_s = end_s;
        self.spans[id].busy_s = end_s - start_s;
        r
    }

    /// Record an aggregate span as a child of the innermost open span.
    /// Nothing is recorded when no slice was timed.
    pub fn aggregate(&mut self, name: &'static str, op: Option<usize>, s: &Slices) {
        let (Some(first), Some(last)) = (s.first, s.last) else {
            return;
        };
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_s: (first - self.t0).as_secs_f64(),
            end_s: (last - self.t0).as_secs_f64(),
            busy_s: s.busy_s(),
            count: s.count,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time of every span named `name`, summed.
    pub fn busy(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |sum, s| sum + s.busy_s)
    }

    /// Self time of every span named `name`, summed.
    pub fn self_time(&self, name: &str) -> f64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |sum, (_, t)| sum + t)
    }

    /// Self time per layer (the part of the span name before the dot).
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(layer_of(s.name)).or_insert(0.0) += t;
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_s\":{},\"end_s\":{},\"busy_s\":{},\"count\":{}}}",
                escape_json(s.name),
                opt(s.op),
                opt(s.parent),
                fmt_f64(s.start_s),
                fmt_f64(s.end_s),
                fmt_f64(s.busy_s),
                s.count
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of each span: busy time minus the busy time of its direct
/// children, floored at 0 (timer granularity can make the children of an
/// aggregate sum a hair past their parent).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut selfs: Vec<f64> = spans.iter().map(|s| s.busy_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] -= s.busy_s;
        }
    }
    selfs.into_iter().map(|t| t.max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, busy_s: f64) -> Span {
        Span { name, op: Some(0), parent, start_s: 0.0, end_s: busy_s, busy_s, count: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // pass(10) > op(9) > { enumerate(5) > { lower(2), plan(1) }, tune(3) }
        let spans = vec![
            span("harness.pass", None, 10.0),
            span("harness.op", Some(0), 9.0),
            span("scheduler.enumerate", Some(1), 5.0),
            span("ops.lower", Some(2), 2.0),
            span("codegen.plan", Some(2), 1.0),
            span("tuner.tune", Some(1), 3.0),
        ];
        assert_eq!(self_times(&spans), vec![1.0, 1.0, 2.0, 2.0, 1.0, 3.0]);
        // Self times partition the root span.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn self_time_never_negative() {
        let spans = vec![span("a.x", None, 1.0), span("b.y", Some(0), 1.0 + 1e-9)];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn recorded_spans_nest_and_aggregate() {
        let mut t = Trace::new();
        t.span("harness.op", Some(3), |t| {
            t.span("scheduler.enumerate", Some(3), |t| {
                let mut s = Slices::default();
                for _ in 0..4 {
                    s.time(|| std::hint::black_box(1 + 1));
                }
                t.aggregate("ops.lower", Some(3), &s);
                t.aggregate("codegen.plan", Some(3), &Slices::default());
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(1)));
        assert_eq!((spans[2].name, spans[2].count), ("ops.lower", 4));
        assert!(spans[0].busy_s >= spans[1].busy_s && spans[1].busy_s >= spans[2].busy_s);
        let layers = t.layer_self_times();
        assert_eq!(layers.keys().copied().collect::<Vec<_>>(), vec!["harness", "ops", "scheduler"]);
        let total: f64 = layers.values().sum();
        assert!((total - spans[0].busy_s).abs() < 1e-9);
    }

    #[test]
    fn json_parses_with_the_repo_parser() {
        let mut t = Trace::new();
        t.span("harness.pass", None, |t| t.span("tuner.tune", Some(1), |_| ()));
        let doc = sw26010::json::parse(&t.to_json()).expect("trace json parses");
        let spans = doc.field("spans").and_then(|s| s.as_arr("spans")).expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].field("name").and_then(|n| n.as_str("name")), Ok("tuner.tune"));
        assert_eq!(spans[1].field("parent").and_then(|n| n.as_u64("parent")), Ok(0));
        assert_eq!(spans[0].get("parent"), Some(&sw26010::json::Json::Null));
    }
}
