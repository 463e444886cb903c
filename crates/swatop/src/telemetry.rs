//! Tuning telemetry: spans, machine counters and model-accuracy tracking.
//!
//! The tuners are observable through three coordinated instruments:
//!
//! 1. **Spans** — a lightweight hierarchical recorder (sweep → operator →
//!    candidate → attempt). Every span carries wall-clock timing, an
//!    optional worker *track*, the simulated cycle count and the aggregated
//!    [`Counters`] of the execution it covers. Spans export as the tuner
//!    process of the trace document
//!    ([`profiler::trace_json`](crate::profiler::trace_json)) with one
//!    timeline track per tuner worker.
//! 2. **Machine counters** — each candidate span absorbs the
//!    [`sw26010::Counters`] block its cost-only machine accumulated (DMA
//!    payload/bus traffic, stall cycles, pipeline issue slots, SPM
//!    high-water mark), turning "why is this variant slow" into a readable
//!    roofline-style breakdown.
//! 3. **Model accuracy** — a candidate span that carries both a prediction
//!    and measured cycles *is* a (predicted, measured) pair; per-operator
//!    MAPE and Spearman rank correlation summarize them (a live Fig. 9), and
//!    candidates the model misranks beyond a threshold are flagged.
//!
//! Every number a report shows after a run — per-operator candidates with
//! their roofline [`Attribution`], merged counters and [`Accuracy`], run
//! totals, [`TierCounts`], [`BottleneckMix`], quarantines — comes from one
//! fold over the spans, [`Telemetry::summary`]; the exporters, tables,
//! corpus and journal read the [`Summary`] and derive nothing themselves.
//!
//! The layer is **zero-cost when disabled**: the tuners take
//! `Option<&Telemetry>` and the `None` path performs no allocation, no
//! locking and no arithmetic beyond the unconditional counter adds already
//! inside the machine model — tuning results are bit-identical either way.
//! A [`Telemetry`] handle is cheap to clone (an `Arc` plus two small
//! `Option`s) and thread-safe; worker threads append spans concurrently
//! under a mutex that is only touched at candidate granularity, never
//! inside the simulated execution.
//!
//! Exports are built on [`sw26010::json`], like every other artifact of the
//! workspace: one writer places the commas, escapes the strings and renders
//! floats as plain decimals (`null` when absent or non-finite); tests read
//! the documents back with [`sw26010::json::parse`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard};
use sw26010::json::{Value, Writer};
use sw26010::Counters;

use crate::observatory::{self, Attribution, BottleneckMix, Peaks};

pub mod bus;
pub mod metrics;

/// Identifier of a recorded span (index into the span table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub usize);

/// Hierarchy level of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A whole multi-operator sweep (e.g. every layer of a network).
    Sweep,
    /// Tuning one operator (one candidate space).
    Operator,
    /// Measuring one candidate schedule.
    Candidate,
    /// One execution attempt of a candidate (retries produce several).
    Attempt,
    /// Validating a prospective winner (static legality + differential
    /// functional check); an `error` on the span means it was quarantined.
    Validate,
    /// Tier-0 analytic screening of a whole candidate space (batch cost
    /// ranking, no scoreboard); `samples` carries the number of candidates
    /// screened.
    Screen,
}

impl SpanKind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            SpanKind::Sweep => "sweep",
            SpanKind::Operator => "operator",
            SpanKind::Candidate => "candidate",
            SpanKind::Attempt => "attempt",
            SpanKind::Validate => "validate",
            SpanKind::Screen => "screen",
        }
    }
}

/// One recorded span. Wall-clock fields are microseconds since the
/// recorder's epoch; they vary run to run, while the simulation-derived
/// fields (`cycles`, `predicted`, `counters`, `index`, `retries`,
/// `samples`, `error`) are deterministic for a fixed machine and candidate
/// set, independent of worker count.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub kind: SpanKind,
    pub label: String,
    /// Worker track the span ran on (`None` = orchestrator).
    pub track: Option<usize>,
    pub start_us: u64,
    /// Duration; 0 until the span is closed.
    pub dur_us: u64,
    /// Simulated cycles of the covered execution, if any.
    pub cycles: Option<u64>,
    /// Input index of the candidate this span measures.
    pub index: Option<usize>,
    /// Model-predicted cycles for the candidate, if it was scored.
    pub predicted: Option<f64>,
    /// Transient retries consumed.
    pub retries: u32,
    /// Successful measurement samples taken.
    pub samples: u32,
    /// Terminal error, if the covered work failed.
    pub error: Option<String>,
    /// Machine counters aggregated over the covered execution.
    pub counters: Counters,
}

/// One (predicted, measured) observation: a candidate span that carries
/// both a prediction and measured cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// The span the candidate was recorded under (`None` = root).
    pub scope: Option<SpanId>,
    /// Candidate input index.
    pub index: usize,
    /// Model-predicted cycles.
    pub predicted: f64,
    /// Measured (simulated) cycles.
    pub measured: u64,
}

struct Inner {
    epoch: Instant,
    /// The one store: every span, indexed by [`SpanId`].
    spans: Mutex<Vec<Span>>,
}

/// Handle to a shared telemetry recorder. Cloning is cheap; clones carry a
/// *scope* (the parent span new spans attach to) and a *track* (the worker
/// lane they render on), both adjusted functionally via
/// [`Telemetry::child_of`] / [`Telemetry::on_track`].
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
    parent: Option<SpanId>,
    track: Option<usize>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("parent", &self.parent)
            .field("track", &self.track)
            .field("spans", &self.inner.spans.lock().len())
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }),
            parent: None,
            track: None,
        }
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// A handle whose new spans attach under `id`.
    pub fn child_of(&self, id: SpanId) -> Telemetry {
        Telemetry { inner: Arc::clone(&self.inner), parent: Some(id), track: self.track }
    }

    /// A handle whose new spans render on worker track `w`.
    pub fn on_track(&self, w: usize) -> Telemetry {
        Telemetry { inner: Arc::clone(&self.inner), parent: self.parent, track: Some(w) }
    }

    /// The worker track of this handle, if pinned.
    pub fn track(&self) -> Option<usize> {
        self.track
    }

    /// The parent span new spans of this handle attach to.
    pub fn scope(&self) -> Option<SpanId> {
        self.parent
    }

    /// Open a span under this handle's scope; close it with
    /// [`Telemetry::close`].
    pub fn open(&self, kind: SpanKind, label: impl Into<String>) -> SpanId {
        let start_us = self.now_us();
        let mut spans = self.inner.spans.lock();
        spans.push(Span {
            parent: self.parent,
            kind,
            label: label.into(),
            track: self.track,
            start_us,
            dur_us: 0,
            cycles: None,
            index: None,
            predicted: None,
            retries: 0,
            samples: 0,
            error: None,
            counters: Counters::default(),
        });
        SpanId(spans.len() - 1)
    }

    /// Close a span, fixing its wall-clock duration.
    pub fn close(&self, id: SpanId) {
        let now = self.now_us();
        self.update(id, |s| s.dur_us = now.saturating_sub(s.start_us));
    }

    /// Mutate a recorded span in place (fill cycles, counters, errors…).
    pub fn update(&self, id: SpanId, f: impl FnOnce(&mut Span)) {
        if let Some(s) = self.inner.spans.lock().get_mut(id.0) {
            f(s);
        }
    }

    /// Snapshot of all recorded spans (indexed by [`SpanId`]).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().clone()
    }

    /// Everything the reports show after a run, folded from the spans in the
    /// one pass over the recorder. Candidate spans group under the span they
    /// were recorded under — an operator span, which leads its group even
    /// when it stays empty, or anything else as "(root)" — by candidate
    /// index; a candidate recorded twice keeps its recording order. Each
    /// measured candidate is attributed against `peaks` here and nowhere
    /// else. The summary holds the recorder's lock while it lives — take it
    /// when the tuning is over, and drop it before recording again.
    pub fn summary(&self, peaks: &Peaks) -> Summary<'_> {
        let spans = self.inner.spans.lock();
        let mut attributions: Vec<Option<Attribution>> = vec![None; spans.len()];
        let mut operators: Vec<OperatorSummary> = Vec::new();
        let mut group_of: HashMap<Option<SpanId>, usize> = HashMap::new();
        let mut totals = Counters::default();
        let mut tiers = TierCounts::default();
        let mut mix = BottleneckMix::default();
        let mut quarantines = 0;
        for (i, s) in spans.iter().enumerate() {
            let id = Some(SpanId(i));
            match s.kind {
                SpanKind::Operator => {
                    group_of.insert(id, operators.len());
                    operators.push(OperatorSummary::new(id, &s.label, s.dur_us));
                }
                SpanKind::Candidate => {
                    let group = *group_of.entry(s.parent).or_insert_with(|| {
                        operators.push(OperatorSummary::new(s.parent, "(root)", 0));
                        operators.len() - 1
                    });
                    let op = &mut operators[group];
                    op.candidates.push(SpanId(i));
                    op.counters.merge(&s.counters);
                    totals.merge(&s.counters);
                    tiers.measured += 1;
                    if let Some(cycles) = s.cycles {
                        let a = observatory::attribute(peaks, cycles, &s.counters);
                        op.mix.note(a.bottleneck);
                        mix.note(a.bottleneck);
                        attributions[i] = Some(a);
                    }
                }
                SpanKind::Screen => tiers.screened += u64::from(s.samples),
                // A Validate span with an error is a quarantined winner (the
                // error is the rejection reason).
                SpanKind::Validate => {
                    tiers.validated += 1;
                    quarantines += usize::from(s.error.is_some());
                }
                SpanKind::Sweep | SpanKind::Attempt => {}
            }
        }
        for op in &mut operators {
            op.candidates.sort_by_key(|c| spans[c.0].index.unwrap_or(usize::MAX));
            let pair = |c: &SpanId| {
                let s = &spans[c.0];
                Some(Pair { scope: op.scope, index: s.index?, predicted: s.predicted?, measured: s.cycles? })
            };
            let pairs: Vec<Pair> = op.candidates.iter().filter_map(pair).collect();
            op.accuracy = (!pairs.is_empty()).then(|| Accuracy::from_pairs(op.scope, pairs));
        }
        Summary { spans, attributions, peaks: *peaks, operators, totals, tiers, mix, quarantines }
    }
}

/// One operator scope of a [`Summary`]: the candidates recorded under one
/// span, with their merged counters, model accuracy and bottleneck mix.
#[derive(Debug, Clone)]
pub struct OperatorSummary {
    /// The span the candidates were recorded under (`None` = root).
    pub scope: Option<SpanId>,
    /// The operator span's label, or "(root)" without one.
    pub label: String,
    pub wall_us: u64,
    /// The scope's candidate spans (measured or failed), by candidate
    /// index; read them through [`Summary::candidates`].
    pub candidates: Vec<SpanId>,
    /// Counters merged over the scope's candidates.
    pub counters: Counters,
    /// `None` when no candidate has both a prediction and measured cycles.
    pub accuracy: Option<Accuracy>,
    /// Bottleneck classes of the scope's measured candidates.
    pub mix: BottleneckMix,
}

impl OperatorSummary {
    fn new(scope: Option<SpanId>, label: &str, wall_us: u64) -> OperatorSummary {
        OperatorSummary {
            scope,
            label: label.to_string(),
            wall_us,
            candidates: Vec::new(),
            counters: Counters::default(),
            accuracy: None,
            mix: BottleneckMix::default(),
        }
    }
}

/// The post-hoc numbers of a run ([`Telemetry::summary`]). Deterministic
/// for a fixed machine and candidate set whatever the worker count, wall
/// clocks and tracks apart.
pub struct Summary<'t> {
    spans: MutexGuard<'t, Vec<Span>>,
    /// By span id: the attribution of each measured candidate span.
    attributions: Vec<Option<Attribution>>,
    /// The roofline the candidates were attributed against.
    pub peaks: Peaks,
    /// Operator spans in recording order (empty ones included), then any
    /// other scope in order of its first candidate.
    pub operators: Vec<OperatorSummary>,
    /// Machine counters merged over every candidate span.
    pub totals: Counters,
    pub tiers: TierCounts,
    /// Bottleneck classes over every measured candidate.
    pub mix: BottleneckMix,
    /// Winners the validator rejected.
    pub quarantines: usize,
}

impl Summary<'_> {
    /// Every recorded span, indexed by [`SpanId`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The operator scope `scope`, if anything was recorded under it.
    pub fn operator(&self, scope: Option<SpanId>) -> Option<&OperatorSummary> {
        self.operators.iter().find(|o| o.scope == scope)
    }

    /// The candidate spans of `op` by candidate index, each measured one
    /// with its roofline attribution.
    pub fn candidates<'s>(
        &'s self,
        op: &'s OperatorSummary,
    ) -> impl Iterator<Item = (&'s Span, Option<&'s Attribution>)> {
        op.candidates.iter().map(|c| (&self.spans[c.0], self.attributions[c.0].as_ref()))
    }

    /// Every accuracy observation in canonical order: by scope (root first,
    /// then spans as opened — serially, so their ids repeat from run to
    /// run), then by candidate index. Every summary reads pairs in this
    /// order, so no digit of it depends on which worker finished first.
    pub fn pairs(&self) -> Vec<Pair> {
        let mut scoped: Vec<&Accuracy> =
            self.operators.iter().filter_map(|o| o.accuracy.as_ref()).collect();
        scoped.sort_by_key(|a| a.scope.map(|s| s.0));
        scoped.into_iter().flat_map(|a| a.pairs.iter().copied()).collect()
    }

    /// Structured metrics snapshot: per-operator candidate tables with
    /// (predicted, measured) pairs and counters, accuracy summaries,
    /// whole-run counter totals, quarantine and tier counts, and the shared
    /// evaluation caches. Every measured candidate carries an
    /// `"observatory"` object (the full derived-metric schema against
    /// [`Summary::peaks`], plus its bottleneck class) and the top level a
    /// `"bottleneck_mix"` object.
    pub fn snapshot_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj().field("v", 1u64).key("operators").begin_arr();
        for op in &self.operators {
            w.begin_obj()
                .field("label", &op.label)
                .field("wall_us", op.wall_us)
                .field("counters", op.counters)
                .field("accuracy", op.accuracy.as_ref())
                .key("candidates")
                .begin_arr();
            for (c, attribution) in self.candidates(op) {
                w.begin_obj()
                    .field("index", c.index.unwrap_or(usize::MAX))
                    .field("label", &c.label)
                    .field("predicted", c.predicted)
                    .field("measured", c.cycles)
                    .field("retries", c.retries)
                    .field("samples", c.samples)
                    .field("error", c.error.as_deref())
                    .field("wall_us", c.dur_us)
                    .field("track", c.track)
                    .field("counters", c.counters);
                if let Some(a) = attribution {
                    w.key("observatory").begin_obj().field("bottleneck", a.bottleneck.name());
                    w.field("metrics", &a.metrics).end_obj();
                }
                w.end_obj();
            }
            w.end_arr().end_obj();
        }
        w.end_arr()
            .field("totals", self.totals)
            .field("quarantines", self.quarantines)
            .field("tiers", self.tiers)
            .key("caches")
            .begin_obj();
        // The process-wide kernel-cost cache (`swkernels::cost::cache_stats`):
        // one query per static `Gemm` node per interpreted run, not one per
        // executed kernel call. Relaxed atomics, approximate under
        // concurrency — observability, never compared byte-for-byte across
        // runs and never an input to tuning decisions.
        let (hits, misses, entries) = swkernels::cost::cache_stats();
        w.key("kernel_cost").begin_obj().field("hits", hits).field("misses", misses);
        w.field("entries", entries).end_obj();
        w.end_obj().field("bottleneck_mix", self.mix).end_obj();
        w.finish()
    }

    /// The roofline attribution of span `id`, if it is a measured candidate.
    pub(crate) fn attribution(&self, id: SpanId) -> Option<&Attribution> {
        self.attributions.get(id.0)?.as_ref()
    }
}

/// Per-operator model-accuracy summary over its (predicted, measured)
/// pairs: the live Fig. 9.
#[derive(Debug, Clone)]
pub struct Accuracy {
    /// Operator span the summary covers (`None` = root scope).
    pub scope: Option<SpanId>,
    /// The observations, by candidate index ([`Summary::pairs`]).
    pub pairs: Vec<Pair>,
    /// Mean absolute percentage error of predicted vs measured cycles.
    pub mape_pct: Option<f64>,
    /// Spearman rank correlation between the predicted and measured
    /// orderings (`None` below 2 pairs or when an ordering is constant).
    pub rank_correlation: Option<f64>,
    /// Candidate indices whose predicted rank is displaced from their
    /// measured rank by more than [`Accuracy::rank_threshold`].
    pub misranked: Vec<usize>,
    /// Rank-displacement tolerance: `max(1, n/4)`.
    pub rank_threshold: usize,
}

impl Accuracy {
    fn from_pairs(scope: Option<SpanId>, pairs: Vec<Pair>) -> Accuracy {
        let obs: Vec<(f64, f64)> =
            pairs.iter().map(|p| (p.predicted, p.measured as f64)).collect();
        let mape_pct = mape(&obs);
        let rank_correlation = rank_correlation(&obs);
        let threshold = (pairs.len() / 4).max(1);
        let pr = ranks(&obs.iter().map(|o| o.0).collect::<Vec<_>>());
        let mr = ranks(&obs.iter().map(|o| o.1).collect::<Vec<_>>());
        let misranked: Vec<usize> = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| (pr[i] - mr[i]).abs() > threshold as f64)
            .map(|(_, p)| p.index)
            .collect();
        Accuracy { scope, pairs, mape_pct, rank_correlation, misranked, rank_threshold: threshold }
    }
}

/// The snapshot's per-operator accuracy object.
impl Value for Accuracy {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj()
            .field("pairs", self.pairs.len())
            .field("mape_pct", self.mape_pct)
            .field("rank_correlation", self.rank_correlation)
            .field("misranked", self.misranked.as_slice())
            .end_obj();
    }
}

/// Per-tier evaluation volume of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounts {
    /// Tier-0 analytic screenings (whole candidate spaces, no scoreboard).
    pub screened: u64,
    /// Tier-1 scoreboard measurements.
    pub measured: u64,
    /// Tier-2 winner validations (accepts + quarantined rejections).
    pub validated: u64,
}

/// `{"screened":…,"measured":…,"validated":…}`.
impl Value for TierCounts {
    fn write_json(&self, w: &mut Writer) {
        w.begin_obj()
            .field("screened", self.screened)
            .field("measured", self.measured)
            .field("validated", self.validated)
            .end_obj();
    }
}

/// Mean absolute percentage error of (predicted, measured) observations,
/// in percent. `None` when empty or every measurement is zero.
pub fn mape(obs: &[(f64, f64)]) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(p, m) in obs {
        if m != 0.0 {
            sum += ((p - m) / m).abs();
            n += 1;
        }
    }
    (n > 0).then(|| 100.0 * sum / n as f64)
}

/// Average ranks (1-based; ties get the mean of their positions).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson over average ranks) between the two
/// components of the observations. `None` below 2 points or when either
/// ordering is constant.
pub fn rank_correlation(obs: &[(f64, f64)]) -> Option<f64> {
    if obs.len() < 2 {
        return None;
    }
    let xr = ranks(&obs.iter().map(|o| o.0).collect::<Vec<_>>());
    let yr = ranks(&obs.iter().map(|o| o.1).collect::<Vec<_>>());
    let n = obs.len() as f64;
    let mx = xr.iter().sum::<f64>() / n;
    let my = yr.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for i in 0..obs.len() {
        let (dx, dy) = (xr[i] - mx, yr[i] - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_hierarchy_and_updates() {
        let t = Telemetry::new();
        let sweep = t.open(SpanKind::Sweep, "sweep");
        let op_handle = t.child_of(sweep);
        let op = op_handle.open(SpanKind::Operator, "gemm 64x64x64");
        let cand_handle = op_handle.child_of(op).on_track(2);
        let cand = cand_handle.open(SpanKind::Candidate, "tile 8x8");
        t.update(cand, |s| {
            s.index = Some(5);
            s.cycles = Some(1234);
            s.predicted = Some(1200.0);
        });
        t.close(cand);
        t.close(op);
        t.close(sweep);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(sweep));
        assert_eq!(spans[2].parent, Some(op));
        assert_eq!(spans[2].track, Some(2));
        assert_eq!(spans[2].cycles, Some(1234));
        assert_eq!(spans[0].track, None);
    }

    #[test]
    fn mape_and_rank_correlation_basics() {
        // Perfect predictions: MAPE 0, correlation 1.
        let perfect: Vec<(f64, f64)> = (1..=5).map(|i| (i as f64, i as f64)).collect();
        assert!(mape(&perfect).unwrap() < 1e-12);
        assert!((rank_correlation(&perfect).unwrap() - 1.0).abs() < 1e-12);
        // Reversed ordering: correlation -1.
        let reversed: Vec<(f64, f64)> =
            (1..=5).map(|i| (i as f64, (6 - i) as f64)).collect();
        assert!((rank_correlation(&reversed).unwrap() + 1.0).abs() < 1e-12);
        // 10% uniform over-prediction: MAPE 10, correlation still 1.
        let off: Vec<(f64, f64)> = (1..=5).map(|i| (1.1 * i as f64, i as f64)).collect();
        assert!((mape(&off).unwrap() - 10.0).abs() < 1e-9);
        assert!((rank_correlation(&off).unwrap() - 1.0).abs() < 1e-12);
        // Degenerate inputs.
        assert!(mape(&[]).is_none());
        assert!(rank_correlation(&[(1.0, 1.0)]).is_none());
        assert!(rank_correlation(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn ties_get_average_ranks() {
        let r = ranks(&[10.0, 20.0, 10.0, 30.0]);
        assert_eq!(r, vec![1.5, 3.0, 1.5, 4.0]);
    }

    #[test]
    fn rank_statistics_edge_cases() {
        // Length 0 and 1: no correlation is defined, never NaN.
        assert!(rank_correlation(&[]).is_none());
        assert!(rank_correlation(&[(7.0, 3.0)]).is_none());
        assert!(mape(&[]).is_none());
        // Constant vectors on either side: zero rank variance ⇒ None
        // (a NaN would otherwise leak from 0/0).
        let const_pred: Vec<(f64, f64)> = (0..5).map(|i| (42.0, i as f64)).collect();
        let const_meas: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 42.0)).collect();
        let both_const: Vec<(f64, f64)> = (0..5).map(|_| (1.0, 2.0)).collect();
        assert!(rank_correlation(&const_pred).is_none());
        assert!(rank_correlation(&const_meas).is_none());
        assert!(rank_correlation(&both_const).is_none());
        // Tied predictions with distinct measurements: ties get average
        // ranks and the coefficient stays in [-1, 1].
        let tied = [(10.0, 100.0), (10.0, 200.0), (20.0, 300.0), (20.0, 400.0)];
        let rho = rank_correlation(&tied).unwrap();
        assert!(rho.is_finite() && (-1.0..=1.0).contains(&rho));
        // Perfectly tied pairs (same tie structure both sides) correlate 1.
        let sym = [(1.0, 10.0), (1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        assert!((rank_correlation(&sym).unwrap() - 1.0).abs() < 1e-12);
        // All measurements zero: MAPE undefined rather than infinite.
        assert!(mape(&[(5.0, 0.0), (6.0, 0.0)]).is_none());
        // None of the degenerate summaries leaks NaN into JSON.
        for acc in [rank_correlation(&const_pred), mape(&[]), Some(f64::NAN)] {
            assert_eq!(sw26010::json::to_string(acc), "null");
        }
    }

    fn peaks() -> Peaks {
        Peaks::of(&sw26010::MachineConfig::default())
    }

    /// Record a measured candidate under `t`'s scope.
    fn measured(t: &Telemetry, index: usize, predicted: f64, cycles: u64) {
        let c = t.open(SpanKind::Candidate, format!("cand {index}"));
        t.update(c, |s| {
            s.index = Some(index);
            s.predicted = Some(predicted);
            s.cycles = Some(cycles);
        });
    }

    #[test]
    fn misranked_candidates_are_flagged() {
        let t = Telemetry::new();
        // 8 pairs; candidate 0 predicted fastest but measured slowest —
        // displacement 7 > threshold max(1, 8/4) = 2.
        measured(&t, 0, 10.0, 9000);
        for i in 1..8 {
            measured(&t, i, 100.0 * i as f64, 1000 + 100 * i as u64);
        }
        let summary = t.summary(&peaks());
        let acc = summary.operator(None).unwrap().accuracy.as_ref().unwrap();
        assert_eq!(acc.rank_threshold, 2);
        assert!(acc.misranked.contains(&0), "misranked: {:?}", acc.misranked);
        assert!(!acc.misranked.contains(&4));
    }

    #[test]
    fn accuracy_does_not_depend_on_recording_order() {
        // The same eight pairs under two operators, recorded the way two
        // differently scheduled worker pools would.
        let record = |order: [usize; 8]| {
            let t = Telemetry::new();
            let ops = [t.open(SpanKind::Operator, "a"), t.open(SpanKind::Operator, "b")];
            for i in order {
                let predicted = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 0.7][i] * 1e5 / 3.0;
                let cycles = [250_000, 31_000, 90_000, 52_000, 70_001, 99_000, 12_345, 180_000][i];
                measured(&t.child_of(ops[i % 2]), i / 2, predicted, cycles);
            }
            t
        };
        let (a, b) = (record([0, 1, 2, 3, 4, 5, 6, 7]), record([7, 2, 5, 0, 3, 6, 1, 4]));
        let (a, b) = (a.summary(&peaks()), b.summary(&peaks()));
        assert_eq!(a.pairs(), b.pairs());
        assert_eq!(a.pairs().iter().map(|p| p.index).collect::<Vec<_>>(), [0, 1, 2, 3, 0, 1, 2, 3]);
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        assert_eq!(a.operators.len(), 2);
        for (x, y) in a.operators.iter().zip(&b.operators) {
            let (x, y) = (x.accuracy.as_ref().unwrap(), y.accuracy.as_ref().unwrap());
            assert_eq!(x.scope, y.scope);
            assert_eq!(bits(x.mape_pct), bits(y.mape_pct));
            assert_eq!(bits(x.rank_correlation), bits(y.rank_correlation));
            assert_eq!(x.misranked, y.misranked);
        }
        assert!(a.operators.iter().any(|o| !o.accuracy.as_ref().unwrap().misranked.is_empty()));
    }

    #[test]
    fn accuracy_is_scoped_per_operator() {
        let t = Telemetry::new();
        let op_a = t.open(SpanKind::Operator, "a");
        let op_b = t.open(SpanKind::Operator, "b");
        for i in 0..3 {
            measured(&t.child_of(op_a), i, i as f64 + 1.0, i as u64 + 1);
            measured(&t.child_of(op_b), i, (3 - i) as f64, i as u64 + 1);
        }
        let summary = t.summary(&peaks());
        let rank = |op| summary.operator(Some(op)).unwrap().accuracy.as_ref().unwrap().rank_correlation;
        assert!((rank(op_a).unwrap() - 1.0).abs() < 1e-12);
        assert!((rank(op_b).unwrap() + 1.0).abs() < 1e-12);
        assert!(summary.operator(None).is_none());
        assert_eq!(summary.pairs().len(), 6);
    }

    #[test]
    fn candidates_group_under_their_operators() {
        let t = Telemetry::new();
        let op = t.open(SpanKind::Operator, "conv");
        let h = t.child_of(op);
        for i in [2usize, 0, 1] {
            let c = h.open(SpanKind::Candidate, format!("cand {i}"));
            t.update(c, |s| {
                s.index = Some(i);
                s.cycles = Some(100 + i as u64);
                s.counters.kernel_calls = 1;
            });
            t.close(c);
        }
        // An operator that measured nothing still leads a group, and a stray
        // candidate with no operator parent lands in "(root)".
        t.open(SpanKind::Operator, "idle");
        let stray = t.open(SpanKind::Candidate, "stray");
        t.update(stray, |s| s.index = Some(9));
        let summary = t.summary(&peaks());
        let labels: Vec<&str> = summary.operators.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["conv", "idle", "(root)"]);
        let conv = &summary.operators[0];
        // Sorted by index despite insertion order 2, 0, 1; each measured
        // candidate is attributed, the unmeasured stray is not.
        let idx: Vec<_> = summary.candidates(conv).map(|(c, a)| (c.index, a.is_some())).collect();
        assert_eq!(idx, [(Some(0), true), (Some(1), true), (Some(2), true)]);
        assert_eq!(conv.counters.kernel_calls, 3);
        assert_eq!((conv.mix.total(), summary.mix.total()), (3, 3));
        assert!(summary.operators[1].candidates.is_empty());
        assert!(summary.candidates(&summary.operators[2]).all(|(_, a)| a.is_none()));
        assert_eq!(summary.tiers, TierCounts { screened: 0, measured: 4, validated: 0 });
        // A tune under `conv` reads that group alone by its scope.
        let own = summary.operator(h.scope()).unwrap();
        assert_eq!((own.scope, own.candidates.len(), own.counters), (Some(op), 3, conv.counters));
        assert!(summary.operator(t.child_of(stray).scope()).is_none());
    }

    #[test]
    fn exporters_emit_valid_json() {
        let t = Telemetry::new();
        let op = t.open(SpanKind::Operator, "gemm \"quoted\" \\ name");
        let h = t.child_of(op).on_track(0);
        let c = h.open(SpanKind::Candidate, "cand\twith\ncontrols");
        t.update(c, |s| {
            s.index = Some(0);
            s.cycles = Some(500);
            s.predicted = Some(512.25);
            s.error = Some("bad \"thing\"".to_string());
            s.counters.dma_payload_bytes = 4096;
        });
        t.close(c);
        t.close(op);
        let parse = |what: &str, text: &str| {
            sw26010::json::parse(text).unwrap_or_else(|e| panic!("{what} invalid: {e}\n{text}"))
        };
        let summary = t.summary(&peaks());
        let snap = summary.snapshot_json();
        parse("snapshot", &snap);
        let perf = crate::profiler::trace_json(Some(&summary), &[], 1.45);
        parse("trace", &perf);
        assert!(perf.contains("\"worker 0\""));
        assert!(perf.contains("\"orchestrator\""));
        assert!(snap.contains("\"predicted\":512.25"));
        assert!(snap.contains("\"measured\":500"));
        assert!(snap.contains("\"accuracy\":{\"pairs\":1,"));
        // Measured candidates carry the observatory fields.
        assert!(snap.contains("\"observatory\":{\"bottleneck\":\""));
        assert!(snap.contains("\"bottleneck_mix\":{"));
        assert!(perf.contains("\"bottleneck\":\""));
        assert!(perf.contains("\"pct_peak_gflops\":"));
    }

    #[test]
    fn totals_merge_candidate_counters_only() {
        let t = Telemetry::new();
        let op = t.open(SpanKind::Operator, "op");
        t.update(op, |s| s.counters.kernel_calls = 99); // not a candidate
        let c = t.open(SpanKind::Candidate, "c");
        t.update(c, |s| {
            s.counters.kernel_calls = 2;
            s.counters.dma_bus_bytes = 128;
        });
        let totals = t.summary(&peaks()).totals;
        assert_eq!(totals.kernel_calls, 2);
        assert_eq!(totals.dma_bus_bytes, 128);
    }
}
