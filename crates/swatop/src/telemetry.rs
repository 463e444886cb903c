//! Tuning telemetry: spans, machine counters and model-accuracy tracking.
//!
//! The tuners are observable through three coordinated instruments:
//!
//! 1. **Spans** — a lightweight hierarchical recorder (sweep → operator →
//!    candidate → attempt). Every span carries wall-clock timing, an
//!    optional worker *track*, the simulated cycle count and the aggregated
//!    [`Counters`] of the execution it covers. Spans export to Perfetto /
//!    Chrome trace-event JSON ([`Telemetry::perfetto_json`]) with one
//!    timeline track per tuner worker.
//! 2. **Machine counters** — each candidate span absorbs the
//!    [`sw26010::Counters`] block its cost-only machine accumulated (DMA
//!    payload/bus traffic, stall cycles, pipeline issue slots, SPM
//!    high-water mark), turning "why is this variant slow" into a readable
//!    roofline-style breakdown.
//! 3. **Model accuracy** — every executed candidate contributes a
//!    (predicted, measured) cycle pair; per-operator MAPE and Spearman rank
//!    correlation summarize them (a live Fig. 9), and candidates the model
//!    misranks beyond a threshold are flagged.
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
//! Exports are hand-rolled JSON in the same spirit as
//! [`checkpoint`](crate::tuner::checkpoint): no serde dependency, strings
//! escaped through [`sw26010::json::escape_json`], floats emitted
//! as plain decimals (`null` when non-finite), and a small structural
//! validator ([`validate_json`]) used by the test suite and the CI smoke
//! leg.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use sw26010::json::escape_json;
use sw26010::Counters;

use crate::observatory::{self, BottleneckMix, Peaks};

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
    fn name(self) -> &'static str {
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

/// One (predicted, measured) observation feeding the accuracy tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pair {
    /// Operator span the observation belongs to (`None` = root).
    pub scope: Option<SpanId>,
    /// Candidate input index.
    pub index: usize,
    /// Model-predicted cycles.
    pub predicted: f64,
    /// Measured (simulated) cycles.
    pub measured: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    pairs: Vec<Pair>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
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
            .field("spans", &self.inner.state.lock().spans.len())
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
            inner: Arc::new(Inner { epoch: Instant::now(), state: Mutex::new(State::default()) }),
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
        let mut st = self.inner.state.lock();
        st.spans.push(Span {
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
        SpanId(st.spans.len() - 1)
    }

    /// Close a span, fixing its wall-clock duration.
    pub fn close(&self, id: SpanId) {
        let now = self.now_us();
        let mut st = self.inner.state.lock();
        if let Some(s) = st.spans.get_mut(id.0) {
            s.dur_us = now.saturating_sub(s.start_us);
        }
    }

    /// Mutate a recorded span in place (fill cycles, counters, errors…).
    pub fn update(&self, id: SpanId, f: impl FnOnce(&mut Span)) {
        let mut st = self.inner.state.lock();
        if let Some(s) = st.spans.get_mut(id.0) {
            f(s);
        }
    }

    /// Record a (predicted, measured) accuracy observation under this
    /// handle's scope.
    pub fn record_pair(&self, index: usize, predicted: f64, measured: u64) {
        let scope = self.parent;
        self.inner.state.lock().pairs.push(Pair { scope, index, predicted, measured });
    }

    /// Snapshot of all recorded spans (indexed by [`SpanId`]).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.state.lock().spans.clone()
    }

    /// Snapshot of all accuracy observations in canonical order: by scope
    /// (root first, then operator spans as opened — serially, so their ids
    /// repeat from run to run), then by candidate index. Pool workers record
    /// in completion order; every summary reads pairs in this order, so no
    /// digit of it depends on which worker finished first.
    pub fn pairs(&self) -> Vec<Pair> {
        canonical(self.inner.state.lock().pairs.clone())
    }

    /// Machine counters merged over every candidate span.
    pub fn totals(&self) -> Counters {
        let st = self.inner.state.lock();
        let mut total = Counters::default();
        for s in &st.spans {
            if s.kind == SpanKind::Candidate {
                total.merge(&s.counters);
            }
        }
        total
    }

    /// Accuracy summary of the observations recorded under `scope`
    /// (`None` = pairs recorded at the root). `None` when the scope has no
    /// observations.
    pub fn accuracy_for(&self, scope: Option<SpanId>) -> Option<Accuracy> {
        let st = self.inner.state.lock();
        let pairs: Vec<Pair> = st.pairs.iter().filter(|p| p.scope == scope).copied().collect();
        drop(st);
        (!pairs.is_empty()).then(|| Accuracy::from_pairs(scope, canonical(pairs)))
    }

    /// Accuracy summaries for every scope that recorded observations, in
    /// the scope order of [`Telemetry::pairs`].
    pub fn accuracy(&self) -> Vec<Accuracy> {
        self.pairs()
            .chunk_by(|a, b| a.scope == b.scope)
            .map(|of_scope| Accuracy::from_pairs(of_scope[0].scope, of_scope.to_vec()))
            .collect()
    }

    /// Group candidate spans under their operator span (or a synthetic
    /// "(root)" group), with merged counters and the scope's accuracy
    /// summary. This is the structure the JSON snapshot and the summary
    /// tables render.
    pub fn rollups(&self) -> Vec<OperatorRollup> {
        let spans = self.spans();
        let mut groups: Vec<(Option<SpanId>, OperatorRollup)> = Vec::new();
        // Operator spans first, in recording order, so empty operators
        // still appear.
        for (i, s) in spans.iter().enumerate() {
            if s.kind == SpanKind::Operator {
                groups.push((
                    Some(SpanId(i)),
                    OperatorRollup {
                        scope: Some(SpanId(i)),
                        label: s.label.clone(),
                        wall_us: s.dur_us,
                        candidates: Vec::new(),
                        counters: Counters::default(),
                        accuracy: None,
                    },
                ));
            }
        }
        for s in spans.iter().filter(|s| s.kind == SpanKind::Candidate) {
            let key = s.parent.filter(|p| {
                spans.get(p.0).is_some_and(|ps| ps.kind == SpanKind::Operator)
            });
            let group = match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g,
                None => {
                    groups.push((
                        key,
                        OperatorRollup {
                            scope: key,
                            label: "(root)".to_string(),
                            wall_us: 0,
                            candidates: Vec::new(),
                            counters: Counters::default(),
                            accuracy: None,
                        },
                    ));
                    &mut groups.last_mut().expect("just pushed").1
                }
            };
            group.counters.merge(&s.counters);
            group.candidates.push(CandidateRow {
                index: s.index.unwrap_or(usize::MAX),
                label: s.label.clone(),
                predicted: s.predicted,
                measured: s.cycles,
                retries: s.retries,
                samples: s.samples,
                error: s.error.clone(),
                wall_us: s.dur_us,
                track: s.track,
                counters: s.counters,
            });
        }
        let mut out: Vec<OperatorRollup> = groups.into_iter().map(|(_, g)| g).collect();
        for g in &mut out {
            g.candidates.sort_by_key(|a| a.index);
            g.accuracy = self.accuracy_for(g.scope);
        }
        out
    }

    /// Condensed per-tune summary for [`TuneOutcome`](crate::tuner::TuneOutcome).
    pub fn tune_summary(&self, scope: Option<SpanId>, counters: Counters) -> TuneTelemetry {
        let acc = self.accuracy_for(scope);
        TuneTelemetry {
            counters,
            pairs: acc.as_ref().map_or(0, |a| a.pairs.len()),
            mape_pct: acc.as_ref().and_then(|a| a.mape_pct),
            rank_correlation: acc.as_ref().and_then(|a| a.rank_correlation),
            misranked: acc.as_ref().map_or(0, |a| a.misranked.len()),
            quarantined: 0,
            mix: BottleneckMix::default(),
        }
    }

    /// Bottleneck class counts over every executed candidate span, classified
    /// against the machine's roofline peaks. Deterministic: derived purely
    /// from per-candidate cycles + counters.
    pub fn bottleneck_mix(&self, peaks: &Peaks) -> BottleneckMix {
        let mut mix = BottleneckMix::default();
        for s in self.spans() {
            if s.kind == SpanKind::Candidate {
                if let Some(cycles) = s.cycles {
                    mix.note(observatory::classify(peaks, cycles, &s.counters));
                }
            }
        }
        mix
    }

    /// Structured metrics snapshot (hand-rolled JSON): per-operator
    /// candidate tables with (predicted, measured) pairs and counters,
    /// accuracy summaries, and whole-run counter totals.
    pub fn snapshot_json(&self) -> String {
        self.snapshot_json_with(None)
    }

    /// [`Telemetry::snapshot_json`] enriched with the observatory: when
    /// `peaks` is given, every measured candidate additionally carries an
    /// `"observatory"` object (the full derived-metric schema plus its
    /// bottleneck class) and the top level gains a `"bottleneck_mix"`
    /// object. With `peaks = None` the output is byte-identical to
    /// [`Telemetry::snapshot_json`].
    pub fn snapshot_json_with(&self, peaks: Option<&Peaks>) -> String {
        let mut out = String::from("{\"v\":1,\"operators\":[");
        for (gi, g) in self.rollups().iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"wall_us\":{},\"counters\":{},",
                escape_json(&g.label),
                g.wall_us,
                counters_json(&g.counters)
            ));
            match &g.accuracy {
                Some(a) => out.push_str(&format!(
                    "\"accuracy\":{{\"pairs\":{},\"mape_pct\":{},\
                     \"rank_correlation\":{},\"misranked\":[{}]}},",
                    a.pairs.len(),
                    float_json(a.mape_pct),
                    float_json(a.rank_correlation),
                    a.misranked
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )),
                None => out.push_str("\"accuracy\":null,"),
            }
            out.push_str("\"candidates\":[");
            for (ci, c) in g.candidates.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                let obs = match (peaks, c.measured) {
                    (Some(p), Some(cycles)) => {
                        let a = observatory::attribute(p, cycles, &c.counters);
                        format!(
                            ",\"observatory\":{{\"bottleneck\":\"{}\",\"metrics\":{}}}",
                            a.bottleneck.name(),
                            a.metrics.to_json()
                        )
                    }
                    _ => String::new(),
                };
                out.push_str(&format!(
                    "{{\"index\":{},\"label\":\"{}\",\"predicted\":{},\
                     \"measured\":{},\"retries\":{},\"samples\":{},\
                     \"error\":{},\"wall_us\":{},\"track\":{},\"counters\":{}{obs}}}",
                    c.index,
                    escape_json(&c.label),
                    float_json(c.predicted),
                    c.measured.map_or_else(|| "null".to_string(), |m| m.to_string()),
                    c.retries,
                    c.samples,
                    c.error.as_ref().map_or_else(
                        || "null".to_string(),
                        |e| format!("\"{}\"", escape_json(e))
                    ),
                    c.wall_us,
                    c.track.map_or_else(|| "null".to_string(), |t| t.to_string()),
                    counters_json(&c.counters)
                ));
            }
            out.push_str("]}");
        }
        out.push_str(&format!("],\"totals\":{}", counters_json(&self.totals())));
        // Winner-validation outcomes: Validate spans with an error are
        // quarantined winners (the error is the rejection reason).
        let spans = self.spans();
        let quarantines = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Validate && s.error.is_some())
            .count();
        out.push_str(&format!(",\"quarantines\":{quarantines}"));
        // Tier ladder volume: tier-0 analytic screenings (samples on Screen
        // spans), tier-1 scoreboard measurements (Candidate spans), tier-2
        // winner validations. Deterministic — derived from the span set.
        let screened: u64 = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Screen)
            .map(|s| u64::from(s.samples))
            .sum();
        let measured = spans.iter().filter(|s| s.kind == SpanKind::Candidate).count();
        let validated = spans.iter().filter(|s| s.kind == SpanKind::Validate).count();
        out.push_str(&format!(
            ",\"tiers\":{{\"screened\":{screened},\"measured\":{measured},\
             \"validated\":{validated}}}"
        ));
        // Shared-cache observability. Process-global counters, approximate
        // under concurrency — never compared byte-for-byte across runs.
        out.push_str(&format!(",\"caches\":{}", caches_json()));
        if let Some(p) = peaks {
            let mix = self.bottleneck_mix(p);
            out.push_str(&format!(
                ",\"bottleneck_mix\":{{\"dma\":{},\"compute\":{},\"stall\":{},\
                 \"spm_capacity\":{}}}",
                mix.dma, mix.compute, mix.stall, mix.spm_capacity
            ));
        }
        out.push('}');
        out
    }

    /// Perfetto / Chrome trace-event JSON of the whole tuning run: one
    /// timeline track per worker (tid `w + 1`) plus an orchestrator track
    /// (tid 0) for sweep/operator spans. Loadable in `ui.perfetto.dev` or
    /// `chrome://tracing`.
    pub fn perfetto_json(&self) -> String {
        self.perfetto_json_with(None)
    }

    /// [`Telemetry::perfetto_json`] enriched with the observatory: when
    /// `peaks` is given, every measured candidate span's `args` additionally
    /// carry its bottleneck class and headline roofline percentages, so the
    /// attribution is visible directly in the Perfetto UI. With
    /// `peaks = None` the output is byte-identical to
    /// [`Telemetry::perfetto_json`].
    pub fn perfetto_json_with(&self, peaks: Option<&Peaks>) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut tracks: Vec<Option<usize>> = Vec::new();
        for s in &spans {
            if !tracks.contains(&s.track) {
                tracks.push(s.track);
            }
            let tid = s.track.map_or(0, |w| w + 1);
            let mut args = format!("\"kind\":\"{}\"", s.kind.name());
            if let Some(c) = s.cycles {
                args.push_str(&format!(",\"cycles\":{c}"));
            }
            if let Some(p) = s.predicted {
                args.push_str(&format!(",\"predicted_cycles\":{}", float_json(Some(p))));
            }
            if let Some(i) = s.index {
                args.push_str(&format!(",\"index\":{i}"));
            }
            if let Some(e) = &s.error {
                args.push_str(&format!(",\"error\":\"{}\"", escape_json(e)));
            }
            if s.kind == SpanKind::Candidate {
                // The candidate label *is* its schedule-point description
                // (knob=value list) — mirror it into args so trace tooling
                // can filter on schedule knobs without parsing span names.
                args.push_str(&format!(",\"schedule\":\"{}\"", escape_json(&s.label)));
                args.push_str(&format!(",\"counters\":{}", counters_json(&s.counters)));
                if let (Some(p), Some(cycles)) = (peaks, s.cycles) {
                    let a = observatory::attribute(p, cycles, &s.counters);
                    let pct = |name: &str| {
                        float_json(Some(a.metrics.get(name).unwrap_or(0.0)))
                    };
                    args.push_str(&format!(
                        ",\"bottleneck\":\"{}\",\"pct_peak_gflops\":{},\
                         \"pct_peak_dma_bw\":{},\"pct_roofline\":{}",
                        a.bottleneck.name(),
                        pct("pct_peak_gflops"),
                        pct("pct_peak_dma_bw"),
                        pct("pct_roofline")
                    ));
                }
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                escape_json(&s.label),
                s.start_us,
                s.dur_us.max(1)
            ));
        }
        tracks.sort_by_key(|t| t.map_or(0, |w| w + 1));
        for t in tracks {
            let (tid, name) = match t {
                None => (0, "orchestrator".to_string()),
                Some(w) => (w + 1, format!("worker {w}")),
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(&name)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// `pairs` in the order of [`Telemetry::pairs`]. The sort is stable: a
/// candidate recorded twice keeps its recording order.
fn canonical(mut pairs: Vec<Pair>) -> Vec<Pair> {
    pairs.sort_by_key(|p| (p.scope.map(|s| s.0), p.index));
    pairs
}

/// Per-operator model-accuracy summary over its (predicted, measured)
/// pairs: the live Fig. 9.
#[derive(Debug, Clone)]
pub struct Accuracy {
    /// Operator span the summary covers (`None` = root scope).
    pub scope: Option<SpanId>,
    /// The observations, by candidate index ([`Telemetry::pairs`]).
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

/// One candidate row of an [`OperatorRollup`].
#[derive(Debug, Clone)]
pub struct CandidateRow {
    pub index: usize,
    pub label: String,
    pub predicted: Option<f64>,
    pub measured: Option<u64>,
    pub retries: u32,
    pub samples: u32,
    pub error: Option<String>,
    pub wall_us: u64,
    pub track: Option<usize>,
    pub counters: Counters,
}

/// Candidate spans grouped under their operator span.
#[derive(Debug, Clone)]
pub struct OperatorRollup {
    pub scope: Option<SpanId>,
    pub label: String,
    pub wall_us: u64,
    pub candidates: Vec<CandidateRow>,
    /// Counters merged over the operator's candidates.
    pub counters: Counters,
    pub accuracy: Option<Accuracy>,
}

/// Condensed telemetry carried on a
/// [`TuneOutcome`](crate::tuner::TuneOutcome): counter totals and the
/// model-accuracy headline numbers of one tuning run.
#[derive(Debug, Clone, Default)]
pub struct TuneTelemetry {
    /// Machine counters merged over every executed candidate.
    pub counters: Counters,
    /// (predicted, measured) observations recorded.
    pub pairs: usize,
    /// Mean absolute percentage error of the model on those pairs.
    pub mape_pct: Option<f64>,
    /// Spearman rank correlation of predicted vs measured orderings.
    pub rank_correlation: Option<f64>,
    /// Candidates misranked beyond the threshold.
    pub misranked: usize,
    /// Prospective winners rejected by the validator and quarantined
    /// (each forced a fallback to the next-best legal candidate).
    pub quarantined: usize,
    /// Roofline bottleneck classes over every executed candidate
    /// ([`crate::observatory::classify`]): the run's dma / compute / stall /
    /// spm-capacity mix.
    pub mix: BottleneckMix,
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

/// Render an optional float as a JSON value: plain decimal, or `null` when
/// absent or non-finite (JSON has no NaN/Infinity).
pub(crate) fn float_json(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => {
            let s = format!("{v}");
            // Rust's float Display can produce exponent-free decimals only,
            // which are valid JSON numbers as-is.
            if s.contains('e') || s.contains('E') {
                format!("{v:.6}")
            } else {
                s
            }
        }
        _ => "null".to_string(),
    }
}

/// Render a counter block as a JSON object.
fn counters_json(c: &Counters) -> String {
    format!(
        "{{\"dma_payload_bytes\":{},\"dma_bus_bytes\":{},\"dma_batches\":{},\
         \"dma_bcast_batches\":{},\"dma_stall_cycles\":{},\"dma_waits\":{},\
         \"kernel_calls\":{},\"kernel_cycles\":{},\"flops\":{},\
         \"compute_cycles\":{},\"issue_p0\":{},\"issue_p1\":{},\
         \"regcomm_broadcasts\":{},\"regcomm_bytes\":{},\
         \"spm_high_water_elems\":{}}}",
        c.dma_payload_bytes,
        c.dma_bus_bytes,
        c.dma_batches,
        c.dma_bcast_batches,
        c.dma_stall_cycles,
        c.dma_waits,
        c.kernel_calls,
        c.kernel_cycles,
        c.flops,
        c.compute_cycles,
        c.issue_p0,
        c.issue_p1,
        c.regcomm_broadcasts,
        c.regcomm_bytes,
        c.spm_high_water_elems
    )
}

/// Hit/miss/entry counters of the process-wide evaluation caches as a JSON
/// object: the PR 1 kernel-cost cache ([`swkernels::cost::cache_stats`])
/// and the model sub-cost memo cache ([`crate::model::memo`]). The kernel
/// figures count cost queries — one per static `Gemm` node per interpreted
/// run, not one per executed kernel call. Counters are relaxed atomics —
/// approximate under concurrency, exact serially — so they are
/// observability, never an input to tuning decisions.
pub fn caches_json() -> String {
    let (kh, km, ke) = swkernels::cost::cache_stats();
    let (mh, mm, me) = crate::model::memo::stats();
    format!(
        "{{\"kernel_cost\":{{\"hits\":{kh},\"misses\":{km},\"entries\":{ke}}},\
         \"memo\":{{\"hits\":{mh},\"misses\":{mm},\"entries\":{me}}}}}"
    )
}

/// Prometheus text exposition of the same process-wide cache counters as
/// [`caches_json`]: `swatop_cache_{hits,misses}_total` counters and a
/// `swatop_cache_entries` gauge, one sample per cache
/// (`cache="kernel_cost"` / `cache="memo"`). Appended alongside
/// [`crate::observatory::MetricSet::prometheus_text`] by scrapers that
/// want cache observability next to the roofline gauges.
pub fn caches_prometheus_text() -> String {
    let (kh, km, ke) = swkernels::cost::cache_stats();
    let (mh, mm, me) = crate::model::memo::stats();
    let mut out = String::new();
    let mut series = |name: &str, help: &str, kind: &str, kernel: u64, memo: u64| {
        out.push_str(&format!(
            "# HELP swatop_{name} {help}\n# TYPE swatop_{name} {kind}\n\
             swatop_{name}{{cache=\"kernel_cost\"}} {kernel}\n\
             swatop_{name}{{cache=\"memo\"}} {memo}\n"
        ));
    };
    series("cache_hits_total", "Evaluation-cache hits since process start", "counter", kh, mh);
    series(
        "cache_misses_total",
        "Evaluation-cache misses since process start",
        "counter",
        km,
        mm,
    );
    series("cache_entries", "Resident evaluation-cache entries", "gauge", ke, me);
    out
}

/// Structural JSON well-formedness check (objects, arrays, strings with
/// escapes, numbers incl. floats/exponents, booleans, null). Returns the
/// first syntax error. Used by tests and the CI telemetry smoke leg; the
/// exporters above must always satisfy it.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    parse_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing data at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                parse_value(b, i)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, "true"),
        Some(b'f') => parse_lit(b, i, "false"),
        Some(b'n') => parse_lit(b, i, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, i),
        Some(c) => Err(format!("unexpected byte {:?} at {i}", *c as char)),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5
                            || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {i}"));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| -> usize {
        let s = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i - s
    };
    if digits(b, i) == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if digits(b, i) == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if digits(b, i) == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
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
    fn cache_exports_are_well_formed() {
        validate_json(&caches_json()).unwrap();
        let prom = caches_prometheus_text();
        for line in prom.lines() {
            assert!(
                line.starts_with("# HELP swatop_cache_")
                    || line.starts_with("# TYPE swatop_cache_")
                    || line.starts_with("swatop_cache_"),
                "unexpected line: {line:?}"
            );
        }
        for name in ["cache_hits_total", "cache_misses_total", "cache_entries"] {
            for cache in ["kernel_cost", "memo"] {
                assert!(prom.contains(&format!("swatop_{name}{{cache=\"{cache}\"}} ")));
            }
        }
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
        for acc in [
            rank_correlation(&const_pred),
            mape(&[]),
            Some(f64::NAN),
        ] {
            let rendered = float_json(acc);
            validate_json(&rendered).unwrap();
            assert!(!rendered.contains("NaN"));
        }
    }

    #[test]
    fn misranked_candidates_are_flagged() {
        let t = Telemetry::new();
        // 8 pairs; candidate 0 predicted fastest but measured slowest —
        // displacement 7 > threshold max(1, 8/4) = 2.
        t.record_pair(0, 10.0, 9000);
        for i in 1..8 {
            t.record_pair(i, 100.0 * i as f64, 1000 + 100 * i as u64);
        }
        let acc = t.accuracy_for(None).unwrap();
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
                let measured = [250_000, 31_000, 90_000, 52_000, 70_001, 99_000, 12_345, 180_000][i];
                t.child_of(ops[i % 2]).record_pair(i / 2, predicted, measured);
            }
            t
        };
        let (a, b) = (record([0, 1, 2, 3, 4, 5, 6, 7]), record([7, 2, 5, 0, 3, 6, 1, 4]));
        assert_eq!(a.pairs(), b.pairs());
        assert_eq!(a.pairs().iter().map(|p| p.index).collect::<Vec<_>>(), [0, 1, 2, 3, 0, 1, 2, 3]);
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        for (x, y) in a.accuracy().iter().zip(b.accuracy()) {
            assert_eq!(x.scope, y.scope);
            assert_eq!(bits(x.mape_pct), bits(y.mape_pct));
            assert_eq!(bits(x.rank_correlation), bits(y.rank_correlation));
            assert_eq!(x.misranked, y.misranked);
            let again = b.accuracy_for(x.scope).unwrap();
            assert_eq!((bits(again.mape_pct), again.misranked), (bits(x.mape_pct), y.misranked));
        }
        assert_eq!(a.accuracy().len(), 2);
        assert!(a.accuracy().iter().any(|acc| !acc.misranked.is_empty()));
    }

    #[test]
    fn accuracy_is_scoped_per_operator() {
        let t = Telemetry::new();
        let op_a = t.open(SpanKind::Operator, "a");
        let op_b = t.open(SpanKind::Operator, "b");
        let ha = t.child_of(op_a);
        let hb = t.child_of(op_b);
        for i in 0..3 {
            ha.record_pair(i, i as f64 + 1.0, i as u64 + 1);
            hb.record_pair(i, (3 - i) as f64, i as u64 + 1);
        }
        let a = t.accuracy_for(Some(op_a)).unwrap();
        let b = t.accuracy_for(Some(op_b)).unwrap();
        assert!((a.rank_correlation.unwrap() - 1.0).abs() < 1e-12);
        assert!((b.rank_correlation.unwrap() + 1.0).abs() < 1e-12);
        assert!(t.accuracy_for(None).is_none());
        assert_eq!(t.accuracy().len(), 2);
    }

    #[test]
    fn rollups_group_candidates_under_operators() {
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
        // A stray candidate with no operator parent lands in "(root)".
        let stray = t.open(SpanKind::Candidate, "stray");
        t.update(stray, |s| s.index = Some(9));
        let rollups = t.rollups();
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].label, "conv");
        assert_eq!(rollups[0].candidates.len(), 3);
        // Sorted by index despite insertion order 2, 0, 1.
        let idx: Vec<usize> = rollups[0].candidates.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
        assert_eq!(rollups[0].counters.kernel_calls, 3);
        assert_eq!(rollups[1].label, "(root)");
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
        h.record_pair(0, 512.25, 500);
        t.close(op);
        let snap = t.snapshot_json();
        validate_json(&snap).unwrap_or_else(|e| panic!("snapshot invalid: {e}\n{snap}"));
        let perf = t.perfetto_json();
        validate_json(&perf).unwrap_or_else(|e| panic!("perfetto invalid: {e}\n{perf}"));
        assert!(perf.contains("\"worker 0\""));
        assert!(perf.contains("\"orchestrator\""));
        assert!(snap.contains("\"predicted\":512.25"));
        assert!(snap.contains("\"measured\":500"));
        // The peaks-enriched variants stay valid JSON and carry the
        // observatory fields; the `None` forms are byte-identical to the
        // plain exporters.
        let peaks = Peaks::of(&sw26010::MachineConfig::default());
        let snap2 = t.snapshot_json_with(Some(&peaks));
        validate_json(&snap2).unwrap_or_else(|e| panic!("rich snapshot invalid: {e}\n{snap2}"));
        assert!(snap2.contains("\"observatory\":{\"bottleneck\":\""));
        assert!(snap2.contains("\"bottleneck_mix\":{"));
        let perf2 = t.perfetto_json_with(Some(&peaks));
        validate_json(&perf2).unwrap_or_else(|e| panic!("rich perfetto invalid: {e}\n{perf2}"));
        assert!(perf2.contains("\"bottleneck\":\""));
        assert!(perf2.contains("\"pct_peak_gflops\":"));
        assert_eq!(t.snapshot_json_with(None), snap);
        assert_eq!(t.perfetto_json_with(None), perf);
    }

    #[test]
    fn float_json_guards_non_finite() {
        assert_eq!(float_json(Some(f64::NAN)), "null");
        assert_eq!(float_json(Some(f64::INFINITY)), "null");
        assert_eq!(float_json(None), "null");
        assert_eq!(float_json(Some(1.5)), "1.5");
        validate_json(&float_json(Some(1e-9))).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e4,\"x\\n\",true,false,null],\"b\":{}}").unwrap();
        validate_json("[]").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("01").is_ok(), "leading zeros tolerated (lenient)");
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
        let totals = t.totals();
        assert_eq!(totals.kernel_calls, 2);
        assert_eq!(totals.dma_bus_bytes, 128);
    }
}
