//! Candidate microscope: cycle-resolved profiles, the trace document,
//! schedule diffing and the search-trajectory feature corpus.
//!
//! Four consumers of the same substrate live here:
//!
//! * [`profile_candidate`] — re-run one enumerated candidate cost-only with
//!   tracing enabled and fold the event stream into a
//!   [`Timeline`] (per-engine busy intervals,
//!   prologue/steady/epilogue phases), paired with the machine counters and
//!   roofline bottleneck. Exported as a `profile` JSON artifact.
//! * [`trace_json`] — the one Chrome trace-event document: the tuner's spans
//!   in host time beside each profiled candidate's phases, occupancy and
//!   machine events in simulated time, one process each.
//! * [`diff`] — align two candidate profiles of the same operator
//!   phase-by-phase and attribute the cycle delta to the schedule knobs
//!   that changed (the `dma` level / residency / tiles) — the "why is
//!   B faster than A" answer the tuner's scalar ranking cannot give.
//! * [`corpus_text`] — harvest every evaluated candidate of a telemetry-
//!   instrumented sweep into a schema-versioned JSONL feature corpus
//!   (schedule knobs + machine counters + measured cycles + bottleneck):
//!   the training set for the learned cost model (ROADMAP item 5(c)).
//!
//! All outputs are bit-deterministic: rows are sorted by `(operator,
//! candidate index)` — candidate spans are *recorded* in worker-completion
//! order, which races across `--jobs` — and no wall-clock field is ever
//! written.

use std::fmt::Write as _;

use sw26010::json::Writer;
use sw26010::profile::{PhaseKind, Timeline};
use sw26010::trace::{Event, Trace};
use sw26010::{Counters, CoreGroup, Cycles, DmaDirection, ExecMode, MachineConfig, MachineResult};

use crate::interp::{execute, instantiate};
use crate::observatory::{classify, Bottleneck, Peaks};
use crate::scheduler::Candidate;
use crate::telemetry::{SpanId, SpanKind, Summary};

/// Event budget for profiling runs: generous enough for every op shape in
/// the bench suite; the `truncated` flag still guards the pathological case.
pub const PROFILE_TRACE_CAP: usize = 1_000_000;

/// Schema version stamped on the first line of every corpus file.
pub const CORPUS_SCHEMA: u64 = 1;

/// A cycle-resolved profile of one enumerated candidate.
#[derive(Debug, Clone)]
pub struct CandidateProfile {
    /// Operator label (e.g. `gemm_1024`).
    pub operator: String,
    /// Index of the candidate in the enumerated schedule list.
    pub index: usize,
    /// Knob assignment (`SchedulePoint::describe`).
    pub describe: String,
    /// Measured cycles — same measurement as the tuner (`execute` +
    /// `kernel_signal`), so profiles are comparable to sweep results.
    pub cycles: Cycles,
    /// Machine counters of the profiled execution.
    pub counters: Counters,
    /// Roofline bottleneck class of the profiled execution.
    pub bottleneck: Bottleneck,
    /// Per-engine activity timeline with phase segmentation. Note the
    /// timeline horizon excludes the constant `kernel_signal` launch tax
    /// (no machine event spans it).
    pub timeline: Timeline,
    /// The machine events the timeline was folded from.
    pub trace: Trace,
}

/// Re-run `cand` cost-only with tracing enabled and build its profile.
///
/// Faults are stripped from the config: a profile answers "where do this
/// schedule's cycles go", which fault jitter would only blur.
pub fn profile_candidate(
    cfg: &MachineConfig,
    operator: &str,
    index: usize,
    cand: &Candidate,
) -> MachineResult<CandidateProfile> {
    let mut clean = cfg.clone();
    clean.fault = None;
    let mut cg = CoreGroup::new(clean.clone(), ExecMode::CostOnly);
    cg.trace = Trace::enabled(PROFILE_TRACE_CAP);
    let binding = instantiate(&mut cg, &cand.exe);
    let cycles = execute(&mut cg, &cand.exe, &binding)? + clean.kernel_signal;
    let timeline = Timeline::build(&cg.trace);
    let peaks = Peaks::of(&clean);
    let bottleneck = classify(&peaks, cycles.get(), &cg.counters);
    Ok(CandidateProfile {
        operator: operator.to_string(),
        index,
        describe: cand.describe.clone(),
        cycles,
        counters: cg.counters,
        bottleneck,
        timeline,
        trace: cg.trace,
    })
}

/// The `profile` JSON artifact: candidate identity + measurement + knobs +
/// the full timeline. Deterministic bytes.
pub fn profile_json(p: &CandidateProfile) -> String {
    let mut w = Writer::new();
    w.begin_obj()
        .field("profile_schema", 1u64)
        .field("operator", &p.operator)
        .field("candidate", p.index)
        .field("schedule", &p.describe)
        .field("cycles", p.cycles.get())
        .field("bottleneck", p.bottleneck.name());
    write_knobs(&mut w, &p.describe);
    w.field("counters", p.counters).field("timeline", &p.timeline).end_obj();
    w.finish()
}

/// The one trace document: Chrome trace-event JSON for `ui.perfetto.dev`
/// or `chrome://tracing`.
///
/// Process 0 is the tuner: every span of `summary` in host µs, in
/// recording order, the orchestrator on thread 0 and worker `w` on thread
/// `w + 1`; a measured candidate's args carry its knobs, counters and
/// roofline attribution. Process `i + 1` is `candidates[i]` in simulated µs
/// at `clock_ghz`: an enclosing `B`/`E` slice and the phase slices, the
/// per-phase occupancy counters, then its machine events by engine (CPE
/// compute, DMA, regcomm). An engine gets as many numbered lanes as it had
/// events in flight at once, so no two slices of one thread overlap.
pub fn trace_json(
    summary: Option<&Summary>,
    candidates: &[&CandidateProfile],
    clock_ghz: f64,
) -> String {
    let mut w = Writer::trace_events();
    if let Some(summary) = summary {
        write_tuner(&mut w, summary);
    }
    for (pid, p) in (1..).zip(candidates) {
        write_candidate(&mut w, pid, p, clock_ghz);
    }
    w.finish_lines()
}

/// The metadata event naming process `pid`.
fn process_name(w: &mut Writer, pid: u32, name: &str) {
    w.trace_event("process_name", "M", pid, 0).key("args").begin_obj();
    w.field("name", name).end_obj().end_obj();
}

/// Process 0 of [`trace_json`].
fn write_tuner(w: &mut Writer, summary: &Summary) {
    let tid = |track: Option<usize>| track.map_or(0, |t| t + 1);
    process_name(w, 0, "tuner (host µs)");
    let mut tracks: Vec<Option<usize>> = Vec::new();
    for (i, s) in summary.spans().iter().enumerate() {
        if !tracks.contains(&s.track) {
            tracks.push(s.track);
        }
        w.trace_event(&s.label, "X", 0, tid(s.track))
            .field("ts", s.start_us)
            .field("dur", s.dur_us.max(1))
            .key("args")
            .begin_obj()
            .field("kind", s.kind.name());
        if let Some(c) = s.cycles {
            w.field("cycles", c);
        }
        if let Some(p) = s.predicted {
            w.field("predicted_cycles", p);
        }
        if let Some(i) = s.index {
            w.field("index", i);
        }
        if let Some(e) = &s.error {
            w.field("error", e);
        }
        if s.kind == SpanKind::Candidate {
            // The label *is* the schedule-point description; mirrored into
            // args so trace tooling can filter on knobs.
            w.field("schedule", &s.label).field("counters", s.counters);
            if let Some(a) = summary.attribution(SpanId(i)) {
                w.field("bottleneck", a.bottleneck.name());
                for pct in ["pct_peak_gflops", "pct_peak_dma_bw", "pct_roofline"] {
                    w.field(pct, a.metrics.get(pct).unwrap_or(0.0));
                }
            }
        }
        w.end_obj().end_obj();
    }
    tracks.sort_by_key(|&t| tid(t));
    for t in tracks {
        let name = t.map_or("orchestrator".to_string(), |worker| format!("worker {worker}"));
        w.thread_name(0, tid(t), &name);
    }
}

/// Process `pid` of [`trace_json`]: one profiled candidate.
fn write_candidate(w: &mut Writer, pid: u32, p: &CandidateProfile, clock_ghz: f64) {
    let us = |cycles: u64| cycles as f64 / (clock_ghz * 1e3);
    let t = &p.timeline;
    process_name(w, pid, &format!("{} #{} (simulated µs at {clock_ghz} GHz)", p.operator, p.index));
    let label = format!("{} #{} [{}]", p.operator, p.index, p.describe);
    w.trace_event(&label, "B", pid, 0).field("ts", us(0)).key("args").begin_obj();
    w.field("total_cycles", t.total).field("truncated", t.truncated).end_obj().end_obj();
    let phases = || t.phases.iter().filter(|ph| !ph.span.is_empty());
    for ph in phases() {
        w.trace_event(ph.kind.name(), "X", pid, 0)
            .field("ts", us(ph.span.start))
            .field("dur", us(ph.span.len()))
            .key("args")
            .begin_obj();
        ph.write_busy(w);
        w.end_obj().end_obj();
    }
    w.trace_event(&label, "E", pid, 0).field("ts", us(t.total)).end_obj();
    // One sample per phase start and a closing zero: a step curve.
    let occupancy = phases().map(|ph| {
        (ph.span.start, [ph.dma_occupancy(), ph.compute_occupancy(), ph.overlap_efficiency()])
    });
    for (at, [dma, compute, overlap_eff]) in occupancy.chain([(t.total, [0.0; 3])]) {
        w.trace_event("occupancy", "C", pid, 1).field("ts", us(at)).key("args").begin_obj();
        w.field("dma", dma).field("compute", compute).field("overlap_eff", overlap_eff);
        w.end_obj().end_obj();
    }
    let mut threads = vec!["schedule phases".to_string(), "occupancy".to_string()];
    for (engine, slices) in engine_slices(&p.trace) {
        for (lane, slices) in lanes(slices).into_iter().enumerate() {
            let tid = threads.len();
            threads.push(format!("{engine} lane {lane}"));
            for (name, at, cycles) in slices {
                w.trace_event(&name, "X", pid, tid).field("ts", us(at));
                w.field("dur", us(cycles)).end_obj();
            }
        }
    }
    for (tid, name) in threads.iter().enumerate() {
        w.thread_name(pid, tid, name);
    }
}

/// A machine event as a named slice: `(name, start, cycles)`.
type Slice = (String, u64, u64);

/// The trace's events as slices, per engine. A wait that lost no cycles is
/// no slice.
fn engine_slices(trace: &Trace) -> [(&'static str, Vec<Slice>); 3] {
    let mut engines = [("CPE compute", Vec::new()), ("DMA", Vec::new()), ("regcomm", Vec::new())];
    for e in trace.events() {
        let (engine, name, at, cycles) = match *e {
            Event::Gemm { at, cycles, m, n, k } => (0, format!("gemm {m}x{n}x{k}"), at, cycles),
            Event::Compute { at, cycles, what } => (0, what.to_string(), at, cycles),
            Event::DmaWait { stall, .. } if stall.get() == 0 => continue,
            Event::DmaWait { at, stall, tag } => (0, format!("stall (tag {tag})"), at, stall),
            Event::DmaIssue { at, done, direction, payload_bytes, tag, .. } => {
                let name = format!("dma {direction:?} {payload_bytes}B (tag {tag})");
                (1, name, at, Cycles(done.get().saturating_sub(at.get())))
            }
            Event::Regcomm { at, cycles, bytes, direction } => {
                let phase = match direction {
                    DmaDirection::MemToSpm => "scatter",
                    DmaDirection::SpmToMem => "gather",
                };
                (2, format!("regcomm {phase} {bytes}B"), at, cycles)
            }
        };
        engines[engine].1.push((name, at.get(), cycles.get()));
    }
    engines
}

/// Deal `slices` onto lanes, each to the lowest lane free at its start, so
/// no two slices of a lane overlap.
fn lanes(mut slices: Vec<Slice>) -> Vec<Vec<Slice>> {
    slices.sort_by_key(|s| s.1);
    let end = |lane: &Vec<Slice>| lane.last().map_or(0, |&(_, at, cycles)| at + cycles);
    let mut lanes: Vec<Vec<Slice>> = Vec::new();
    for s in slices {
        match lanes.iter().position(|lane| end(lane) <= s.1) {
            Some(i) => lanes[i].push(s),
            None => lanes.push(vec![s]),
        }
    }
    lanes
}

/// Parse a `SchedulePoint::describe` string ("k=v, k=v, …") into ordered
/// knob pairs. Pairs without `=` are skipped (describe never emits them).
pub fn parse_knobs(describe: &str) -> Vec<(String, String)> {
    describe
        .split(',')
        .filter_map(|part| {
            let part = part.trim();
            let (k, v) = part.split_once('=')?;
            Some((k.trim().to_string(), v.trim().to_string()))
        })
        .collect()
}

/// `"knobs":{…}` of a describe string: numbers and booleans bare, choice
/// strings quoted.
fn write_knobs(w: &mut Writer, describe: &str) {
    w.key("knobs").begin_obj();
    for (k, v) in parse_knobs(describe) {
        w.key(&k);
        match (v.parse::<u64>(), v.parse::<bool>()) {
            (Ok(n), _) => w.value(n),
            (_, Ok(b)) => w.value(b),
            _ => w.value(&v),
        };
    }
    w.end_obj();
}

/// One knob that differs between the two diffed candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobDelta {
    pub name: String,
    /// Value in candidate A (`"-"` if the knob is absent there).
    pub a: String,
    /// Value in candidate B.
    pub b: String,
}

/// Per-phase cycle attribution of the delta between two candidates.
#[derive(Debug, Clone)]
pub struct PhaseDelta {
    pub kind: PhaseKind,
    pub a_cycles: u64,
    pub b_cycles: u64,
    pub a_stall: u64,
    pub b_stall: u64,
    pub a_overlap: u64,
    pub b_overlap: u64,
}

impl PhaseDelta {
    /// Signed phase-duration change B − A (negative = B faster here).
    pub fn delta(&self) -> i64 {
        self.b_cycles as i64 - self.a_cycles as i64
    }
}

/// The aligned diff of two candidate profiles of the same operator.
#[derive(Debug, Clone)]
pub struct ScheduleDiff {
    pub operator: String,
    pub a_index: usize,
    pub b_index: usize,
    pub a_cycles: u64,
    pub b_cycles: u64,
    /// Per-phase attribution. The three phase deltas sum exactly to the
    /// timeline-horizon delta (phases partition each timeline).
    pub phases: Vec<PhaseDelta>,
    /// Knobs whose values differ between A and B.
    pub knobs: Vec<KnobDelta>,
    /// Human-readable attribution lines connecting changed knobs to the
    /// engine/phase metrics they moved.
    pub commentary: Vec<String>,
}

impl ScheduleDiff {
    /// Total signed delta B − A in measured cycles.
    pub fn delta(&self) -> i64 {
        self.b_cycles as i64 - self.a_cycles as i64
    }
}

/// Knob-specific commentary: what machine effect each changed knob had,
/// read off the two timelines.
fn knob_commentary(k: &KnobDelta, a: &CandidateProfile, b: &CandidateProfile) -> String {
    let stall = |p: &CandidateProfile| p.timeline.stall_cycles();
    let overlap = |p: &CandidateProfile| p.timeline.overlap_cycles();
    let dma = |p: &CandidateProfile| p.timeline.dma_busy();
    let base = format!("{} {} -> {}: ", k.name, k.a, k.b);
    match k.name.as_str() {
        "dma" => format!(
            "{base}stall {} -> {} cycles, dma/compute overlap {} -> {} cycles, bus bytes {} -> {}",
            stall(a),
            stall(b),
            overlap(a),
            overlap(b),
            a.counters.dma_bus_bytes,
            b.counters.dma_bus_bytes
        ),
        "resident" => format!(
            "{base}prologue dma {} -> {} cycles, dma batches {} -> {}",
            a.timeline.phase(PhaseKind::Prologue).dma_busy,
            b.timeline.phase(PhaseKind::Prologue).dma_busy,
            a.counters.dma_batches,
            b.counters.dma_batches
        ),
        _ => format!(
            "{base}compute busy {} -> {} cycles, dma busy {} -> {} cycles",
            a.timeline.compute_busy(),
            b.timeline.compute_busy(),
            dma(a),
            dma(b)
        ),
    }
}

/// Align two profiles phase-by-phase and attribute the delta.
pub fn diff(a: &CandidateProfile, b: &CandidateProfile) -> ScheduleDiff {
    let phases = [PhaseKind::Prologue, PhaseKind::Steady, PhaseKind::Epilogue]
        .into_iter()
        .map(|kind| {
            let (pa, pb) = (a.timeline.phase(kind), b.timeline.phase(kind));
            PhaseDelta {
                kind,
                a_cycles: pa.cycles(),
                b_cycles: pb.cycles(),
                a_stall: pa.stall,
                b_stall: pb.stall,
                a_overlap: pa.overlap,
                b_overlap: pb.overlap,
            }
        })
        .collect();
    let ka = parse_knobs(&a.describe);
    let kb = parse_knobs(&b.describe);
    let mut knobs = Vec::new();
    for (name, va) in &ka {
        let vb = kb.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone());
        match vb {
            Some(vb) if vb != *va => {
                knobs.push(KnobDelta { name: name.clone(), a: va.clone(), b: vb })
            }
            Some(_) => {}
            None => knobs.push(KnobDelta {
                name: name.clone(),
                a: va.clone(),
                b: "-".to_string(),
            }),
        }
    }
    for (name, vb) in &kb {
        if !ka.iter().any(|(n, _)| n == name) {
            knobs.push(KnobDelta {
                name: name.clone(),
                a: "-".to_string(),
                b: vb.clone(),
            });
        }
    }
    let commentary = knobs.iter().map(|k| knob_commentary(k, a, b)).collect();
    ScheduleDiff {
        operator: a.operator.clone(),
        a_index: a.index,
        b_index: b.index,
        a_cycles: a.cycles.get(),
        b_cycles: b.cycles.get(),
        phases,
        knobs,
        commentary,
    }
}

/// Render a diff as a human-readable report (the `profile --diff` output).
pub fn diff_report(d: &ScheduleDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "schedule diff: {} candidate #{} vs #{}",
        d.operator, d.a_index, d.b_index
    );
    let _ = writeln!(
        out,
        "  cycles: {} -> {} ({:+} = {:+.2}%)",
        d.a_cycles,
        d.b_cycles,
        d.delta(),
        if d.a_cycles == 0 { 0.0 } else { 100.0 * d.delta() as f64 / d.a_cycles as f64 }
    );
    let _ = writeln!(out, "  phase attribution (B - A):");
    for p in &d.phases {
        let _ = writeln!(
            out,
            "    {:<9} {:>12} -> {:>12}  {:+10}  (stall {} -> {}, overlap {} -> {})",
            p.kind.name(),
            p.a_cycles,
            p.b_cycles,
            p.delta(),
            p.a_stall,
            p.b_stall,
            p.a_overlap,
            p.b_overlap
        );
    }
    if d.knobs.is_empty() {
        let _ = writeln!(out, "  knobs: identical schedules");
    } else {
        let _ = writeln!(out, "  changed knobs:");
        for line in &d.commentary {
            let _ = writeln!(out, "    {line}");
        }
    }
    out
}

/// Deterministic JSON rendering of a diff (machine-readable artifact).
pub fn diff_json(d: &ScheduleDiff) -> String {
    let mut w = Writer::new();
    w.begin_obj()
        .field("diff_schema", 1u64)
        .field("operator", &d.operator)
        .field("a", d.a_index)
        .field("b", d.b_index)
        .field("a_cycles", d.a_cycles)
        .field("b_cycles", d.b_cycles)
        .field("delta", d.delta())
        .key("phases")
        .begin_arr();
    for p in &d.phases {
        w.begin_obj()
            .field("kind", p.kind.name())
            .field("a_cycles", p.a_cycles)
            .field("b_cycles", p.b_cycles)
            .field("delta", p.delta())
            .field("a_stall", p.a_stall)
            .field("b_stall", p.b_stall)
            .field("a_overlap", p.a_overlap)
            .field("b_overlap", p.b_overlap)
            .end_obj();
    }
    w.end_arr().key("knobs").begin_arr();
    for k in &d.knobs {
        w.begin_obj().field("name", &k.name).field("a", &k.a).field("b", &k.b).end_obj();
    }
    w.end_arr().end_obj();
    w.finish()
}

/// One row of the feature corpus: an evaluated candidate with its schedule
/// knobs, machine counters, measurement and bottleneck class.
#[derive(Debug, Clone)]
pub struct FeatureRow {
    pub operator: String,
    pub index: usize,
    pub describe: String,
    pub predicted: Option<f64>,
    pub measured: u64,
    pub bottleneck: Bottleneck,
    pub counters: Counters,
}

/// Extract one corpus row per *measured* candidate from a telemetry-
/// instrumented sweep, sorted by `(operator, candidate index)` so the
/// output is independent of worker scheduling.
pub fn feature_rows(summary: &Summary) -> Vec<FeatureRow> {
    let mut rows: Vec<FeatureRow> = Vec::new();
    for op in &summary.operators {
        for (c, attribution) in summary.candidates(op) {
            let (Some(measured), Some(a)) = (c.cycles, attribution) else { continue };
            rows.push(FeatureRow {
                operator: op.label.clone(),
                index: c.index.unwrap_or(usize::MAX),
                describe: c.label.clone(),
                predicted: c.predicted,
                measured,
                bottleneck: a.bottleneck,
                counters: c.counters,
            });
        }
    }
    rows.sort_by(|x, y| x.operator.cmp(&y.operator).then(x.index.cmp(&y.index)));
    rows
}

/// Render rows as the corpus JSONL file: a schema header line, then one
/// JSON object per row. Byte-deterministic (no wall-clock fields; counters
/// in [`Counters::NAMES`] order; rows pre-sorted by [`feature_rows`]).
pub fn corpus_text(rows: &[FeatureRow]) -> String {
    let mut w = Writer::new();
    w.begin_obj()
        .field("corpus_schema", CORPUS_SCHEMA)
        .field("counter_columns", Counters::NAMES.as_slice())
        .field("rows", rows.len())
        .end_obj();
    let mut out = w.finish() + "\n";
    for r in rows {
        let mut w = Writer::new();
        w.begin_obj()
            .field("op", &r.operator)
            .field("index", r.index)
            .field("measured_cycles", r.measured)
            .field("predicted", r.predicted)
            .field("bottleneck", r.bottleneck.name());
        write_knobs(&mut w, &r.describe);
        w.field("counters", r.counters.values().as_slice()).end_obj();
        out += &w.finish();
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::MatmulOp;
    use crate::scheduler::{Candidate, Scheduler};

    fn profiles() -> (CandidateProfile, CandidateProfile) {
        let cfg = MachineConfig::default();
        let op = MatmulOp::new(64, 64, 64);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        // A dbuf-off/dbuf-on pair with otherwise identical knobs. The menu
        // starts at `dbuf+bcast` (ROADMAP 23(a)), so the off side is the
        // same point built without prefetching: the program the `bcast`
        // level ran, labelled as that level was.
        let (on_i, on) = cands
            .iter()
            .enumerate()
            .find(|(_, c)| c.prefetched && c.describe.contains("dma=dbuf+bcast,"))
            .expect("space has a prefetched dma=dbuf+bcast point");
        let mut without = Scheduler::new(cfg.clone());
        without.enable_prefetch = false;
        let off = without.enumerate(&op).swap_remove(on_i);
        let describe = on.describe.replace("dma=dbuf+bcast,", "dma=bcast,");
        let off = Candidate { describe, ..off };
        let a = profile_candidate(&cfg, "mm64", on_i, &off).unwrap();
        let b = profile_candidate(&cfg, "mm64", on_i, on).unwrap();
        (a, b)
    }

    #[test]
    fn profile_measurement_matches_tuner() {
        let cfg = MachineConfig::default();
        let op = MatmulOp::new(64, 64, 64);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        let p = profile_candidate(&cfg, "mm64", 0, &cands[0]).unwrap();
        let tuner_cycles = crate::tuner::run_candidate(&cfg, &cands[0]).unwrap();
        assert_eq!(p.cycles, tuner_cycles, "profiling must not perturb the measurement");
        assert!(!p.timeline.truncated);
        assert!(p.timeline.total > 0);
    }

    #[test]
    fn parse_knobs_roundtrips_describe() {
        let knobs = parse_knobs("t_m=8, layout=blocked, dbuf=true");
        assert_eq!(
            knobs,
            vec![
                ("t_m".into(), "8".into()),
                ("layout".into(), "blocked".into()),
                ("dbuf".into(), "true".into())
            ]
        );
        assert!(parse_knobs("").is_empty());
    }

    #[test]
    fn diff_attributes_dbuf_to_stall_and_overlap() {
        let (a, b) = profiles();
        let d = diff(&a, &b);
        assert_eq!(d.knobs.len(), 1, "only dma differs: {:?}", d.knobs);
        assert_eq!(d.knobs[0].name, "dma");
        // Double buffering hides transfers: overlap must grow.
        assert!(
            b.timeline.overlap_cycles() > a.timeline.overlap_cycles(),
            "dma=dbuf+bcast should overlap dma with compute"
        );
        let report = diff_report(&d);
        assert!(report.contains("dma bcast -> dbuf+bcast: stall"), "{report}");
        assert!(report.contains("phase attribution"), "{report}");
        // Phase deltas sum to the timeline-horizon delta.
        let phase_sum: i64 = d.phases.iter().map(PhaseDelta::delta).sum();
        assert_eq!(
            phase_sum,
            b.timeline.total as i64 - a.timeline.total as i64,
            "phases partition each timeline"
        );
        sw26010::json::parse(&diff_json(&d)).unwrap();
    }

    #[test]
    fn profile_json_is_valid_and_deterministic() {
        let (a, _) = profiles();
        let j1 = profile_json(&a);
        let j2 = profile_json(&a);
        assert_eq!(j1, j2);
        sw26010::json::parse(&j1).unwrap();
        assert!(j1.contains("\"profile_schema\":1"));
        assert!(j1.contains("\"truncated\":false"));
        assert!(j1.contains("\"dma\":\"bcast\""));
    }

    /// A profile of a hand-built trace.
    fn profile_of(trace: Trace, describe: &str) -> CandidateProfile {
        CandidateProfile {
            operator: "op".into(),
            index: 7,
            describe: describe.into(),
            cycles: Cycles(0),
            counters: Counters::default(),
            bottleneck: Bottleneck::Dma,
            timeline: Timeline::build(&trace),
            trace,
        }
    }

    /// The document's events, as `(name, ph, tid)`.
    fn events(text: &str) -> Vec<(String, String, u64)> {
        let doc = sw26010::json::parse(text).unwrap();
        let events = doc.field("traceEvents").unwrap().as_arr("traceEvents").unwrap();
        let text = |e: &sw26010::json::Json, k: &str| e.field(k).unwrap().as_str(k).unwrap().to_string();
        events.iter().map(|e| (text(e, "name"), text(e, "ph"), e.field("tid").unwrap().as_u64("tid").unwrap())).collect()
    }

    fn dma(at: u64, done: u64, tag: u32) -> Event {
        let direction = sw26010::DmaDirection::MemToSpm;
        Event::DmaIssue { at: Cycles(at), done: Cycles(done), direction, payload_bytes: 4096, bus_bytes: 4096, tag }
    }

    #[test]
    fn machine_events_land_on_their_engines_and_concurrent_transfers_on_lanes() {
        let mut t = Trace::enabled(16);
        t.push(dma(0, 500, 0));
        t.push(dma(10, 300, 1)); // in flight beside tag 0: lane 1
        t.push(Event::Gemm { at: Cycles(100), cycles: Cycles(400), m: 64, n: 64, k: 64 });
        t.push(dma(500, 600, 2)); // lane 0 is free again
        t.push(Event::DmaWait { at: Cycles(500), stall: Cycles(20), tag: 1 });
        t.push(Event::DmaWait { at: Cycles(520), stall: Cycles(0), tag: 2 }); // no loss: no slice
        t.push(Event::Compute { at: Cycles(520), cycles: Cycles(30), what: "pack" });
        t.push(Event::Regcomm {
            at: Cycles(580),
            cycles: Cycles(20),
            bytes: 1024,
            direction: DmaDirection::MemToSpm,
        });
        let evs = events(&trace_json(None, &[&profile_of(t, "dbuf=true")], 1.45));
        let tid = |name: &str| evs.iter().find(|e| e.0 == name).unwrap_or_else(|| panic!("no {name}")).2;
        let thread = |name: &str| evs.iter().find(|e| e.0 == "thread_name" && e.1 == "M" && tid(name) == e.2);
        assert!(evs.iter().all(|e| !e.0.contains("stall (tag 2)")));
        assert_eq!(tid("gemm 64x64x64"), tid("stall (tag 1)"));
        assert_eq!(tid("pack"), tid("stall (tag 1)"));
        assert_eq!(tid("dma MemToSpm 4096B (tag 0)"), tid("dma MemToSpm 4096B (tag 2)"));
        assert_eq!(tid("dma MemToSpm 4096B (tag 1)"), tid("dma MemToSpm 4096B (tag 0)") + 1);
        assert_ne!(tid("regcomm scatter 1024B"), tid("dma MemToSpm 4096B (tag 1)"));
        for name in ["gemm 64x64x64", "dma MemToSpm 4096B (tag 1)", "steady", "occupancy"] {
            assert!(thread(name).is_some(), "{name} is on an unnamed thread");
        }
        let threads: Vec<u64> = evs.iter().filter(|e| e.0 == "thread_name").map(|e| e.2).collect();
        assert_eq!(threads, [0, 1, 2, 3, 4, 5], "phases, occupancy, CPE, DMA 0, DMA 1, regcomm");
        assert_eq!(evs.iter().filter(|e| e.1 == "B").count(), evs.iter().filter(|e| e.1 == "E").count());
    }

    #[test]
    fn names_are_json_escaped() {
        let mut t = Trace::enabled(4);
        t.push(Event::Compute { at: Cycles(0), cycles: Cycles(10), what: "pack \"edge\" case\\path" });
        let text = trace_json(None, &[&profile_of(t, "cand \"x\"")], 1.45);
        let names: Vec<String> = events(&text).into_iter().map(|e| e.0).collect();
        assert!(names.contains(&"pack \"edge\" case\\path".to_string()), "{names:?}");
        assert!(names.contains(&"op #7 [cand \"x\"]".to_string()), "{names:?}");
    }

    #[test]
    fn an_empty_trace_is_a_valid_document_and_truncation_is_stated() {
        assert_eq!(trace_json(None, &[], 1.45), "{\"traceEvents\":[\n]}\n");
        let evs = events(&trace_json(None, &[&profile_of(Trace::enabled(4), "")], 1.45));
        let threads = evs.iter().filter(|e| e.0 == "thread_name").count();
        assert_eq!(threads, 2, "phases and occupancy, no engine lane: {evs:?}");
        let mut t = Trace::enabled(1);
        t.push(Event::Gemm { at: Cycles(0), cycles: Cycles(10), m: 8, n: 8, k: 8 });
        t.push(Event::Gemm { at: Cycles(10), cycles: Cycles(10), m: 8, n: 8, k: 8 }); // dropped
        assert!(trace_json(None, &[&profile_of(t, "")], 1.45).contains("\"truncated\":true"));
    }

    #[test]
    fn corpus_renders_header_and_sorted_rows() {
        let rows = vec![
            FeatureRow {
                operator: "b_op".into(),
                index: 1,
                describe: "t_m=8, dbuf=true".into(),
                predicted: Some(123.5),
                measured: 1000,
                bottleneck: Bottleneck::Dma,
                counters: Counters::default(),
            },
            FeatureRow {
                operator: "a_op".into(),
                index: 2,
                describe: "t_m=4, layout=rowmajor".into(),
                predicted: None,
                measured: 900,
                bottleneck: Bottleneck::Compute,
                counters: Counters::default(),
            },
        ];
        let text = corpus_text(&rows);
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        sw26010::json::parse(header).unwrap();
        assert!(header.contains("\"corpus_schema\":1"));
        assert!(header.contains("\"rows\":2"));
        for line in lines {
            sw26010::json::parse(line).unwrap();
        }
        assert_eq!(text.lines().count(), 3, "header + 2 rows");
        assert!(text.contains("\"predicted\":null"));
        assert!(text.contains("\"layout\":\"rowmajor\""));
    }
}
