//! Candidate microscope: cycle-resolved profiles, schedule diffing and the
//! search-trajectory feature corpus.
//!
//! Three consumers of the same substrate live here:
//!
//! * [`profile_candidate`] — re-run one enumerated candidate cost-only with
//!   tracing enabled and fold the event stream into a
//!   [`Timeline`](sw26010::profile::Timeline) (per-engine busy intervals,
//!   prologue/steady/epilogue phases), paired with the machine counters and
//!   roofline bottleneck. Exported as a `profile` JSON artifact and as
//!   Perfetto slice/counter tracks.
//! * [`diff`] — align two candidate profiles of the same operator
//!   phase-by-phase and attribute the cycle delta to the schedule knobs
//!   that changed (dbuf / coal / bcast / residency / tiles) — the "why is
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
use sw26010::trace::Trace;
use sw26010::{Counters, CoreGroup, Cycles, ExecMode, MachineConfig, MachineResult};

use crate::interp::{execute, instantiate};
use crate::observatory::{classify, Bottleneck, Peaks};
use crate::scheduler::Candidate;
use crate::telemetry::Summary;

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

/// Perfetto export of one profile (slice + counter tracks, candidate span
/// labelled with the knob assignment).
pub fn profile_perfetto(p: &CandidateProfile, clock_ghz: f64) -> String {
    let label = format!("{} #{} [{}]", p.operator, p.index, p.describe);
    p.timeline.to_perfetto_json(clock_ghz, &label)
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
        "dbuf" | "dma" => format!(
            "{base}stall {} -> {} cycles, dma/compute overlap {} -> {} cycles",
            stall(a),
            stall(b),
            overlap(a),
            overlap(b)
        ),
        "coal" => format!(
            "{base}dma busy {} -> {} cycles, bus bytes {} -> {}",
            dma(a),
            dma(b),
            a.counters.dma_bus_bytes,
            b.counters.dma_bus_bytes
        ),
        "bcast" => format!(
            "{base}dma busy {} -> {} cycles, regcomm scatter {} -> {} cycles, bus bytes {} -> {}",
            dma(a),
            dma(b),
            a.timeline.regcomm_cycles(),
            b.timeline.regcomm_cycles(),
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
    use crate::scheduler::Scheduler;

    fn profiles() -> (CandidateProfile, CandidateProfile) {
        let cfg = MachineConfig::default();
        let op = MatmulOp::new(64, 64, 64);
        let cands = Scheduler::new(cfg.clone()).enumerate(&op);
        // Pick a dbuf-off/dbuf-on pair with otherwise identical knobs.
        let off = cands
            .iter()
            .find(|c| c.describe.contains("dbuf=false"))
            .expect("space has a dbuf=false point");
        let on = cands
            .iter()
            .find(|c| {
                c.describe.contains("dbuf=true")
                    && parse_knobs(&c.describe)
                        .iter()
                        .filter(|(k, _)| k != "dbuf")
                        .all(|(k, v)| {
                            parse_knobs(&off.describe).iter().any(|(k2, v2)| k2 == k && v2 == v)
                        })
            })
            .expect("space has the matching dbuf=true point");
        let off_i = cands.iter().position(|c| std::ptr::eq(c, off)).unwrap();
        let on_i = cands.iter().position(|c| std::ptr::eq(c, on)).unwrap();
        let a = profile_candidate(&cfg, "mm64", off_i, off).unwrap();
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
        assert_eq!(d.knobs.len(), 1, "only dbuf differs: {:?}", d.knobs);
        assert_eq!(d.knobs[0].name, "dbuf");
        // Double buffering hides transfers: overlap must grow.
        assert!(
            b.timeline.overlap_cycles() > a.timeline.overlap_cycles(),
            "dbuf=true should overlap dma with compute"
        );
        let report = diff_report(&d);
        assert!(report.contains("dbuf false -> true"), "{report}");
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
        assert!(j1.contains("\"dbuf\":false"));
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
