//! Experiment plumbing: tune an operator with [`swatop::tuner::tune`] under
//! the caller's [`TuneOptions`] and report simulated performance.
//!
//! Two levels of parallelism are available, both deterministic:
//!
//! * **candidate-level** — [`tune_op`] (and [`tune_conv`] / [`tune_gemm`] on
//!   top of it) fans the evaluation of one operator's schedule space over
//!   `opts.jobs` tuner worker threads;
//! * **sweep-level** — [`tune_conv_sweep`] / [`tune_gemm_sweep`] tune the many
//!   independent shapes of a paper sweep (225 convolution configs in
//!   Listing 1, 559 GEMM configs in Listing 2) concurrently, each shape
//!   serially inside, which parallelises cleanly even when individual
//!   schedule spaces are small.

use sw26010::{Cycles, MachineConfig};
use swatop::scheduler::{Candidate, Operator, Scheduler};
use swatop::telemetry::bus::Event;
use swatop::telemetry::{SpanId, SpanKind};
use swatop::tuner::{pool, tune, TuneOptions, TuneOutcome, WinnerValidator};
use swatop::ops::{ExplicitConvOp, ImplicitConvOp, MatmulOp, WinogradConvOp};
use swtensor::ConvShape;

/// Which convolution decomposition to tune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvMethod {
    Implicit,
    Explicit,
    Winograd,
}

impl ConvMethod {
    pub fn name(&self) -> &'static str {
        match self {
            ConvMethod::Implicit => "implicit",
            ConvMethod::Explicit => "explicit",
            ConvMethod::Winograd => "winograd",
        }
    }

    /// The method [`ConvMethod::name`] names.
    pub fn parse(name: &str) -> Option<ConvMethod> {
        [ConvMethod::Implicit, ConvMethod::Explicit, ConvMethod::Winograd]
            .into_iter()
            .find(|m| m.name() == name)
    }

    pub fn applicable(&self, shape: &ConvShape) -> bool {
        match self {
            ConvMethod::Implicit => ImplicitConvOp::applicable(shape),
            ConvMethod::Explicit => true,
            ConvMethod::Winograd => WinogradConvOp::applicable(shape),
        }
    }

    /// The operator that computes `shape` by this method.
    pub fn build(&self, shape: ConvShape) -> Box<dyn Operator> {
        match self {
            ConvMethod::Implicit => Box::new(ImplicitConvOp::new(shape)),
            ConvMethod::Explicit => Box::new(ExplicitConvOp::new(shape)),
            ConvMethod::Winograd => Box::new(WinogradConvOp::new(shape)),
        }
    }
}

/// The outcome of tuning one operator instance.
#[derive(Debug, Clone)]
pub struct TunedOp {
    pub cycles: Cycles,
    pub flops: u64,
    pub candidates: usize,
    /// The winning candidate: its `describe` is the schedule point
    /// (`knob=value` list), its executable emits the C.
    pub winner: Candidate,
    pub outcome: TuneOutcome,
    /// The operator span the run was recorded under
    /// ([`Summary::operator`](swatop::telemetry::Summary::operator) finds
    /// its numbers); `None` when uninstrumented.
    pub scope: Option<SpanId>,
}

impl TunedOp {
    pub fn gflops(&self, cfg: &MachineConfig) -> f64 {
        sw26010::clock::gflops(self.flops, self.cycles, cfg.clock_ghz)
    }

    pub fn efficiency(&self, cfg: &MachineConfig) -> f64 {
        cfg.efficiency(self.flops, self.cycles)
    }
}

/// Enumerate `op`'s schedule space and tune it under `opts`; `None` when
/// nothing can be reported (empty space, or no measurable candidate
/// survives). `label` names the operator span, the bus's
/// `OperatorStart`/`OperatorEnd` events and the pool monitor's context.
/// When `validate` is set, the winning schedule must pass the static
/// legality checker and a differential functional execution against the
/// operator's golden reference before being reported; rejected winners are
/// quarantined ([`TuneOutcome::quarantined`]) and the tuner falls back.
pub fn tune_op(
    cfg: &MachineConfig,
    op: &dyn Operator,
    label: &str,
    opts: &TuneOptions,
    validate: bool,
) -> Option<TunedOp> {
    let cands = Scheduler::new(cfg.clone()).enumerate(op);
    let n = cands.len();
    // When instrumented, the whole tune nests under one operator span and
    // the engine's candidate spans become its children.
    let mut run_opts = opts.clone();
    let span = opts.telemetry.as_ref().map(|t| {
        let id = t.open(SpanKind::Operator, label);
        run_opts.telemetry = Some(t.child_of(id));
        (t.clone(), id)
    });
    if let Some(bus) = &opts.bus {
        bus.emit_with(|| Event::OperatorStart { label: label.to_string(), candidates: n });
    }
    let validator = |_: usize, c: &Candidate| swatop::ops::validate_candidate(cfg, op, c);
    let outcome =
        tune(cfg, &cands, &run_opts, validate.then_some(&validator as &WinnerValidator)).ok();
    let scope = span.map(|(t, id)| {
        t.close(id);
        id
    });
    if let Some(bus) = &opts.bus {
        bus.emit_with(|| Event::OperatorEnd {
            label: label.to_string(),
            best_cycles: outcome.as_ref().map(|o| o.cycles.get()),
            executed: outcome.as_ref().map_or(0, |o| o.executed),
            quarantined: outcome.as_ref().map_or(0, |o| o.quarantined),
        });
    }
    let outcome = outcome?;
    let winner = cands[outcome.best].clone();
    Some(TunedOp { cycles: outcome.cycles, flops: op.flops(), candidates: n, winner, outcome, scope })
}

/// Tune a convolution with the given method ([`tune_op`] under the label
/// the journals and timelines know it by). `None` if the method is
/// inapplicable or nothing can be reported.
pub fn tune_conv(
    cfg: &MachineConfig,
    method: ConvMethod,
    shape: &ConvShape,
    opts: &TuneOptions,
    validate: bool,
) -> Option<TunedOp> {
    if !method.applicable(shape) {
        return None;
    }
    tune_op(cfg, method.build(*shape).as_ref(), &conv_label(method, shape), opts, validate)
}

/// Operator-span label for a convolution instance.
fn conv_label(method: ConvMethod, s: &ConvShape) -> String {
    format!(
        "{} conv b{} {}x{} ni{} no{} k{}x{} s{}",
        method.name(),
        s.b,
        s.ro,
        s.co,
        s.ni,
        s.no,
        s.kr,
        s.kc,
        s.stride
    )
}

/// Tune a matrix multiplication; see [`tune_conv`].
pub fn tune_gemm(
    cfg: &MachineConfig,
    m: usize,
    n: usize,
    k: usize,
    opts: &TuneOptions,
    validate: bool,
) -> Option<TunedOp> {
    tune_op(cfg, &MatmulOp::new(m, n, k), &format!("gemm {m}x{n}x{k}"), opts, validate)
}

/// Tune every shape of a convolution sweep, one of `opts.jobs` workers per
/// shape (each shape tunes serially inside). Results are index-aligned with
/// `shapes` and identical to a serial loop for any `jobs` value. When
/// instrumented, the whole sweep nests under one `Sweep` span and each
/// shape's operator span is pinned to the worker that tuned it, so the
/// Perfetto export renders one timeline track per sweep worker.
/// `opts.checkpoint` is not propagated to the per-shape runs (they would
/// race on one checkpoint file).
pub fn tune_conv_sweep(
    cfg: &MachineConfig,
    method: ConvMethod,
    shapes: &[ConvShape],
    opts: &TuneOptions,
) -> Vec<Option<TunedOp>> {
    sweep(opts, &format!("conv sweep [{}] ({} shapes)", method.name(), shapes.len()), |shape_opts| {
        pool::par_map(opts.jobs, shapes, |w, _, s| tune_conv(cfg, method, s, &shape_opts(w), false))
    })
}

/// Tune every `(m, n, k)` of a GEMM sweep, one worker per shape; see
/// [`tune_conv_sweep`] for the instrumentation contract.
pub fn tune_gemm_sweep(
    cfg: &MachineConfig,
    shapes: &[(usize, usize, usize)],
    opts: &TuneOptions,
) -> Vec<Option<TunedOp>> {
    sweep(opts, &format!("gemm sweep ({} shapes)", shapes.len()), |shape_opts| {
        pool::par_map(opts.jobs, shapes, |w, _, &(m, n, k)| {
            tune_gemm(cfg, m, n, k, &shape_opts(w), false)
        })
    })
}

/// Shared sweep harness: opens the `Sweep` span, hands the body a factory
/// that builds the per-worker options (serial inside each shape, telemetry
/// scoped under the sweep span and pinned to the worker's track), closes
/// the span when the body returns.
fn sweep<R>(
    opts: &TuneOptions,
    label: &str,
    body: impl FnOnce(&(dyn Fn(usize) -> TuneOptions + Sync)) -> R,
) -> R {
    let span = opts.telemetry.as_ref().map(|t| (t.clone(), t.open(SpanKind::Sweep, label)));
    if let Some(bus) = &opts.bus {
        bus.emit_with(|| Event::SweepStart { label: label.to_string() });
    }
    let shape_opts = |w: usize| {
        TuneOptions {
            jobs: 1,
            checkpoint: None,
            telemetry: span.as_ref().map(|(t, id)| t.child_of(*id).on_track(w)),
            ..opts.clone()
        }
    };
    let out = body(&shape_opts);
    if let Some((t, id)) = span {
        t.close(id);
    }
    if let Some(bus) = &opts.bus {
        bus.emit_with(|| Event::SweepEnd { label: label.to_string() });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> TuneOptions {
        TuneOptions::default()
    }

    #[test]
    fn tune_small_conv_all_methods() {
        let cfg = MachineConfig::default();
        let shape = ConvShape::square(32, 16, 16, 8);
        for method in [ConvMethod::Implicit, ConvMethod::Explicit, ConvMethod::Winograd] {
            let t = tune_conv(&cfg, method, &shape, &serial(), false)
                .unwrap_or_else(|| panic!("{} failed", method.name()));
            assert!(t.cycles.get() > 0);
            assert!(t.candidates > 0);
            assert!(t.efficiency(&cfg) > 0.0 && t.gflops(&cfg) > 0.0);
        }
    }

    #[test]
    fn tune_small_gemm() {
        let cfg = MachineConfig::default();
        let t = tune_gemm(&cfg, 96, 96, 96, &serial(), false).unwrap();
        assert!(t.cycles.get() > 0);
    }

    #[test]
    fn winograd_inapplicable_for_strided() {
        let cfg = MachineConfig::default();
        let mut shape = ConvShape::square(8, 16, 16, 8);
        shape.stride = 2;
        assert!(tune_conv(&cfg, ConvMethod::Winograd, &shape, &serial(), false).is_none());
    }

    #[test]
    fn sweep_matches_serial_loop() {
        let cfg = MachineConfig::default();
        let shapes: Vec<ConvShape> = (1..5)
            .map(|b| ConvShape::square(8 * b, 16, 16, 8))
            .collect();
        let serial: Vec<Option<Cycles>> = shapes
            .iter()
            .map(|s| tune_conv(&cfg, ConvMethod::Implicit, s, &serial(), false).map(|t| t.cycles))
            .collect();
        for jobs in [1, 2, 4] {
            let sweep =
                tune_conv_sweep(&cfg, ConvMethod::Implicit, &shapes, &TuneOptions::with_jobs(jobs));
            let got: Vec<Option<Cycles>> =
                sweep.iter().map(|t| t.as_ref().map(|t| t.cycles)).collect();
            assert_eq!(got, serial, "jobs={jobs}");
        }
    }
}
