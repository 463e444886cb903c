//! Observability guarantees: the event bus, the pool monitor/watchdog and
//! the `/metrics` endpoint are strictly report-only.
//!
//! * The *multiset* of deterministic event keys a tuning run emits is
//!   identical for every `--jobs` value (worker ids and host timing never
//!   leak into lifecycle payloads).
//! * A run with the bus and watchdog attached produces bit-identical
//!   winners, cycles and convergence to a run with observability disabled.
//! * The watchdog flags an injected wedged candidate (fault-plan hook) and
//!   never fires on a clean sweep.
//! * `/metrics` serves valid Prometheus text under concurrent scrapes in
//!   the middle of a sweep.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sw26010::{FaultPlan, MachineConfig};
use swatop::ops::MatmulOp;
use swatop::scheduler::{Candidate, Scheduler};
use swatop::telemetry::bus::{Event, EventBus};
use swatop::telemetry::metrics::{MetricsHub, MetricsServer};
use swatop::tuner::pool::{MonitorConfig, PoolMonitor};
use swatop::tuner::{tune, TuneOptions};

fn gemm_space(cfg: &MachineConfig) -> Vec<Candidate> {
    let cands = Scheduler::new(cfg.clone()).enumerate(&MatmulOp::new(64, 64, 32));
    assert!(cands.len() > 10, "need a nontrivial space, got {}", cands.len());
    cands
}

fn opts(jobs: usize, bus: Option<EventBus>, monitor: Option<Arc<PoolMonitor>>) -> TuneOptions {
    TuneOptions { jobs, bus, monitor, ..TuneOptions::default() }
}

/// A fault plan that injects nothing at all except the requested wedge:
/// measured cycles stay bit-identical to the clean machine.
fn wedge_only(index: usize, wedge_ms: u32) -> FaultPlan {
    FaultPlan {
        wedge_run: Some(index as u64),
        wedge_ms,
        dma_fail_ppm: 0,
        spm_pressure_ppm: 0,
        spm_steal_max_permille: 0,
        jitter_permille: 0,
        ..FaultPlan::with_seed(1)
    }
}

/// The multiset of deterministic event keys is `--jobs`-invariant: same
/// sweep, same lifecycle story, whatever the scheduling.
#[test]
fn event_key_multiset_is_jobs_invariant() {
    let cfg = MachineConfig::default();
    let cands = gemm_space(&cfg);
    let mut keysets: Vec<Vec<String>> = Vec::new();
    for jobs in [1, 4] {
        let bus = EventBus::default();
        let sub = bus.subscribe(1 << 16);
        let out = tune(&cfg, &cands, &opts(jobs, Some(bus.clone()), None), None).unwrap();
        assert!(out.executed > 0);
        let events = sub.drain();
        assert_eq!(sub.dropped(), 0, "ring must be big enough for the whole run");
        let mut keys: Vec<String> =
            events.iter().filter_map(Event::deterministic_key).collect();
        assert!(
            keys.iter().any(|k| k.starts_with("cand ")),
            "expected candidate lifecycle events"
        );
        keys.sort();
        keysets.push(keys);
    }
    assert_eq!(keysets[0], keysets[1], "jobs=1 vs jobs=4 event multiset");
}

/// Attaching the bus and the watchdog perturbs nothing: every
/// decision-bearing field of the outcome is bit-identical to an
/// observability-disabled run — and a clean sweep never trips the
/// watchdog.
#[test]
fn bus_and_watchdog_never_perturb_results() {
    let cfg = MachineConfig::default();
    let cands = gemm_space(&cfg);
    let plain = tune(&cfg, &cands, &opts(2, None, None), None).unwrap();

    let bus = EventBus::default();
    let sub = bus.subscribe(1 << 16);
    let monitor = Arc::new(PoolMonitor::new(MonitorConfig::default(), Some(bus.clone())));
    let watched =
        tune(&cfg, &cands, &opts(2, Some(bus), Some(monitor.clone())), None).unwrap();

    assert_eq!(plain.best, watched.best);
    assert_eq!(plain.cycles, watched.cycles);
    assert_eq!(plain.all_cycles, watched.all_cycles);
    assert_eq!(plain.convergence, watched.convergence);
    assert_eq!(plain.screened, watched.screened);
    assert_eq!(plain.executed, watched.executed);

    // Clean sweep: the 30 s default threshold never fires on
    // millisecond-scale measurements.
    assert!(
        !sub.drain().iter().any(|e| matches!(e, Event::StallFlagged { .. })),
        "StallFlagged on a clean sweep"
    );
    // The monitor did account the work, though.
    let items: u64 = monitor.worker_stats().iter().map(|s| s.items).sum();
    assert_eq!(items as usize, watched.executed);
}

/// The fault plan's wedge hook stalls one candidate's host wall (never its
/// simulated cycles); the watchdog flags exactly that candidate, with its
/// span path, and the tuning answer is unchanged.
#[test]
fn watchdog_flags_injected_wedge() {
    let cfg = MachineConfig::default();
    let cands = gemm_space(&cfg);
    let clean = tune(&cfg, &cands, &opts(2, None, None), None).unwrap();
    // Wedge a candidate the ladder certainly measures: the winner.
    let wedge_idx = clean.best;

    let fcfg = MachineConfig { fault: Some(wedge_only(wedge_idx, 300)), ..cfg.clone() };
    let bus = EventBus::default();
    let sub = bus.subscribe(1 << 16);
    let monitor = Arc::new(PoolMonitor::new(
        MonitorConfig { stall_after: Duration::from_millis(50) },
        Some(bus.clone()),
    ));
    let wedged =
        tune(&fcfg, &cands, &opts(2, Some(bus), Some(monitor.clone())), None).unwrap();

    // Report-only: the wedge slept host time, the answer is bit-identical.
    assert_eq!(wedged.best, clean.best);
    assert_eq!(wedged.cycles, clean.cycles);

    // What the watchdog flagged is what a bus subscriber reads: the wedged
    // candidate once, with its span path and how long it had been in flight.
    let events = sub.drain();
    let flagged: Vec<(&String, u64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::StallFlagged { index, path, stalled_ms, .. } if *index == wedge_idx => {
                Some((path, *stalled_ms))
            }
            _ => None,
        })
        .collect();
    assert_eq!(flagged.len(), 1, "the wedged candidate {wedge_idx} flagged once: {events:?}");
    let (path, stalled_ms) = flagged[0];
    assert!(stalled_ms >= 50, "flagged too early: {stalled_ms}");
    assert!(!path.is_empty(), "a stall must carry the span path");
    // Once the run is over no item is in flight, so nothing more is flagged.
    drop(monitor);
    assert!(
        !sub.drain().iter().any(|e| matches!(e, Event::StallFlagged { .. })),
        "flagged after the run finished"
    );
}

/// One blocking scrape of `http://{addr}/metrics`; returns the body after
/// asserting the status line and exposition content type.
fn scrape(addr: &std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect /metrics");
    // One write_all: the server answers after its first read, so a
    // multi-write request could race its response.
    let request = format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "bad status: {head}");
    assert!(head.contains("text/plain; version=0.0.4"), "bad content type: {head}");
    body.to_string()
}

/// Every line of a Prometheus exposition is a comment or `name[{labels}]
/// value` with a finite numeric value.
fn assert_prometheus(body: &str) {
    assert!(!body.is_empty());
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(series.starts_with("swatop_"), "bad series name in {line:?}");
        let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in {line:?}"));
        assert!(v.is_finite());
    }
}

/// `/metrics` answers concurrent scrapers with valid exposition text while
/// a sweep is mid-flight, and reflects the sweep's volume once it lands.
#[test]
fn metrics_endpoint_survives_concurrent_scrapes_mid_sweep() {
    let cfg = MachineConfig::default();
    let cands = gemm_space(&cfg);
    let bus = EventBus::default();
    let monitor = Arc::new(PoolMonitor::new(MonitorConfig::default(), Some(bus.clone())));
    let hub = Arc::new(MetricsHub::new(&bus, Some(monitor.clone()), 1 << 14));
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&hub)).expect("bind");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u32;
                while !stop.load(Ordering::Acquire) {
                    assert_prometheus(&scrape(&addr));
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let out = tune(&cfg, &cands, &opts(4, Some(bus), Some(monitor)), None).unwrap();
    // One more scrape after the run so the final counters are folded.
    stop.store(true, Ordering::Release);
    let total: u32 = scrapers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "no scrape completed");

    let text = hub.prometheus_text();
    assert_prometheus(&text);
    let measured = text
        .lines()
        .find_map(|l| l.strip_prefix("swatop_candidates_measured_total "))
        .expect("candidates_measured_total series")
        .trim()
        .parse::<f64>()
        .unwrap();
    assert_eq!(measured as usize, out.executed);

    server.shutdown();
}
