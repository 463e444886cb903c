//! Live `/metrics` endpoint: a Prometheus text-exposition scrape surface
//! for a running sweep.
//!
//! [`MetricsHub`] subscribes to the [`bus`](crate::telemetry::bus) and
//! holds the run's one [`Fold`]: drained events are folded at *scrape* time
//! — the tuner never blocks on a scraper, and a scraper never blocks the
//! tuner beyond one mailbox mutex push — and [`MetricsHub::snapshot`] is
//! what both renderers read, the family table here and the flight report's
//! HTML. [`MetricsServer`] is a deliberately minimal
//! `std::net` HTTP/1.1 responder (serial accept loop, fixed headers,
//! `Connection: close`): it serves exactly one document, so a real HTTP
//! stack would be dead weight. The text is one table of metric families —
//! `(name, help, kind, samples)` — rendered by one family writer with one
//! label escaper: the shared kernel-cost cache, then the live sweep gauges:
//! candidate funnel and throughput, ETA for the operator in flight,
//! per-worker utilization from the [`PoolMonitor`], stall and quarantine
//! counts, and the bus's own received/dropped counters so
//! a scraper can tell sampled data from complete data.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::telemetry::bus::{EventBus, Fold, Subscriber};
use crate::tuner::pool::{PoolMonitor, WorkerStats};

/// What the hub knows at one instant: the fold of every event delivered so
/// far, and how complete that is.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub fold: Fold,
    /// Events the hub's subscriber received.
    pub received: u64,
    /// Events it lost to ring overflow — when non-zero the fold's counts are
    /// lower bounds.
    pub dropped: u64,
    /// Artifacts whose contents were silently capped (e.g. a trace that hit
    /// its event cap).
    pub truncated: Vec<String>,
}

/// Aggregates live sweep state for the `/metrics` endpoint and the flight
/// report's live sections. Thread-safe; snapshots are serialized on an
/// internal mutex.
pub struct MetricsHub {
    sub: Subscriber,
    monitor: Option<Arc<PoolMonitor>>,
    fold: Mutex<Fold>,
    truncated: Mutex<Vec<String>>,
    epoch: Instant,
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub").field("fold", &*self.fold.lock()).finish()
    }
}

/// One sample line of a family: its label pair, if any, and its value.
type Sample = (Option<(&'static str, String)>, String);

/// One metric family: `(name, help, kind, samples)`.
type Family = (&'static str, &'static str, &'static str, Vec<Sample>);

/// Escape a Prometheus label value. Carriage returns fold into the newline
/// escape (the format has none for them), so a hostile value — the
/// truncated-artifact label is a user-supplied path — can never split the
/// sample line.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace(['\n', '\r'], "\\n")
}

/// `# HELP` / `# TYPE` and one line per sample; a family without samples
/// is left out.
fn write_family(out: &mut String, (name, help, kind, samples): &Family) {
    if samples.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP swatop_{name} {help}\n# TYPE swatop_{name} {kind}");
    for (label, value) in samples {
        let _ = match label {
            Some((key, v)) => {
                writeln!(out, "swatop_{name}{{{key}=\"{}\"}} {value}", escape_label(v))
            }
            None => writeln!(out, "swatop_{name} {value}"),
        };
    }
}

impl MetricsHub {
    /// Subscribe to `bus` (ring of `cap` events — overflow only loses
    /// granularity of the fold between scrapes, and is itself exported as
    /// `swatop_bus_events_dropped_total`).
    pub fn new(bus: &EventBus, monitor: Option<Arc<PoolMonitor>>, cap: usize) -> MetricsHub {
        MetricsHub {
            sub: bus.subscribe(cap),
            monitor,
            fold: Mutex::new(Fold::default()),
            truncated: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Record an artifact whose contents were silently capped.
    pub fn note_truncated(&self, artifact: &str) {
        self.truncated.lock().push(artifact.to_string());
    }

    /// Fold any pending events and report the accounting so far.
    pub fn snapshot(&self) -> Snapshot {
        let fold = {
            let mut fold = self.fold.lock();
            for e in self.sub.drain() {
                fold.fold(e);
            }
            fold.clone()
        };
        Snapshot {
            fold,
            received: self.sub.received(),
            dropped: self.sub.dropped(),
            truncated: self.truncated.lock().clone(),
        }
    }

    /// Render [`MetricsHub::snapshot`] as the full Prometheus text
    /// exposition.
    pub fn prometheus_text(&self) -> String {
        let Snapshot { fold, received, dropped, truncated } = self.snapshot();
        let elapsed = self.epoch.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { fold.measured as f64 / elapsed } else { 0.0 };
        let eta = match fold.in_flight() {
            Some(op) if rate > 0.0 => {
                (op.candidates as u64).saturating_sub(op.measured) as f64 / rate
            }
            _ => 0.0,
        };
        let ended = fold.operators.iter().filter(|o| o.end.is_some()).count();

        let one = |value: String| vec![(None, value)];
        let count = |n: u64| one(n.to_string());
        // The one process-wide evaluation cache: kernel-cost queries.
        let (hits, misses, entries) = swkernels::cost::cache_stats();
        let kernel_cost = |value: String| vec![(Some(("cache", "kernel_cost".to_string())), value)];
        let (elapsed_ms, workers) = match &self.monitor {
            Some(m) => (m.elapsed_ms().max(1), m.worker_stats()),
            None => (1, Vec::new()),
        };
        let per_worker = |value: &dyn Fn(&WorkerStats) -> String| -> Vec<Sample> {
            let labelled = |(w, s)| (Some(("worker", format!("{w}"))), value(s));
            workers.iter().enumerate().map(labelled).collect()
        };
        // Artifacts known to be capped: the count, then one labelled sample
        // each, so capped data is visible, not implied-complete.
        let mut artifacts = count(truncated.len() as u64);
        artifacts.extend(truncated.into_iter().map(|a| (Some(("artifact", a)), "1".into())));

        #[rustfmt::skip]
        let families: [Family; 20] = [
            ("cache_hits_total", "Evaluation-cache hits since process start",
             "counter", kernel_cost(hits.to_string())),
            ("cache_misses_total", "Evaluation-cache misses since process start",
             "counter", kernel_cost(misses.to_string())),
            ("cache_entries", "Resident evaluation-cache entries",
             "gauge", kernel_cost(entries.to_string())),
            ("candidates_measured_total", "Candidates measured this run (funnel numerator)",
             "counter", count(fold.measured)),
            ("candidates_failed_total", "Candidates that failed terminally this run",
             "counter", count(fold.failed)),
            ("candidate_retries_total", "Transient-failure retries consumed this run",
             "counter", count(fold.retries)),
            ("quarantined_total", "Prospective winners quarantined by validation this run",
             "counter", count(fold.quarantines.len() as u64)),
            ("operators_started_total", "Operators whose tuning started this run",
             "counter", count(fold.operators.len() as u64)),
            ("operators_completed_total", "Operators whose tuning completed this run",
             "counter", count(ended as u64)),
            ("sweeps_started_total", "Multi-operator sweeps started this run",
             "counter", count(fold.sweeps.len() as u64)),
            ("waves_total", "Scoreboard measurement waves dispatched this run",
             "counter", count(fold.waves)),
            ("checkpoints_saved_total", "Checkpoint files written this run",
             "counter", count(fold.checkpoints)),
            ("stalls_flagged_total", "Wedged worker/candidate pairs flagged by the watchdog",
             "counter", count(fold.stalls.len() as u64)),
            ("candidates_per_sec", "Measured-candidate throughput since endpoint start",
             "gauge", one(format!("{rate:.3}"))),
            ("eta_seconds", "Estimated seconds left for the operator in flight (0 = idle)",
             "gauge", one(format!("{eta:.3}"))),
            ("worker_utilization",
             "Fraction of host time each worker slot spent inside candidate bodies",
             "gauge", per_worker(&|s| format!("{:.4}", s.busy_ms as f64 / elapsed_ms as f64))),
            ("worker_items_total", "Items finished per worker slot",
             "counter", per_worker(&|s| s.items.to_string())),
            ("bus_events_received_total", "Lifecycle events delivered to the metrics subscriber",
             "counter", count(received)),
            ("bus_events_dropped_total",
             "Lifecycle events the metrics subscriber lost to ring overflow",
             "counter", count(dropped)),
            ("truncated_artifacts", "Artifacts whose contents were silently capped this run",
             "gauge", artifacts),
        ];
        let mut out = String::new();
        for family in &families {
            write_family(&mut out, family);
        }
        out
    }
}

/// Minimal HTTP responder serving [`MetricsHub::prometheus_text`] on
/// `GET /metrics` (and `GET /`). One request per connection, serial accept
/// loop — a scrape cadence of seconds against a sub-millisecond render
/// needs nothing more.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer").field("addr", &self.addr).finish()
    }
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`; port 0 picks an ephemeral port,
    /// see [`MetricsServer::addr`]) and serve scrapes on a background
    /// thread until [`MetricsServer::shutdown`].
    pub fn start(addr: &str, hub: Arc<MetricsHub>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("swatop-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    let mut buf = [0u8; 1024];
                    let n = stream.read(&mut buf).unwrap_or(0);
                    let req = String::from_utf8_lossy(&buf[..n]);
                    let (status, body) = if req.starts_with("GET / ")
                        || req.starts_with("GET /metrics")
                        || req.is_empty()
                    {
                        ("200 OK", hub.prometheus_text())
                    } else {
                        ("404 Not Found", "not found\n".to_string())
                    };
                    let response = format!(
                        "HTTP/1.1 {status}\r\n\
                         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                         Content-Length: {}\r\n\
                         Connection: close\r\n\r\n{body}",
                        body.len()
                    );
                    let _ = stream.write_all(response.as_bytes());
                }
            })?;
        Ok(MetricsServer { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves port 0 to the ephemeral port chosen).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::bus::Event;
    use crate::tuner::pool::MonitorConfig;

    /// Line-level Prometheus text-exposition check: every non-comment line
    /// is `name[{labels}] value` with a parseable float value.
    fn assert_prometheus(text: &str) {
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in {line:?}"));
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let name = series.split('{').next().unwrap();
            assert!(
                !name.is_empty()
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad series name in {line:?}"
            );
        }
    }

    #[test]
    fn hub_folds_events_into_valid_exposition() {
        let bus = EventBus::new();
        let monitor = Arc::new(PoolMonitor::new(MonitorConfig::default(), Some(bus.clone())));
        monitor.begin(0, 3, "dbuf=true");
        monitor.finish(0);
        let hub = MetricsHub::new(&bus, Some(Arc::clone(&monitor)), 1024);
        bus.emit(Event::OperatorStart { label: "gemm".into(), candidates: 10 });
        bus.emit(Event::WaveStart { size: 4 });
        for i in 0..4usize {
            bus.emit(Event::CandidateMeasured {
                index: i,
                cycles: (i != 2).then_some(100 + i as u64),
                retries: u32::from(i == 1),
                worker: 0,
            });
        }
        bus.emit(Event::WaveEnd { measured: 3, failed: 1 });
        bus.emit(Event::Quarantined { index: 0, reason: "bad".into() });
        hub.note_truncated("trace \"t\"");
        let text = hub.prometheus_text();
        assert_prometheus(&text);
        assert!(text.contains("swatop_candidates_measured_total 4"), "{text}");
        assert!(text.contains("swatop_candidates_failed_total 1"), "{text}");
        assert!(text.contains("swatop_candidate_retries_total 1"), "{text}");
        assert!(text.contains("swatop_quarantined_total 1"), "{text}");
        assert!(text.contains("swatop_cache_hits_total"), "{text}");
        assert!(text.contains("swatop_worker_items_total{worker=\"0\"} 1"), "{text}");
        assert!(text.contains("swatop_truncated_artifacts 1"), "{text}");
        assert!(text.contains("artifact=\"trace \\\"t\\\"\""), "{text}");
        assert!(text.contains("swatop_eta_seconds"), "{text}");
    }

    /// The engine reports a failed measurement twice — as `CandidateMeasured
    /// { cycles: None }` and inside `WaveEnd { failed }` — and a panicked item
    /// only in the latter; `/metrics` counts each candidate once.
    #[test]
    fn a_failed_candidate_is_counted_once() {
        let bus = EventBus::new();
        let hub = MetricsHub::new(&bus, None, 64);
        bus.emit(Event::WaveStart { size: 1 });
        bus.emit(Event::CandidateMeasured { index: 0, cycles: None, retries: 0, worker: 0 });
        bus.emit(Event::WaveEnd { measured: 0, failed: 1 });
        let text = hub.prometheus_text();
        assert!(text.contains("swatop_candidates_failed_total 1\n"), "{text}");
        assert!(text.contains("swatop_candidates_measured_total 1\n"), "{text}");
    }

    #[test]
    fn prometheus_text_survives_hostile_labels() {
        let bus = EventBus::new();
        let hub = MetricsHub::new(&bus, None, 64);
        hub.note_truncated("a\r\nb\"\\");
        hub.note_truncated("evil\ninjected_metric 1");
        let text = hub.prometheus_text();
        // Every line is a HELP/TYPE comment or a sample — a line break in a
        // label value must never fabricate a new exposition line.
        assert_prometheus(&text);
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP swatop_")
                    || line.starts_with("# TYPE swatop_")
                    || line.starts_with("swatop_"),
                "injected line: {line:?}"
            );
        }
        assert!(!text.contains('\r'), "{text:?}");
        assert!(text.contains("_artifacts{artifact=\"a\\n\\nb\\\"\\\\\"} 1\n"), "{text}");
        assert!(text.contains("artifact=\"evil\\ninjected_metric 1\"} 1\n"), "{text}");
    }

    #[test]
    fn server_serves_scrapes_and_404s_unknown_paths() {
        let bus = EventBus::new();
        let hub = Arc::new(MetricsHub::new(&bus, None, 64));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let addr = server.addr();
        let get = |path: &str| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = get("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"), "{ok}");
        let body = ok.split("\r\n\r\n").nth(1).unwrap();
        assert_prometheus(body);
        assert!(get("/nope").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }
}
