//! Experiment implementations, one module per paper table/figure.
//!
//! Every `run` function returns the rendered tables; the `all_experiments`
//! binary prints them and collects them into `EXPERIMENTS_RESULTS.md`
//! (`--only fig5,table3` runs a subset by module name).
//!
//! The machine is simulated, so experiment cost scales with how much of
//! each sweep is interpreted. Three scales are supported:
//!
//! * `--smoke` — minimal sub-samples (integration tests, seconds);
//! * default — representative sub-samples and capped feature maps
//!   (whole suite in tens of minutes on one core);
//! * `--full` — the paper's complete sweeps at paper sizes (long; the
//!   black-box experiments then genuinely take hours, which is the Tab. 3
//!   story on real hardware).

pub mod fig10;
pub mod fig11;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;

use std::path::PathBuf;

use sw26010::MachineConfig;
use swatop::telemetry::Telemetry;
use swatop::tuner::TuneOptions;

/// How much of each sweep to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Default,
    Full,
}

/// Harness options shared by all experiments.
#[derive(Debug, Clone)]
pub struct Opts {
    pub scale: Scale,
    /// Spatial cap for network layers / Listing-1 sweeps (None = paper-size
    /// feature maps).
    pub spatial_cap: Option<usize>,
    /// Dimension cap for Listing-2 GEMM sweeps.
    pub gemm_cap: Option<usize>,
    /// Worker threads for tuning (candidate- and sweep-level). 1 = serial;
    /// results are identical for every value.
    pub jobs: usize,
    /// Fault-injection seed (`--faults SEED` or `SWATOP_FAULT_SEED`): tune
    /// on a simulated flaky machine. `None` = perfect machine.
    pub faults: Option<u64>,
    /// Shared telemetry recorder (`--telemetry` / `--trace-timeline` attach
    /// one). `None` = uninstrumented: bit-identical results, zero overhead.
    pub telemetry: Option<Telemetry>,
    /// Where to write the telemetry snapshot JSON (`--telemetry FILE`).
    pub telemetry_path: Option<PathBuf>,
    /// Where to write the Perfetto timeline JSON (`--trace-timeline FILE`).
    pub timeline_path: Option<PathBuf>,
    /// Append a bench-journal record after the run (`--bench-journal`).
    pub bench_journal: bool,
    /// Label for the appended journal record (`--journal-label L`).
    pub journal_label: String,
    /// Synthetic slowdown factor recorded into the journal
    /// (`--journal-handicap N`), used by CI to self-test the regression
    /// gate.
    pub journal_handicap: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: Scale::Default,
            spatial_cap: Some(32),
            gemm_cap: Some(2048),
            jobs: swatop::tuner::pool::available_jobs(),
            faults: std::env::var("SWATOP_FAULT_SEED")
                .ok()
                .and_then(|s| s.trim().parse().ok()),
            telemetry: None,
            telemetry_path: None,
            timeline_path: None,
            bench_journal: false,
            journal_label: "default".to_string(),
            journal_handicap: 1,
        }
    }
}

impl Opts {
    /// Parse command-line arguments (without the program name): `--full`
    /// removes caps and runs complete sweeps, `--smoke` sub-samples
    /// aggressively, `--cap N` sets the spatial cap, `--jobs N` sets the
    /// tuner worker count (0 or omitted = all available cores, 1 = serial).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut o = Opts::default();
        let args: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    o.scale = Scale::Full;
                    o.spatial_cap = None;
                    o.gemm_cap = None;
                }
                "--smoke" => o.scale = Scale::Smoke,
                "--cap" => {
                    i += 1;
                    let v: usize = args[i].parse().expect("--cap N");
                    o.spatial_cap = Some(v);
                }
                "--jobs" => {
                    i += 1;
                    let v: usize = args[i].parse().expect("--jobs N");
                    o.jobs = swatop::tuner::pool::resolve_jobs(Some(v));
                }
                "--faults" => {
                    i += 1;
                    o.faults = Some(args[i].parse().expect("--faults SEED"));
                }
                "--telemetry" => {
                    i += 1;
                    o.telemetry_path = Some(PathBuf::from(&args[i]));
                }
                "--trace-timeline" => {
                    i += 1;
                    o.timeline_path = Some(PathBuf::from(&args[i]));
                }
                "--bench-journal" => o.bench_journal = true,
                "--journal-label" => {
                    i += 1;
                    o.journal_label = args[i].clone();
                }
                "--journal-handicap" => {
                    i += 1;
                    o.journal_handicap = args[i].parse().expect("--journal-handicap N");
                }
                other => {
                    panic!(
                        "unknown argument {other} \
                         (try --full, --smoke, --cap N, --jobs N, --faults SEED, \
                         --telemetry FILE, --trace-timeline FILE, --bench-journal, \
                         --journal-label L, --journal-handicap N)"
                    )
                }
            }
            i += 1;
        }
        if o.telemetry_path.is_some() || o.timeline_path.is_some() {
            o.telemetry = Some(Telemetry::new());
        }
        o
    }

    /// Tuning options carrying this harness's worker count and (if any)
    /// telemetry recorder.
    pub fn tune_options(&self) -> TuneOptions {
        TuneOptions { jobs: self.jobs, telemetry: self.telemetry.clone(), ..TuneOptions::default() }
    }

    /// Flush the telemetry exporters requested on the command line: write
    /// the snapshot and/or Perfetto timeline JSON and print the
    /// human-readable per-operator summary. A no-op when uninstrumented.
    pub fn finish_telemetry(&self) {
        let Some(tel) = &self.telemetry else { return };
        let cfg = self.machine();
        let peaks = swatop::observatory::Peaks::of(&cfg);
        if let Some(path) = &self.telemetry_path {
            std::fs::write(path, tel.snapshot_json_with(Some(&peaks)))
                .expect("write telemetry JSON");
            println!("telemetry : {}", path.display());
        }
        if let Some(path) = &self.timeline_path {
            std::fs::write(path, tel.perfetto_json_with(Some(&peaks)))
                .expect("write timeline JSON");
            println!("timeline  : {} (open in ui.perfetto.dev)", path.display());
        }
        crate::report::telemetry_summary(tel, &cfg).print();
    }

    /// When `--bench-journal` was given: run the canonical benchmark op
    /// set, append the record to [`crate::journal::DEFAULT_PATH`] and print
    /// it. Returns the appended record.
    pub fn finish_journal(&self) -> Option<crate::journal::Record> {
        if !self.bench_journal {
            return None;
        }
        let bench = crate::journal::BenchOpts {
            label: self.journal_label.clone(),
            jobs: self.jobs,
            smoke: self.scale == Scale::Smoke,
            handicap: self.journal_handicap,
            faults: self.faults,
            ..crate::journal::BenchOpts::default()
        };
        let record = crate::journal::run_bench(&bench);
        let path = std::path::Path::new(crate::journal::DEFAULT_PATH);
        crate::journal::Journal::append(path, record.clone()).expect("append bench journal");
        crate::journal::record_table(&record).print();
        println!("journal   : appended record {:?} to {}", record.label, path.display());
        Some(record)
    }

    /// Deterministically sub-sample a list according to the scale.
    pub fn sample<T: Clone>(&self, items: Vec<T>, smoke_n: usize, default_n: usize) -> Vec<T> {
        let keep = match self.scale {
            Scale::Smoke => smoke_n,
            Scale::Default => default_n,
            Scale::Full => items.len(),
        };
        if items.len() <= keep {
            return items;
        }
        let step = items.len() as f64 / keep as f64;
        (0..keep).map(|i| items[(i as f64 * step) as usize].clone()).collect()
    }

    /// Spatial cap for the *black-box* experiments (Tab. 3, Figs. 9–10):
    /// brute force executes every candidate, so these default to smaller
    /// feature maps than the model-tuned sweeps.
    pub fn blackbox_cap(&self) -> Option<usize> {
        match self.scale {
            Scale::Full => None,
            _ => Some(self.spatial_cap.unwrap_or(16).min(16)),
        }
    }
}

impl Opts {
    /// The machine these options describe: the default SW26010 model, with
    /// the fault plan attached when `--faults` (or `SWATOP_FAULT_SEED`)
    /// asked for one.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig {
            fault: self.faults.map(sw26010::FaultPlan::with_seed),
            ..MachineConfig::default()
        }
    }
}

/// The machine configuration used by every experiment (always fault-free:
/// the paper's tables report clean-machine numbers; use [`Opts::machine`]
/// for fault-aware harnesses).
pub fn machine() -> MachineConfig {
    MachineConfig::default()
}

/// A convenience: percentage formatting.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}
