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

/// What [`Opts::parse`] accepts.
const USAGE: &str = "--full, --smoke, --cap N, --jobs N, --faults SEED, --telemetry FILE, \
                     --trace-timeline FILE, --bench-journal, --journal-label L, \
                     --journal-handicap N";

impl Opts {
    /// Parse command-line arguments (without the program name): `--full`
    /// removes caps and runs complete sweeps, `--smoke` sub-samples
    /// aggressively, `--cap N` sets the spatial cap, `--jobs N` sets the
    /// tuner worker count (0 or omitted = all available cores, 1 = serial).
    /// An unknown flag, a flag without its value or a value that does not
    /// parse is an error that names it and lists the flags.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
            value.parse().map_err(|_| format!("{flag}: `{value}` is not a number (try {USAGE})"))
        }
        let mut o = Opts::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value =
                || args.next().ok_or_else(|| format!("{flag} needs a value (try {USAGE})"));
            match flag.as_str() {
                "--full" => {
                    o.scale = Scale::Full;
                    o.spatial_cap = None;
                    o.gemm_cap = None;
                }
                "--smoke" => o.scale = Scale::Smoke,
                "--cap" => o.spatial_cap = Some(number(&flag, value()?)?),
                "--jobs" => {
                    o.jobs = swatop::tuner::pool::resolve_jobs(Some(number(&flag, value()?)?));
                }
                "--faults" => o.faults = Some(number(&flag, value()?)?),
                "--telemetry" => o.telemetry_path = Some(PathBuf::from(value()?)),
                "--trace-timeline" => o.timeline_path = Some(PathBuf::from(value()?)),
                "--bench-journal" => o.bench_journal = true,
                "--journal-label" => o.journal_label = value()?,
                "--journal-handicap" => o.journal_handicap = number(&flag, value()?)?,
                other => return Err(format!("unknown argument {other} (try {USAGE})")),
            }
        }
        if o.telemetry_path.is_some() || o.timeline_path.is_some() {
            o.telemetry = Some(Telemetry::new());
        }
        Ok(o)
    }

    /// [`Opts::parse`] for a binary: a usage error is printed and exits 2.
    pub fn parse_or_exit(args: impl IntoIterator<Item = String>) -> Self {
        Self::parse(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Tuning options carrying this harness's worker count and (if any)
    /// telemetry recorder.
    pub fn tune_options(&self) -> TuneOptions {
        TuneOptions { jobs: self.jobs, telemetry: self.telemetry.clone(), ..TuneOptions::default() }
    }

    /// Write the telemetry exports requested on the command line and print
    /// the human-readable per-operator summary. A no-op when uninstrumented.
    pub fn finish_exports(&self) {
        let Some(tel) = &self.telemetry else { return };
        let summary = tel.summary(&swatop::observatory::Peaks::of(&self.machine()));
        let (snapshot, timeline) = (self.telemetry_path.as_deref(), self.timeline_path.as_deref());
        for line in crate::report::write_exports(&summary, snapshot, timeline, None) {
            println!("{line}");
        }
        crate::report::telemetry_summary(&summary).print();
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
            tune: TuneOptions::with_jobs(self.jobs),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        Opts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_flag_without_its_value_is_reported_not_indexed() {
        const VALUE_FLAGS: [&str; 7] = [
            "--cap",
            "--jobs",
            "--faults",
            "--telemetry",
            "--trace-timeline",
            "--journal-label",
            "--journal-handicap",
        ];
        for flag in VALUE_FLAGS {
            // Last on the line, alone or after other arguments.
            for args in [vec![flag], vec!["--smoke", "--bench-journal", flag]] {
                let err = parse(&args).expect_err(flag);
                assert!(err.starts_with(&format!("{flag} needs a value")), "{err}");
                assert!(err.contains("--journal-handicap N"), "no flag list: {err}");
            }
            assert!(parse(&[flag, "7"]).is_ok(), "{flag} 7");
        }
        assert!(parse(&["--jobs", "many"]).unwrap_err().contains("`many` is not a number"));
        assert!(parse(&["--frobnicate"]).unwrap_err().starts_with("unknown argument --frobnicate"));
    }

    #[test]
    fn values_land_in_their_fields() {
        let o = parse(&[
            "--smoke",
            "--cap",
            "12",
            "--jobs",
            "3",
            "--faults",
            "9",
            "--trace-timeline",
            "t.json",
            "--journal-label",
            "x",
            "--journal-handicap",
            "2",
        ])
        .unwrap();
        assert_eq!((o.scale, o.spatial_cap, o.jobs, o.faults), (Scale::Smoke, Some(12), 3, Some(9)));
        assert_eq!((o.journal_label.as_str(), o.journal_handicap), ("x", 2));
        assert_eq!(o.timeline_path, Some(PathBuf::from("t.json")));
        assert!(o.telemetry.is_some() && o.telemetry_path.is_none() && !o.bench_journal);
    }
}
