//! `journal` — inspect and gate on the bench journal (`BENCH_swatop.json`).
//!
//! ```text
//! journal validate [FILE]
//! journal show     [FILE] [--label L]
//! journal compare  [FILE] --baseline L1 --candidate L2
//!                  [--wall-rel F] [--mad-factor F] [--cycles-rel F]
//! ```
//!
//! `compare` does the noise-aware regression check (median + MAD over each
//! label's repeated records) and exits non-zero when any gate trips, so CI
//! can use it directly.

use std::path::PathBuf;
use std::process::exit;

use swatop_bench::journal::{
    compare, consistency_warnings, convergence_lines, show_json, transition_lines, trend_lines,
    CompareOpts, Journal, record_table, DEFAULT_PATH,
};

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["strict", "json"];

fn usage() -> ! {
    eprintln!(
        "usage:\n  journal validate [FILE]\n  journal show [FILE] [--label L] [--json]\n  \
         journal compare [FILE] --baseline L1 --candidate L2\n                  \
         [--wall-rel F] [--mad-factor F] [--cycles-rel F] [--strict]\n\
         --json   machine-readable show: records + per-op GFLOPS trend as one\n         \
         JSON document on stdout\n\
         --strict turns comparability warnings (mixed jobs, throughput collapse) into failures\n\
         FILE defaults to {DEFAULT_PATH}"
    );
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };

    let mut path = PathBuf::from(DEFAULT_PATH);
    let mut flags: Vec<(String, String)> = Vec::new();
    let mut i = 1;
    while i < argv.len() {
        if let Some(name) = argv[i].strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.push((name.to_string(), "true".to_string()));
            } else {
                i += 1;
                if i >= argv.len() {
                    usage();
                }
                flags.push((name.to_string(), argv[i].clone()));
            }
        } else {
            path = PathBuf::from(&argv[i]);
        }
        i += 1;
    }
    let flag = |name: &str| flags.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
    let num = |name: &str, default: f64| {
        flag(name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };

    let journal = match Journal::load(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("journal: {e}");
            exit(2);
        }
    };

    match cmd.as_str() {
        "validate" => {
            println!(
                "{}: valid (schema {}, {} records)",
                path.display(),
                swatop_bench::journal::SCHEMA_VERSION,
                journal.records.len()
            );
        }
        "show" => {
            if flag("json").is_some() {
                println!("{}", show_json(&journal, flag("label")));
                return;
            }
            let records: Vec<_> = match flag("label") {
                Some(l) => journal.with_label(l),
                None => journal.records.iter().collect(),
            };
            if records.is_empty() {
                println!("{}: no matching records", path.display());
            }
            for r in &records {
                record_table(r).print();
                println!(
                    "  model: mape {} %, rank corr {}; mix: {}",
                    r.mape_pct.map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                    r.rank_correlation.map_or_else(|| "-".into(), |v| format!("{v:.3}")),
                    r.mix.summary()
                );
                // The two oldest committed records predate the throughput fields.
                if r.candidates_evaluated > 0 {
                    println!(
                        "  tuner: {} candidates evaluated at {:.0}/s \
                         (screened {} / measured {} / validated {})",
                        r.candidates_evaluated,
                        r.cands_per_sec,
                        r.tiers.screened,
                        r.tiers.measured,
                        r.tiers.validated
                    );
                }
                for line in convergence_lines(r) {
                    println!("  search: {line}");
                }
                println!();
            }
            // The cross-record trajectory: per-op GFLOPS with deltas.
            let trends = trend_lines(&records);
            if !trends.is_empty() {
                println!("GFLOPS trend across {} record(s):", records.len());
                for line in trends {
                    println!("  {line}");
                }
            }
        }
        "compare" => {
            let (Some(base), Some(cand)) = (flag("baseline"), flag("candidate")) else {
                usage()
            };
            let opts = CompareOpts {
                wall_rel: num("wall-rel", CompareOpts::default().wall_rel),
                mad_factor: num("mad-factor", CompareOpts::default().mad_factor),
                cycles_rel: num("cycles-rel", CompareOpts::default().cycles_rel),
            };
            let strict = flag("strict").is_some();
            let b = journal.with_label(base);
            let c = journal.with_label(cand);
            println!(
                "comparing {} baseline ({base:?}) vs {} candidate ({cand:?}) records",
                b.len(),
                c.len()
            );
            for line in transition_lines(&b, &c) {
                println!("{line}");
            }
            let warnings = consistency_warnings(&b, &c);
            for w in &warnings {
                println!("{}: {w}", if strict { "FAILURE" } else { "warning" });
            }
            let regressions = compare(&b, &c, &opts);
            let failures = regressions.len() + if strict { warnings.len() } else { 0 };
            if failures == 0 {
                println!("OK: no regression");
            } else {
                for r in &regressions {
                    println!("{r}");
                }
                exit(1);
            }
        }
        _ => usage(),
    }
}
