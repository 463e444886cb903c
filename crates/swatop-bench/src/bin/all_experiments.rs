//! Runs the paper experiments in sequence — all of them, or the ones
//! `--only` names — and, when nothing was filtered out, writes the collected
//! tables to `EXPERIMENTS_RESULTS.md` (consumed by `EXPERIMENTS.md`).
//!
//! Usage: `cargo run --release -p swatop-bench --bin all_experiments
//!        [--only fig5,table3] [--full|--smoke|--cap N] [--jobs N]
//!        [--telemetry FILE] [--trace-timeline FILE]`

use std::fmt::Write as _;
use std::time::Instant;

use swatop_bench::experiments::{
    fig10, fig11, fig5, fig6, fig7, fig8, fig9, table1, table2, table3, Opts,
};
use swatop_bench::Table;

type Run = fn(&Opts) -> Vec<Table>;

/// `(module name, section title, run)` in report order; `--only` selects by
/// module name.
const EXPERIMENTS: [(&str, &str, Run); 10] = [
    ("fig5", "Figure 5 — implicit CONV vs swDNN", fig5::run),
    ("fig6", "Figure 6 — Winograd CONV vs 16×xMath", fig6::run),
    ("fig7", "Figure 7 — explicit CONV vs xMath", fig7::run),
    ("table1", "Table 1 — 225-config sweep", |o| table1::run(o).tables),
    ("fig8", "Figure 8 — performance/efficiency", fig8::run),
    ("table2", "Table 2 — GEMM vs xMath", table2::run),
    ("table3", "Table 3 — tuning time", table3::run),
    ("fig9", "Figure 9 — model vs brute-force quality", fig9::run),
    ("fig10", "Figure 10 — auto-prefetching", fig10::run),
    ("fig11", "Figure 11 — lightweight zero padding", fig11::run),
];

/// Split `--only A,B` off the arguments; the rest are [`Opts`]'. An unknown
/// experiment name is a usage error that lists the valid ones.
fn split_only(mut args: Vec<String>) -> (Option<Vec<String>>, Vec<String>) {
    let Some(at) = args.iter().position(|a| a == "--only") else { return (None, args) };
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|&(name, ..)| name).collect();
    let only: Vec<String> = match args.get(at + 1) {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => Vec::new(),
    };
    if only.is_empty() || only.iter().any(|name| !valid.contains(&name.as_str())) {
        eprintln!("all_experiments: --only takes a comma-separated list of: {}", valid.join(", "));
        std::process::exit(2);
    }
    args.drain(at..at + 2);
    (Some(only), args)
}

fn main() {
    let (only, rest) = split_only(std::env::args().skip(1).collect());
    let opts = Opts::parse_or_exit(rest);
    let picked = |name: &str| only.as_ref().is_none_or(|only| only.iter().any(|o| o == name));
    let selected: Vec<_> = EXPERIMENTS.iter().filter(|&&(name, ..)| picked(name)).collect();
    println!("swATOP reproduction — all experiments (opts: {opts:?})");
    let mut md = String::new();
    let _ = writeln!(md, "# swATOP reproduction — measured results\n");
    let _ = writeln!(
        md,
        "Generated by `all_experiments` with options `{opts:?}` \
         (simulated SW26010 core group, see DESIGN.md).\n"
    );

    let t0 = Instant::now();
    for (_, title, run) in &selected {
        println!("==> {title}");
        let _ = writeln!(md, "## {title}\n");
        for t in run(&opts) {
            let rendered = t.render();
            println!("{rendered}");
            let _ = writeln!(md, "{rendered}");
        }
    }

    opts.finish_exports();

    if selected.len() < EXPERIMENTS.len() {
        println!("\n{} selected experiments done in {:?}", selected.len(), t0.elapsed());
        return;
    }
    let _ = writeln!(md, "\nTotal harness wall time: {:?}\n", t0.elapsed());
    std::fs::write("EXPERIMENTS_RESULTS.md", &md).expect("write results");
    println!(
        "\nAll experiments done in {:?}; tables written to EXPERIMENTS_RESULTS.md",
        t0.elapsed()
    );
}
