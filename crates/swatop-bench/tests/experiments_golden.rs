//! The experiment oracle: every table `swatop_cli experiments --smoke
//! --jobs 2` renders, in report order, against
//! `tests/golden/experiments_smoke.txt`. Table 3 is left out: its cells are
//! host wall-clock times.
//!
//! The tables are simulated cycles and counts only, so the text is the same
//! on every host and for every `jobs` value. Release-only (`#[ignore]`): the
//! smoke suite tunes a few hundred spaces, seconds in release and minutes in
//! debug. Run it with
//! `cargo test --release -p swatop-bench --test experiments_golden -- --include-ignored`.
//!
//! On a mismatch the new text is written to
//! `target/tmp/experiments_golden/experiments_smoke.txt`; diff it, and copy
//! it over the golden only when the move is meant.
//!
//! A second release-only test runs Table 1 at paper size (a few seconds)
//! and pins, per method and batch, how many of the 75 configurations have
//! no candidate.

use std::path::PathBuf;

use swatop_bench::experiments::{table1, Opts, ALL};

#[test]
#[ignore = "release-only: run with --include-ignored"]
fn every_smoke_table_equals_its_recorded_golden() {
    let opts = Opts { smoke: true, jobs: 2, ..Opts::default() };
    let mut got = String::new();
    for (_, _, run) in ALL.iter().filter(|&&(name, ..)| name != "table3") {
        for table in run(&opts) {
            got.push_str(&table.render());
            got.push('\n');
        }
    }
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/experiments_smoke.txt");
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    if got != want {
        let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("experiments_golden");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let moved = scratch.join("experiments_smoke.txt");
        std::fs::write(&moved, &got).expect("write the new text");
        panic!("the smoke tables moved: diff {} {}", golden.display(), moved.display());
    }
}

#[test]
#[ignore = "release-only: run with --include-ignored"]
fn paper_size_table1_counts_every_configuration() {
    let opts = Opts { jobs: 2, ..Opts::default() };
    let table = &table1::run(&opts)[0];
    assert_eq!(table.header[2..], ["cases", "Faster", "Slower", "no candidate"]);
    let mut untuned = Vec::new();
    for row in &table.rows {
        let count = |i: usize| row[i].parse::<usize>().expect("a count");
        assert_eq!(count(2) + count(5), 75, "{row:?}");
        untuned.push(format!("{} {}: {}", row[0], row[1], count(5)));
    }
    assert_eq!(
        untuned,
        [
            "implicit 1: 0",
            "implicit 32: 2",
            "implicit 128: 19",
            "explicit 1: 0",
            "explicit 32: 0",
            "explicit 128: 15",
            "winograd 1: 0",
            "winograd 32: 30",
            "winograd 128: 45",
        ]
    );
}
