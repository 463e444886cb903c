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

use std::path::PathBuf;

use swatop_bench::experiments::{Opts, Scale, ALL};

#[test]
#[ignore = "release-only: run with --include-ignored"]
fn every_smoke_table_equals_its_recorded_golden() {
    let opts = Opts { scale: Scale::Smoke, jobs: 2, ..Opts::default() };
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
