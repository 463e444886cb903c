#!/usr/bin/env bash
# The repo benchmark (see benchmark/README.md and BENCHMARK.json).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run in a fresh process: the command BENCHMARK.json names. Prints
#       one `name value unit` line per metric, then the result object.
#   benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--traced]
#       without --workload: all four workloads; without --trace/--traced:
#       each untraced (end-to-end metrics), then traced (per-layer metrics).
#   benchmark/run.sh --selfcheck [RUNS]
#       two back-to-back sets of RUNS untraced runs per workload, compared
#       metric by metric against the bounds in BENCHMARK.json.
#
# Run it from the root of the checkout. Results and traces land in
# benchmark/out/. The exit code is non-zero when any op failed.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
# Share the root workspace's target directory unless the caller names one
# (a relative CARGO_TARGET_DIR is relative to the current directory).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

if [[ "${1:-}" == "--selfcheck" ]]; then
    exec python3 "$here/selfcheck.py" "${@:2}"
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/swatop-benchmark"

workloads=() traces=() pass=()
while (($#)); do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --trace) traces=("$2"); shift 2 ;;
        --traced) traces=(1); shift ;;
        *) pass+=("$1"); shift ;;
    esac
done
((${#workloads[@]})) || workloads=(gemm_space conv_net validated_mix exhaustive_ref)
((${#traces[@]})) || traces=(0 1)

status=0
for trace in "${traces[@]}"; do
    for workload in "${workloads[@]}"; do
        "$bin" --workload "$workload" --trace "$trace" --out "$here/out" ${pass[@]+"${pass[@]}"} || status=$?
    done
done
exit "$status"
