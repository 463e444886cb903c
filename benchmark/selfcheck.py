#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

Runs two back-to-back sets of untraced runs of every workload, each run with
another seed, and compares them the way the driver does: for each end-to-end
metric, the spread of a set (distance between the first and third quartile of
its values, as a share of their median) must stay within the metric's bound
(`setup_s` excepted), and the second set's median must not be worse than the
first's by more than the bound. A metric whose bound is below EXACT must read
bit-identically on every run.

usage: benchmark/selfcheck.py [RUNS]      (default 10 runs per set)
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = 1e-5


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    print(f"{'workload':15} {'metric':22} {'bound':>8} {'median A':>14} {'median B':>14} "
          f"{'spread A':>9} {'spread B':>9} {'B worse by':>10}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run(workload, 100 * s + i, seconds) for i in range(1, runs + 1)] for s in (1, 2)]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r[name] for r in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            spreads = [spread(v) if runs >= 2 else 0.0 for v in (a, b)]
            if bound < EXACT:
                good = len(set(a + b)) == 1
            else:
                good = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            steady = good and (bound < EXACT or max(spreads) <= bound / 3)
            verdict = "pass" if steady else "pass (spread above a third of the bound)" if good else "FAIL"
            ok &= good
            print(f"{workload:15} {name:22} {bound:8.2g} {med_a:14.6f} {med_b:14.6f} "
                  f"{spreads[0]:9.4f} {spreads[1]:9.4f} {worse:10.4f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
