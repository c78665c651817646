#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads study serve whatif]
        [--runs 10] [--sets 1] [--first-seed 1000]

Runs run.py untraced `--runs` times per workload, each run with another
seed (workloads interleaved), and repeats that `--sets` times with the same
seeds.  For every end-to-end metric it prints the median and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median.  A spread above the metric's bound fails, setup_s
included; with two or more sets, a later set's median worse than the
first's by more than the bound fails too.  Exits 1 on any failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit("%s seed %d failed (exit %d)" % (workload, seed,
                                                   proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    values = {}  # (set, workload, metric) -> [values]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + i
            for w in args.workloads:
                got = run_once(w, seed, spec["run_seconds"])
                print("set %d run %d %-6s seed %d  %s" % (
                    s, i, w, seed, "  ".join(
                        "%s=%.6g" % (m["name"], got[m["name"]])
                        for m in metrics)), flush=True)
                for m in metrics:
                    values.setdefault((s, w, m["name"]), []).append(
                        got[m["name"]])

    ok = True
    for w in args.workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first, _ = spread(values[(0, w, name)])
            for s in range(args.sets):
                med, sp = spread(values[(s, w, name)])
                worse = (med - first) / first if m["better"] == "lower" \
                    else (first - med) / first
                bad_spread = sp > bound
                bad_drift = s > 0 and worse > bound
                ok = ok and not bad_spread and not bad_drift
                print("%-6s %-12s set %d median %-12.6g spread %6.3f "
                      "(bound %.2f, third %.3f)%s%s" % (
                          w, name, s, med, sp, bound, bound / 3,
                          "  SPREAD>BOUND" if bad_spread else "",
                          "  DRIFT %.3f" % worse if bad_drift else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
