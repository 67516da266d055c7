#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 corebench/steadiness.py [--workload NAME ...] [--runs 10]
                                    [--first-seed 100] [--seconds S]

Runs each workload once per seed (seeds first-seed, first-seed+1, ...),
then prints per metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) as a
share of the median, and the metric's bound from BENCHMARK.json (each
run's values go to standard error as it ends). A
spread above a third of its bound is flagged, setup_s's too, and makes
the exit code 1. Last, per workload, the attempted and failed operations
summed over its runs: two sets on the same seeds must give the same
counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    totals = []
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d: run failed or incorrect" % (workload, seed), file=sys.stderr)
                steady = False
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, result["metrics"][name]["value"]) for name in bounds)),
                  file=sys.stderr, flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        totals.append((workload, attempted, failed))
        for name, bound in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = ""
            if spread > bound / 3:
                flag = " (above a third)"
                steady = False
            print("| %s | %s | %.6g | %.6g | %.6g | %.4f%s | %g |" %
                  (workload, name, q2, q1, q3, spread, flag, bound), flush=True)
    print()
    print("| workload | attempted | failed |")
    print("|---|---|---|")
    for workload, attempted, failed in totals:
        print("| %s | %d | %d |" % (workload, attempted, failed))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
