#!/usr/bin/env python3
"""Runs one corelocate benchmark workload and prints its result line.

    python3 corebench/run.py --workload survey|serve-hot|serve-cold|covert
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the corebench
binary and the library sources under src/ into .bench_build/corebench.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. Every output is checked against the
answers stored under corebench/oracle/: an output that is not the stored
answer counts as a failed operation. An operation the program reports as
failed, or an output the oracle does not list as a known wrong answer
either, also makes "correct" false and the exit code 1.
Diagnostics go to standard error.
"""

import argparse
import bisect
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "corebench")
BINARY = os.path.join(BUILD, "corebench")
WORKLOADS = ("survey", "serve-hot", "serve-cold", "covert")
RUN_TIMEOUT_S = 170

# Mean duration of the benchmark's own layer spans: metric -> (span, scale).
SPAN_METRICS = {
    "sim.factory_us": ("sim.factory", 1.0),
    "sim.construct_ms": ("sim.construct", 1e-3),
    "sim.destroy_ms": ("sim.destroy", 1e-3),
    "core.step1_ms": ("core.step1", 1e-3),
    "core.step2_ms": ("core.step2", 1e-3),
    "core.step3_ms": ("core.step3", 1e-3),
    "serve.fingerprint_us": ("serve.fingerprint", 1.0),
    "serve.solve_ms": ("serve.solve", 1e-3),
    "serve.pump_ms": ("serve.pump", 1e-3),
    "covert.decode_ms": ("covert.decode", 1e-3),
}

# The span whose time trace.uncovered_ratio splits, per workload:
# (name, category). Survey and serve use the program's own unit spans.
UNIT_SPAN = {
    "survey": ("instance", "fleet"),
    "serve-hot": ("serve_batch", "serve"),
    "serve-cold": ("serve_batch", "serve"),
    "covert": ("covert.unit", "corebench"),
}


def log(message):
    print("corebench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found at %s" % os.path.join(ROOT, "src"))
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.isfile(BINARY)


def run_binary(args, extra=()):
    """Runs the corebench binary; returns its parsed JSON line or None."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + list(extra)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("corebench timed out after %d s" % RUN_TIMEOUT_S)
        return None
    if proc.returncode != 0:
        log("corebench exited with %d" % proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def matches(output, stored):
    """A run reports some of the kinds the oracle stores for a unit."""
    return all(stored.get(kind) == value for kind, value in output.items())


def check_oracle(workload, seed, result, traced):
    """Checks every output against the stored answers.

    Returns (failed, unexpected): the uses whose output is not the stored
    answer, and of those the ones whose output is not a known wrong
    answer either (oracle "known_wrong": outputs of the seed build that
    make_oracle.py found wrong). Known wrong outputs are failed operations;
    unexpected ones also make the run incorrect.
    """
    oracle = load_json(os.path.join(HERE, "oracle", workload + ".json"))["units"]
    failed = 0
    unexpected = 0
    for key, uses in sorted(result["units"].items()):
        stored = oracle.get(key, {})
        for use in uses:
            output, count = use["output"], int(use["uses"])
            if any(matches(output, answer) for answer in stored.get("accepted", [])):
                continue
            failed += count
            if any(matches(output, wrong) for wrong in stored.get("known_wrong", [])):
                log("%s: known wrong output %s on %d uses" % (key, output, count))
            else:
                unexpected += count
                log("%s: output %s on %d uses, expected %s" %
                    (key, output, count, stored.get("accepted", "a unit in the oracle")))
    if not traced:
        seeds = load_json(os.path.join(HERE, "oracle", "seeds.json"))
        expected = seeds["run_digest"].get(workload, {}).get(str(seed))
        if expected is not None and expected != result.get("run_digest"):
            log("run digest %s, expected %s for seed %d" %
                (result.get("run_digest"), expected, seed))
            failed += 1
            unexpected += 1
    return failed, unexpected


def trace_metrics(workload, trace_path):
    """Per-layer times and span coverage from the Chrome trace."""
    events = [e for e in load_json(trace_path)["traceEvents"] if e.get("ph") == "X"]
    metrics = {}
    for metric, (span, scale) in SPAN_METRICS.items():
        durations = [e["dur"] for e in events if e["cat"] == "corebench" and e["name"] == span]
        if durations:
            metrics[metric] = sum(durations) / len(durations) * scale
    name, cat = UNIT_SPAN[workload]
    events.sort(key=lambda e: (e["ts"], -e["dur"]))
    starts = [e["ts"] for e in events]
    total = 0
    uncovered = 0
    for i, unit in enumerate(events):
        if unit["name"] != name or unit["cat"] != cat or unit["dur"] <= 0:
            continue
        end = unit["ts"] + unit["dur"]
        covered = 0
        reach = unit["ts"]
        # Union of every other span inside the unit's interval, any thread.
        for child in events[i + 1:bisect.bisect_right(starts, end)]:
            child_end = min(child["ts"] + child["dur"], end)
            if child_end <= reach:
                continue
            covered += child_end - max(child["ts"], reach)
            reach = child_end
        total += unit["dur"]
        uncovered += unit["dur"] - covered
    if total > 0:
        metrics["trace.uncovered_ratio"] = uncovered / total
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("build failed")
        return 1
    trace_path = os.path.join(BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
    extra = ["--trace-file", trace_path] if args.trace else []
    result = run_binary(args, extra)
    if result is None:
        return 1

    if "latency_samples" in result:
        # The median is logged, not a metric: on the shared measuring host
        # it follows the share of a run spent in the host's fast state.
        log("latency samples: %d, p50 %.6g ms" %
            (result["latency_samples"], result.get("latency_p50_ms", 0.0)))
    mismatched, unexpected = check_oracle(args.workload, args.seed, result, bool(args.trace))
    attempted = int(result["attempted"])
    failed = min(attempted, int(result["failed"]) + mismatched)
    raw = result["metrics"]
    if args.trace:
        raw.update(trace_metrics(args.workload, trace_path))
        os.remove(trace_path)
    else:
        raw["peak_rss_mib"] = result["peak_rss_mib"]
        raw["ok_ratio"] = (attempted - failed) / attempted if attempted else 0.0
    # A per-layer metric of a layer the workload does not run reads 0:
    # that layer did no work.
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    metrics = {m["name"]: {"value": float(raw.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    # A known wrong output counts in failed (and ok_ratio) only; an
    # operation the program reported as failed, or an output the oracle
    # does not know, also makes the run incorrect.
    correct = int(result["failed"]) + unexpected == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
