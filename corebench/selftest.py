#!/usr/bin/env python3
"""Self-tests of the corebench benchmark.

    python3 corebench/selftest.py [--workload NAME ...]

Checks, per workload:
  * every exact work count of the traced run repeats identically across
    two runs of one seed, and with the tracer switched off;
  * the workload's generator is a pure function of its seed (same seed,
    same inputs; another seed, other inputs);
  * serve-*: the response-log checksum after the warm-up and the first
    piece of the fixed-rate pass does not depend on the number of service
    workers (--jobs 1 vs 2);
  * the development and held-out seeds reproduce their stored run digests
    and pass the oracle check (through run.py);
  * a second run of the development seed fails as many operations, and on
    serve-* attempts as many (their passes are sized in requests, not in
    wall time);
and once, that the oracle check fails the uses of a known wrong output
and makes an output the oracle does not know incorrect.
Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

import run

# Per-layer metrics that are exact work counts (deterministic for a seed).
EXACT_COUNTS = {
    "survey": ["mesh.bl_cycles", "cache.llc_lookups", "core.eviction_set_lines",
               "core.observations", "ilp.nodes", "ilp.lp_iterations", "trace.units"],
    "serve-hot": ["serve.cache.hit_ratio", "serve.cache.evictions", "serve.solves",
                  "serve.coalesced", "serve.batch_requests", "trace.units"],
    "serve-cold": ["serve.cache.hit_ratio", "serve.cache.evictions", "serve.solves",
                   "serve.coalesced", "serve.batch_requests", "trace.units"],
    "covert": ["mesh.bl_cycles", "cache.llc_lookups", "core.eviction_set_lines",
               "core.observations", "ilp.nodes", "thermal.steps", "covert.ber",
               "trace.units"],
}
SEED = 11


def binary(workload, *extra):
    command = [run.BINARY, "--workload", workload] + list(extra)
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_counts(workload, tracer):
    extra = ["--seed", str(SEED), "--seconds", "2", "--trace", "1", "--tracer", str(tracer)]
    if tracer:
        extra += ["--trace-file", os.path.join(run.BUILD, "selftest-trace.json")]
    metrics = binary(workload, *extra)["metrics"]
    return {name: metrics.get(name) for name in EXACT_COUNTS[workload]}


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        sys.exit(1)


def check_oracle_rules():
    """A known wrong output fails its uses; an unknown one is unexpected."""
    oracle = run.load_json(os.path.join(run.HERE, "oracle", "serve-cold.json"))["units"]
    key = next(k for k, unit in sorted(oracle.items()) if unit.get("known_wrong"))
    right = oracle[key]["accepted"][0]
    wrong = {kind: oracle[key]["known_wrong"][0][kind] for kind in right}
    unknown = dict(right, map="0" * 16)

    def outcome(*outputs):
        result = {"units": {key: [{"output": out, "uses": 3} for out in outputs]}}
        return run.check_oracle("serve-cold", 0, result, True)

    check(outcome(right) == (0, 0), "oracle: the stored answer passes")
    check(outcome(right, wrong) == (3, 0),
          "oracle: a known wrong output (%s) counts its uses as failed" % key)
    check(outcome(unknown) == (3, 3), "oracle: an unknown output makes the run incorrect")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    workloads = parser.parse_args().workload or list(run.WORKLOADS)
    check_oracle_rules()
    check(run.build(), "corebench builds")
    seeds = run.load_json(os.path.join(run.HERE, "oracle", "seeds.json"))
    for workload in workloads:
        first = traced_counts(workload, 1)
        second = traced_counts(workload, 1)
        untraced = traced_counts(workload, 0)
        check(None not in first.values(), "%s: traced run reports every count" % workload)
        check(first == second, "%s: counts repeat across runs %s" % (workload, first))
        check(first == untraced, "%s: counts equal with tracing off" % workload)

        same = binary(workload, "--mode", "inputs", "--seed", str(SEED))["inputs_digest"]
        again = binary(workload, "--mode", "inputs", "--seed", str(SEED))["inputs_digest"]
        other = binary(workload, "--mode", "inputs", "--seed", str(SEED + 1))["inputs_digest"]
        check(same == again, "%s: same seed, same inputs" % workload)
        check(same != other, "%s: another seed, other inputs" % workload)

        if workload.startswith("serve"):
            logs = [binary(workload, "--seed", str(SEED), "--seconds", "1", "--jobs", jobs)
                    ["run_digest"] for jobs in ("1", "2")]
            check(logs[0] == logs[1],
                  "%s: response log independent of worker count (%s)" % (workload, logs[0]))

        results = {}
        for role in ("development_seed", "held_out_seed", "development_seed"):
            seed = seeds[role]
            proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                                   "--workload", workload, "--seed", str(seed),
                                   "--seconds", "2"], stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(proc.returncode == 0 and result["correct"],
                  "%s: %s %d matches the oracle" % (workload, role.replace("_", " "), seed))
            if role in results:
                first = results[role]
                same = first["failed"] == result["failed"] and (
                    not workload.startswith("serve") or first["attempted"] == result["attempted"])
                check(same, "%s: a second run of seed %d fails %d of %d operations, as the first"
                      % (workload, seed, result["failed"], result["attempted"]))
            results[role] = result
    return 0


if __name__ == "__main__":
    sys.exit(main())
