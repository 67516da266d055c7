#!/usr/bin/env python3
"""Writes the stored correct answers under corebench/oracle/.

    python3 corebench/make_oracle.py [--workload NAME ...]

For each workload the corebench binary enumerates its whole input universe and
records every unit's right output (oracle/<workload>.json, "accepted")
and any wrong output the build was seen to give (serve maps that fail
core::check_consistency, "known_wrong"); then it
runs the development and held-out seeds and records their run digests
(oracle/seeds.json). Run it only on a build whose outputs are trusted:
every later run is checked against what it writes.
"""

import argparse
import json
import os
import subprocess
import sys

import run

DEVELOPMENT_SEED = 1
HELD_OUT_SEED = 7


def binary(*args):
    proc = subprocess.run([run.BINARY] + list(args), stdout=subprocess.PIPE, check=True,
                          text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    workloads = parser.parse_args().workload or list(run.WORKLOADS)
    if not run.build():
        return 1
    oracle_dir = os.path.join(run.HERE, "oracle")
    os.makedirs(oracle_dir, exist_ok=True)
    seeds_path = os.path.join(oracle_dir, "seeds.json")
    seeds = {"development_seed": DEVELOPMENT_SEED, "held_out_seed": HELD_OUT_SEED,
             "run_digest": {}}
    if os.path.exists(seeds_path):
        seeds = run.load_json(seeds_path)
    for workload in workloads:
        result = binary("--workload", workload, "--mode", "oracle", "--seconds", "1")
        # "<key>#<n>" entries are one unit solved from differently ordered
        # inputs. An output whose map fails to reproduce observed
        # activations (positive_violations > 0) is a known wrong answer;
        # the others must agree on one stored answer.
        units = {}
        for name, uses in result["units"].items():
            entry = units.setdefault(name.split("#")[0], {"accepted": [], "known_wrong": []})
            for use in uses:
                output = use["output"]
                wrong = output.get("positive_violations", 0) > 0
                if not wrong:
                    output.pop("positive_violations", None)
                listed = entry["known_wrong" if wrong else "accepted"]
                if output not in listed:
                    listed.append(output)
        for name, entry in sorted(units.items()):
            if len(entry["accepted"]) != 1:
                print("%s: %s has %d right outputs" % (workload, name, len(entry["accepted"])),
                      file=sys.stderr)
                return 1
            if entry["known_wrong"]:
                print("%s: known wrong outputs for %s: %s" %
                      (workload, name, entry["known_wrong"]), file=sys.stderr)
            else:
                del entry["known_wrong"]
        if result["failed"]:
            print("%s: %d operations failed" % (workload, result["failed"]), file=sys.stderr)
            return 1
        with open(os.path.join(oracle_dir, workload + ".json"), "w") as handle:
            lines = ["%s: %s" % (json.dumps(key), json.dumps(units[key], sort_keys=True))
                     for key in sorted(units)]
            handle.write('{"units": {\n' + ",\n".join(lines) + "\n}}\n")
        digests = {}
        for seed in (DEVELOPMENT_SEED, HELD_OUT_SEED):
            digests[str(seed)] = binary("--workload", workload, "--seed", str(seed),
                                        "--seconds", "1")["run_digest"]
        seeds["run_digest"][workload] = digests
        print("%s: %d units" % (workload, len(units)), file=sys.stderr)
    with open(seeds_path, "w") as handle:
        json.dump(seeds, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
