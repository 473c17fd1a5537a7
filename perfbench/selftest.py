#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload BENCHMARK.json lists
briefly, untraced and traced, and checks the result lines against it.

    python3 perfbench/selftest.py [--seconds 2]

Run from the repository root (it reads ./BENCHMARK.json). Checks, per
workload: the result line has exactly the keys correct/attempted/failed/
metrics; every result was correct; --trace 0 emits exactly the end_to_end
metrics and --trace 1 exactly the per_layer metrics, with their units;
every value is a finite number; and two traced runs with the same seed
report identical exact counters. Exits non-zero on the first problem.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("exec.base_tuples_read", "exec.probes", "exec.predicate_evals",
         "exec.emitted", "optimizer.plans_considered")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stdout}")
    return json.loads(lines[-1])


def check(workload, result, expected, trace):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{where}: incorrect result {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit(f"{where}: attempted {result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit(f"{where}: metrics differ from BENCHMARK.json: missing "
                 f"{missing}, extra {extra}, unit mismatch {units}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"{where}: {name} is not a finite number: {value}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        check(workload, run(workload, 7, args.seconds, 0),
              bench["end_to_end"], 0)
        first = run(workload, 7, args.seconds, 1)
        check(workload, first, bench["per_layer"], 1)
        second = run(workload, 7, args.seconds, 1)
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                sys.exit(f"{workload}: {name} not exact across runs: {a} {b}")
        print(f"{workload}: ok", flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
