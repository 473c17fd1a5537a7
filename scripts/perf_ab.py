#!/usr/bin/env python3
"""A/B-compares two revisions on one perfbench workload.

    python3 scripts/perf_ab.py PARENT_REV CHANGE_REV --workload W --pairs N
        [--seconds 20] [--trace 0] [--first-seed 1] [--workdir DIR]

Run from inside the repository. Each revision is extracted with
`git archive` into DIR/<sha>/src and built by that checkout's own
`perfbench/run.py` with CARGO_TARGET_DIR=DIR/<sha>/target, so the two
build trees never share a CMake cache. A short first run per revision
builds it and is discarded. Then N pairs run back to back on the same
seed (pair i, counting from 0, uses seed FIRST_SEED + i); even pairs run the parent first, odd
pairs the change first, so slow drift in machine load hits both sides
alike.

Prints one row per metric: each side's median and IQR (p75 - p25) over
the pairs, the change's median relative to the parent's, and how many
pairs the change won (the metric's better direction comes from
BENCHMARK.json; per-layer metrics not listed there count lower as
better). Then every run, one line per pair and side, with the
end-to-end metrics BENCHMARK.json lists. Exits non-zero when a run
fails or reports a wrong result.
Revisions stay extracted and built under DIR (default
.perf_ab/ at the repository root) for the next comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev, workdir):
    """Extracts `rev` once; returns (checkout dir, build dir)."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    root = os.path.join(workdir, sha[:12])
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        os.makedirs(src)
        archive = subprocess.Popen(["git", "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_ab: git archive {rev} failed")
    return src, os.path.join(root, "target")


def run(side, workload, seed, seconds, trace):
    """One perfbench run; returns its metrics as {name: value}."""
    src, target = side
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=src, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_ab: run in {src} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"perf_ab: run in {src} reported a wrong result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def load_spec(repo_root):
    """Returns ({metric: "higher"|"lower"}, [end-to-end metric names])."""
    path = os.path.join(repo_root, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return {}, []
    end_to_end = spec.get("end_to_end", [])
    better = {m["name"]: m["better"]
              for m in end_to_end + spec.get("per_layer", [])}
    return better, [m["name"] for m in end_to_end]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args()

    repo_root = git("rev-parse", "--show-toplevel")
    workdir = os.path.abspath(args.workdir or
                              os.path.join(repo_root, ".perf_ab"))
    sides = {"parent": extract(args.parent, workdir),
             "change": extract(args.change, workdir)}
    for name, side in sides.items():
        print(f"perf_ab: building {name} ({side[0]})", file=sys.stderr)
        run(side, args.workload, 1, 1, args.trace)

    samples = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            samples[name].append(
                run(sides[name], args.workload, args.first_seed + i,
                    args.seconds, args.trace))
        print(f"perf_ab: pair {i + 1}/{args.pairs} done ({order[0]} first)",
              file=sys.stderr)

    better, end_to_end = load_spec(repo_root)
    names = [n for n in samples["parent"][0] if n in samples["change"][0]]
    print(f"workload {args.workload}, {args.pairs} pairs (seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}), "
          f"{args.seconds:g} s per run, trace {args.trace}")
    print(f"{'metric':40} {'parent median':>14} {'IQR':>10} "
          f"{'change median':>14} {'IQR':>10} {'delta':>8} {'wins':>7}")
    for name in names:
        parent = [s[name] for s in samples["parent"]]
        change = [s[name] for s in samples["change"]]
        p25, pmed, p75 = quartiles(parent)
        c25, cmed, c75 = quartiles(change)
        higher = better.get(name, "lower") == "higher"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        delta = f"{100 * (cmed / pmed - 1):+.1f}%" if pmed else "n/a"
        print(f"{name:40} {pmed:14.6g} {p75 - p25:10.4g} "
              f"{cmed:14.6g} {c75 - c25:10.4g} {delta:>8} "
              f"{wins:>3}/{args.pairs}")

    shown = [n for n in end_to_end if n in names]
    print("runs (pair, side, " + ", ".join(shown) + ")")
    for i in range(args.pairs):
        for name in ("parent", "change"):
            values = " ".join(f"{samples[name][i][n]:.6g}" for n in shown)
            print(f"{i + 1:4} {name:6} {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
