#!/usr/bin/env python3
"""Steadiness check for the simulator benchmark.

Runs the command named in BENCHMARK.json once per seed on one workload and
reports, for every metric, the median of the runs and the spread: the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median. For the
end-to-end metrics the spread is compared with the metric's bound.

    python3 simbench/steady.py --workload mpp_tree_1023 --runs 10
    python3 simbench/steady.py --workload now_factorial --runs 5 --trace 1

Run it from the repository root. It builds into .bench_build, as the
benchmark does when CARGO_TARGET_DIR points there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace, env):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(args, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = opts.seconds or bench["run_seconds"]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")

    values = {}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        result = run_once(bench["command"], opts.workload, seed, seconds, opts.trace, env)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if opts.trace == 0), flush=True)

    print(f"\n{opts.workload}, {opts.runs} runs, {seconds} s each, trace {opts.trace}")
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        b = f"{bound:.2f}" if bound is not None else ""
        print(f"{name:40} {med:14.6g} {spread:8.4f} {b:>6}{flag}")


if __name__ == "__main__":
    main()
