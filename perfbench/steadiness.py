#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--trace 0|1]
                                    [--seconds S] [workload ...]

Reads the command, run length and workloads from BENCHMARK.json. For
every workload it runs the benchmark once per seed (1..runs), then
prints each metric's median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--raw", action="store_true", help="also print every run's value")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: ok", file=sys.stderr)
        print(f"## {workload} ({args.runs} runs, trace {args.trace})")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} bound")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound}")
            if args.raw:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
