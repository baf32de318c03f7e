#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--trace 0]

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles, n=4) as a share of their median. For
end-to-end metrics it is printed beside the metric's bound and a third of
it, the steadiness target. Run from the root of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(out.stdout.strip().split("\n")[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    print(f"{'metric':30} {'median':>14} {'spread':>8} {'bound':>6} {'target':>7}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- not steady"
        print(f"{name:30} {med:14.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6} "
              f"{bound / 3 if bound is not None else '':>7.4}{flag}")


if __name__ == "__main__":
    main()
