#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--first-seed N]
                                [workload ...]

Runs the benchmark --runs times per workload, each with another seed, and
prints for every end-to-end metric its median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to a third of the metric's bound in BENCHMARK.json. Run
from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True)
            res = json.loads(out.stdout.decode().splitlines()[-1])
            if not res["correct"]:
                print("%s seed %d: INCORRECT %s" % (w, seed, res))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print("%-12s %-12s median %-12.6g spread %6.3f  bound/3 %6.3f %s"
                  % (w, k, med, spread, bounds[k] / 3,
                     "" if spread < bounds[k] / 3 else "<-- wide"))
            print("    " + " ".join("%.4g" % v for v in vals))
        sys.stdout.flush()
    print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
