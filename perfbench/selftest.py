#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [--seconds S]

Run from the repository root after one `perfbench/run.py` call has built
aapx_perfbench (or let this script build it). Checks that

  1. the open-loop generator shows a one-off responder stall in its p99
     latency from scheduled send time (coordinated-omission check);
  2. on every workload, two runs with one seed give identical work
     counters and output digests;
  3. every output check also passes on a held-out seed.

Exits 0 when all pass.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["paper_flow", "gate_timing", "serve_mix"]
SEED = 4242
HELD_OUT_SEED = 7919


def drive(exe, workload, seed, seconds, out_dir):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0", "--out-dir", out_dir],
        stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.5)
    args = ap.parse_args()
    exe = run.build()
    if exe is None:
        return 1
    out = os.path.join(run.OUT, "selftest")
    ok = True

    gen = subprocess.run([exe, "--selftest", "loadgen"])
    ok &= gen.returncode == 0

    for w in WORKLOADS:
        a = drive(exe, w, SEED, args.seconds, out)
        b = drive(exe, w, SEED, args.seconds, out)
        same = a["digest"] == b["digest"] and a["counters"] == b["counters"]
        print("%-12s seed %d twice: counters %s, digest %s -> %s"
              % (w, SEED, len(a["counters"]), a["digest"],
                 "identical" if same else "DIFFER"))
        ok &= same and a["correct"] and b["correct"]
        h = drive(exe, w, HELD_OUT_SEED, args.seconds, out)
        print("%-12s held-out seed %d: %d checks, %d failed -> %s"
              % (w, HELD_OUT_SEED, h["attempted"], h["failed"],
                 "pass" if h["correct"] else "FAIL"))
        ok &= h["correct"] and h["digest"] != a["digest"]
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
