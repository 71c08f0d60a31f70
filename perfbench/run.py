#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload paper_flow|gate_timing|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which builds the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset. Then runs aapx_perfbench PARTS times, one process after
the other, each for a PARTS-th of the seconds and with the same seed, and
prints one JSON object as the last line: correct, attempted, failed and each
metric's median over the parts. The parts must agree on the output digest
and on every deterministic work counter. Each part writes its details to
perfbench-results/part<i>/; the merged summary goes to perfbench-results/.
Exits non-zero without a result when the build or a part fails.
"""
import ctypes
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = "perfbench-results"
# Separate processes per run: on a shared 4-vCPU VM most run-to-run
# variation is per process (placement and memory layout), so the median over
# parts is steadier than one process measuring for the whole time.
PARTS = 6
# A part that outlives its share of the time by this much has hung.
PART_GRACE_S = 30


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures and builds aapx_perfbench; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "aapx_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(out, "aapx_perfbench")


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs aapx_perfbench with address-space randomization off, so that code
    and heap layout, and with them cache and TLB behaviour, are the same on
    every run. On a 4-vCPU VM the same simulation run varied by about a
    tenth between processes with randomization on, and by a third of that
    with it off."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def option(argv, name, default):
    if name in argv[:-1]:
        return argv[argv.index(name) + 1]
    return default


def run_part(exe, argv, index, seconds):
    """Runs one aapx_perfbench process; returns its parsed result or None."""
    args = list(argv)
    args[args.index("--seconds") + 1] = repr(seconds)
    args += ["--out-dir", os.path.join(OUT, "part%d" % index)]
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              preexec_fn=fixed_layout,
                              timeout=seconds + PART_GRACE_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: part %d did not finish\n" % index)
        return None
    text = proc.stdout.decode("utf-8", "replace")
    lines = [l for l in text.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(text)
        sys.stderr.write("perfbench: aapx_perfbench exited with %d\n"
                         % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(text)
        sys.stderr.write("perfbench: last line is not a JSON result\n")
        return None


def merge(parts):
    """Median of every metric over the parts; the parts must agree on the
    digest and the work counters, each disagreement counts as a failure."""
    first = parts[0]
    disagree = sum(1 for p in parts[1:]
                   if p["digest"] != first["digest"]
                   or p["counters"] != first["counters"])
    if disagree:
        sys.stderr.write("perfbench: parts disagree on digest or counters\n")
    failed = sum(p["failed"] for p in parts) + disagree
    metrics = {}
    for name, m in first["metrics"].items():
        values = [p["metrics"][name]["value"] for p in parts]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return {"correct": all(p["correct"] for p in parts) and not disagree,
            "attempted": sum(p["attempted"] for p in parts) + len(parts) - 1,
            "failed": failed, "metrics": metrics}


def main(argv):
    if "--seconds" not in argv[:-1]:
        sys.stderr.write("perfbench: --seconds is required\n")
        return 2
    exe = build()
    if exe is None:
        return 1
    seconds = float(option(argv, "--seconds", "10")) / PARTS
    parts = []
    for i in range(PARTS):
        part = run_part(exe, argv, i, seconds)
        if part is None:
            return 1
        parts.append(part)
    result = merge(parts)
    summary = dict(result, argv=argv, parts=parts)
    name = "%s-seed%s-trace%s.json" % (option(argv, "--workload", "none"),
                                       option(argv, "--seed", "0"),
                                       option(argv, "--trace", "0"))
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
