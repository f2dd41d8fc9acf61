#!/usr/bin/env python3
"""Closed-loop benchmark of the Titan-Next loop: WAN cost, MOS and replan latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

Builds the library and perfbench/driver.cc with CMake into .bench_build/perfbench
(incremental after the first run), runs the driver, and prints its result as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones and writes the last
cycle's spans as a Chrome trace to .bench_build/perfbench/trace-<workload>.json.
Build output goes to stderr. Exits non-zero, printing no result, when the library
sources are missing, the build fails, or the driver fails.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("steady", "cold", "overload")
BUILD_TIMEOUT_S = 840
# A run measures for --seconds, then finishes the cycle it is in and runs
# its thread-determinism check; this is the ceiling on all of that.
RUN_SLACK_S = 120


def fail(message):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no library sources beside perfbench/ (CMakeLists.txt, src/); "
             "run from the root of a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step exited %d: %s" % (done.returncode, " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / ("trace-%s.json" % args.workload))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=args.seconds + RUN_SLACK_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("driver failed: %s" % e)
    if done.returncode != 0:
        fail("driver exited %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver result has unexpected keys: %s" % sorted(result))
    print(lines[-1])


if __name__ == "__main__":
    main()
