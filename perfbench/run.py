#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload read-cached --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
engine libraries and the perfbench binary into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. Build output reaches
stderr only on failure, and the last line of stdout is the binary's JSON
result. Arguments after the four required ones (--scale) pass through to
the binary.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def quiet(cmd):
    """Runs a build step; its output reaches stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no engine sources under src/; nothing to build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", build_dir])
    quiet(["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: binary exited with {proc.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: binary printed no result")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
