#!/usr/bin/env python3
"""Tiny-size smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at 2% of its dataset for two seconds,
untraced and traced, and checks that:
  * every end-to-end metric that applies to the workload prints as an `e2e`
    line with its unit and sample count, and every per-layer metric as a
    `layer` line (traced run);
  * fail_frac is 0 and the result reports correct, with no failed operation;
  * the result's metrics are exactly BENCHMARK.json's end_to_end set
    (--trace 0) or per_layer set (--trace 1), with the same units.
Exits 1 on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every end-to-end metric the benchmark defines, and the workloads it
# applies to (None: all).
E2E = {
    "setup_s": ("s", None),
    "throughput_ops_s": ("ops/s", None),
    "get_p50_us": ("us", None),
    "get_p99_us": ("us", None),
    "put_p50_us": ("us", {"write-mixed"}),
    "put_p99_us": ("us", {"write-mixed"}),
    "scan_p50_us": ("us", {"write-mixed"}),
    "scan_p99_us": ("us", {"write-mixed"}),
    "write_amp": ("ratio", {"write-mixed"}),
    "space_amp": ("ratio", None),
    "fail_frac": ("ratio", None),
}

LINE = re.compile(r"^(e2e|layer) (\S+)\s+(-?[0-9.]+) (\S+)\s+n=(\d+)$")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--scale", "0.02"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[(m.group(1), m.group(2))] = (float(m.group(3)), m.group(4))
    return printed, json.loads(lines[-1])


def check_result(what, result, spec_metrics):
    if not result["correct"] or result["failed"] != 0:
        fail(f"{what}: result not correct: {result['failed']} failed")
    if result["attempted"] < 1:
        fail(f"{what}: nothing attempted")
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{what}: result metrics {sorted(got)} != {sorted(want)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        printed, result = run(w, 0)
        check_result(f"{w} trace=0", result, spec["end_to_end"])
        for name, (unit, only) in E2E.items():
            if only is not None and w not in only:
                continue
            if printed.get(("e2e", name), (None, None))[1] != unit:
                fail(f"{w}: e2e {name} not printed with unit {unit}")
        if printed[("e2e", "fail_frac")][0] != 0:
            fail(f"{w}: fail_frac is not 0")

        printed, result = run(w, 1)
        check_result(f"{w} trace=1", result, spec["per_layer"])
        for m in spec["per_layer"]:
            kind = "e2e" if ("e2e", m["name"]) in printed else "layer"
            if printed.get((kind, m["name"]), (None, None))[1] != m["unit"]:
                fail(f"{w}: {m['name']} not printed with unit {m['unit']}")
        if printed[("e2e", "fail_frac")][0] != 0:
            fail(f"{w}: traced fail_frac is not 0")
        print(f"ok {w}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
