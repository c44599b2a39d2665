#!/usr/bin/env python3
"""Steadiness and comparison for the repository benchmark.

    # N runs per workload, seeds S..S+N-1, one JSON line per run:
    python3 perfbench/compare.py collect --out base.jsonl --runs 10 \\
        [--workload NAME ...] [--seed0 S] [--seconds T] [--trace 0|1]

    # median, quartiles and spread of every metric, against the bounds:
    python3 perfbench/compare.py stats base.jsonl

    # medians of two sets of runs, against the bounds:
    python3 perfbench/compare.py compare base.jsonl new.jsonl

Spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread is
within its bound from BENCHMARK.json; `compare` flags every end-to-end metric
whose new median is worse than the base median by more than its bound.
Per-layer metrics have no bound and are listed for reading only. Exits 1
when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], dict(m, bound=None))
    return spec, metrics


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def series(records):
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def cmd_collect(args):
    spec, _ = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = str(args.seconds or spec["run_seconds"])
    with open(args.out, "a") as out:
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed0 + i
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", seconds, "--trace", args.trace]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                if proc.returncode != 0:
                    sys.exit(f"collect: {w} seed {seed} failed")
                result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
                out.write(json.dumps({"workload": w, "seed": seed,
                                      "trace": int(args.trace),
                                      "result": result}) + "\n")
                out.flush()
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", file=sys.stderr)


def cmd_stats(args):
    _, metrics = load_spec()
    ok = True
    for w, records in sorted(read_runs(args.file).items()):
        bad = [r["seed"] for r in records if not r["result"]["correct"]]
        print(f"{w}: {len(records)} runs" + (f", INCORRECT seeds {bad}" if bad else ""))
        ok &= not bad
        for name, values in series(records).items():
            med, q1, q3, spread = summarize(values)
            bound = metrics.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict, ok = "UNSTEADY", False
                elif spread > bound / 3:
                    verdict = "steady (above bound/3)"
                else:
                    verdict = "steady"
            bound_s = f"{bound:.2f}" if bound is not None else "  - "
            print(f"  {name:32s} median {med:14.4f}  Q1 {q1:14.4f}  "
                  f"Q3 {q3:14.4f}  spread {spread:7.4f}  bound {bound_s}  "
                  f"{verdict}")
    return 0 if ok else 1


def cmd_compare(args):
    _, metrics = load_spec()
    base, new = read_runs(args.base), read_runs(args.new)
    ok = True
    for w in sorted(set(base) & set(new)):
        print(w)
        b, n = series(base[w]), series(new[w])
        for name in b:
            if name not in n:
                continue
            bm, _, _, bs = summarize(b[name])
            nm, _, _, ns = summarize(n[name])
            m = metrics.get(name, {})
            change = (nm - bm) / abs(bm) if bm else 0.0
            worse = -change if m.get("better") == "higher" else change
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if worse <= bound else "WORSE"
                ok &= worse <= bound
            print(f"  {name:32s} base {bm:14.4f} (spread {bs:.3f})  "
                  f"new {nm:14.4f} (spread {ns:.3f})  change {change:+.4f}  "
                  f"{verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--workload", action="append")
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--seconds", type=int)
    c.add_argument("--trace", default="0", choices=["0", "1"])
    s = sub.add_parser("stats")
    s.add_argument("file")
    m = sub.add_parser("compare")
    m.add_argument("base")
    m.add_argument("new")
    args = p.parse_args()
    if args.cmd == "collect":
        cmd_collect(args)
        return 0
    return cmd_stats(args) if args.cmd == "stats" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
