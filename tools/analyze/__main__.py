"""CLI for the invariant analyzer.

    python3 tools/analyze [--root DIR] [--frontend auto|clang|textual]
                          [--check-artifacts | --update-artifacts]
                          [--passes p1,p2] [files...]

Exit codes: 0 clean, 1 violations (or stale artifacts under
--check-artifacts), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import artifacts  # noqa: E402
import clang_frontend  # noqa: E402
import passes  # noqa: E402
import textual_frontend  # noqa: E402

ANALYZED_DIRS = ("src",)
CONSUMER_DIRS = ("tests", "bench", "tools/ycsb")
SKIP_SUFFIXES = (".gen.h",)
# Analyzer test fixtures are inputs for the ctest driver, not repo code:
# the bad ones contain deliberate violations.
SKIP_DIRS = ("tests/analyze_fixtures",)

RCU_DIRS = ("src/lsm/", "src/multilevel/", "src/engine/")


def discover(root: str) -> tuple[list[str], list[str]]:
    analyzed, consumers = [], []
    for base, buckets in ((ANALYZED_DIRS, analyzed),
                          (CONSUMER_DIRS, consumers)):
        for d in base:
            top = os.path.join(root, d)
            for dirpath, _, names in os.walk(top):
                for n in sorted(names):
                    if not n.endswith((".h", ".cc")):
                        continue
                    if n.endswith(SKIP_SUFFIXES):
                        continue
                    rel = os.path.relpath(os.path.join(dirpath, n), root)
                    if rel.startswith(SKIP_DIRS):
                        continue
                    buckets.append(rel)
    return sorted(analyzed), sorted(consumers)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="tools/analyze")
    p.add_argument("--root", default=".")
    p.add_argument("--frontend", choices=["auto", "clang", "textual"],
                   default="auto")
    p.add_argument("--check-artifacts", action="store_true",
                   help="fail if generated artifacts are stale")
    p.add_argument("--update-artifacts", action="store_true",
                   help="rewrite docs/lock_order.md and the generated headers")
    p.add_argument("--passes", default="all",
                   help="comma-separated subset: blocking-under-lock,"
                        "rcu-publish-order,lock-order,stats-keys")
    p.add_argument("files", nargs="*",
                   help="restrict analysis to these files (fixture mode); "
                        "they are parsed standalone")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)

    if args.files:
        analyzed = [os.path.relpath(os.path.abspath(f), root)
                    for f in args.files]
        consumers: list[str] = []
    else:
        analyzed, consumers = discover(root)

    texts = {}
    for rel in analyzed + consumers:
        try:
            with open(os.path.join(root, rel)) as f:
                texts[rel] = f.read()
        except OSError as e:
            print(f"error: {rel}: {e}", file=sys.stderr)
            return 2

    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if clang_frontend.available() else "textual"
    elif frontend == "clang" and not clang_frontend.available():
        print("error: --frontend=clang but clang.cindex is unavailable",
              file=sys.stderr)
        return 2
    builder = (clang_frontend.build_model if frontend == "clang"
               else textual_frontend.build_model)
    model = builder(root, analyzed + consumers, texts)

    if args.update_artifacts:
        for rel, render in artifacts.ARTIFACTS.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(render(model))
            print(f"wrote {rel}")
        return 0

    selected = (set(passes.KNOWN_PASSES) if args.passes == "all"
                else set(args.passes.split(",")))
    unknown = selected - passes.KNOWN_PASSES
    if unknown:
        print(f"error: unknown pass(es): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    analyzed_set = set(analyzed)
    rcu_set = (analyzed_set if args.files else
               {f for f in analyzed_set
                if any(f.startswith(d) for d in RCU_DIRS)})

    violations = []
    if passes.PASS_BLOCKING in selected:
        violations += passes.run_blocking_under_lock(model, analyzed_set)
    if passes.PASS_RCU in selected:
        violations += passes.run_rcu_publish_order(model, rcu_set)
    if passes.PASS_LOCK_ORDER in selected:
        violations += passes.run_lock_order(model)
    if passes.PASS_STATS in selected:
        registry = None
        reg_path = os.path.join(root, "src/engine/stats_keys.gen.h")
        if os.path.exists(reg_path) and not args.files:
            with open(reg_path) as f:
                registry = artifacts.parse_stats_registry(f.read())
        violations += passes.run_stats_keys(model, registry,
                                            set(consumers))
    if not args.files:
        violations += passes.run_allow_hygiene(
            model, lint_rules={"raw-lock", "libc-unsafe", "bench-include",
                               "read-path-lock", "write-path-sleep",
                               "raw-io", "compaction-pick",
                               "unset-option"})

    stale = []
    if args.check_artifacts and not args.files:
        for rel, render in artifacts.ARTIFACTS.items():
            path = os.path.join(root, rel)
            want = render(model)
            have = ""
            if os.path.exists(path):
                with open(path) as f:
                    have = f.read()
            if have != want:
                stale.append(rel)

    for v in sorted(violations, key=lambda v: (v.file, v.line)):
        print(v.format())
    for rel in stale:
        print(f"{rel}: stale — regenerate with tools/analyze "
              f"--update-artifacts")
    for w in model.warnings:
        print(f"warning: {w}", file=sys.stderr)

    n = len(violations)
    print(f"analyze[{frontend}]: {len(analyzed)} files, "
          f"{len(model.functions)} functions, {n} violation(s)"
          + (f", {len(stale)} stale artifact(s)" if args.check_artifacts
             else ""),
          file=sys.stderr)
    return 1 if (violations or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
