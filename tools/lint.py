#!/usr/bin/env python3
"""Repo-specific source lint: invariants clang-tidy cannot express.

This is the regex tier of the two-tier static-analysis setup: fast, zero
dependencies, runs everywhere. The semantic passes live in tools/analyze/
(see docs/static_analysis.md) and supersede the lock/IO rules here when
their CI lane runs; the regex rules stay for non-clang environments and as
a first line of defense in pre-commit hooks.

Rules (see docs/static_analysis.md):

  raw-lock      Raw std::mutex / std::shared_mutex / std::lock_guard /
                std::unique_lock / std::shared_lock / std::scoped_lock /
                std::condition_variable anywhere outside src/util/. All
                locking goes through the annotated wrappers in
                src/util/mutex.h so Clang's thread-safety analysis sees it.

  libc-unsafe   rand() (unseeded, global-state) and sprintf (unbounded).
                Use util::Random and snprintf.

  bench-include bench/*.cc must not include engine internals (lsm/,
                multilevel/, btree/, engine/ headers) directly; they go
                through bench/harness.h so the engine surface the
                benchmarks exercise stays in one reviewable place.

  read-path-lock  util::MutexLock (or ReaderLock) inside a function named
                Get* / MultiGet in src/lsm/ or src/multilevel/. Point reads
                pin the published ReadView with one atomic load; a mutex on
                that path is the serialization the ReadView design removed.

  write-path-sleep  SleepForMicroseconds / sleep_for in the write-path
                files (src/engine/write_frontend.*, src/lsm/blsm_tree.*,
                src/multilevel/multilevel_tree.*). Stalled writers wait on
                the StallTracker CondVar, signaled on structural change;
                a bare sleep there is the unbounded-latency poll loop this
                repo's backpressure design replaced. The spring's
                proportional one-shot delay is the sanctioned exception
                (annotated with lint:allow at the call site).

  raw-io        pread / pwrite / preadv / pwritev and bare ::read() /
                ::write() anywhere outside src/io/. Every data-path byte
                flows through the Env layer so counters, rate limiting,
                fault injection, and batching all see it; a raw positional
                IO call bypasses all four. Cache-control calls (::open,
                ::fdatasync, ::posix_fadvise) are not data-path and stay
                allowed.

  env-forwarding  A class deriving directly from Env other than the
                terminal environments (PosixEnv, MemEnv) and EnvWrapper
                itself. Decorators derive from EnvWrapper (src/io/env.h)
                and override only the calls whose behaviour they change,
                so no hand-written forwarding copy can drift out of step
                with the interface (a missed io_counters() or
                RemoveDirRecursive forward).

  compaction-pick  Direct version_->levels / version_->LevelBytes access
                inside a Pick* / CompactionPending / RunCompactionPass
                body in src/multilevel/. Compaction decisions are pure
                functions of a CompactionInputs snapshot evaluated by the
                engine::CompactionPolicy layer; the one sanctioned crossing
                is BuildCompactionInputsLocked. Execution (ExecutePick,
                FlushMemtable) may touch the version freely.

  unset-option  A field of a `struct *Options` declared under src/ that
                nothing assigns anywhere in src/, bench/, tools/, tests/,
                examples/ or perfbench/. A knob no caller sets has one
                value in use: make it a named constant (or delete its dead
                branch) so no untested configuration lingers. An
                assignment is any member-access chain ending in `=` (or a
                compound assignment): `.f =`, `->f =`, and the designated
                initializer `{.f = ...}`. Every member of the chain counts
                as set, so `options.engine.write_buffer_bytes = ...` sets
                `engine`. Names are matched without their struct, so a
                same-named field assigned in another struct also counts:
                lenient by design (no false positives), at the price of
                misses: the Bloom bits-per-key fields of BlsmOptions and
                MultilevelOptions, never set, escaped the rule because
                each was copied into TreeBuilderOptions' same-named
                field, and that assignment counted for all three.

All rules scan the comment- and string-stripped text of the whole file
(shared with tools/analyze via cpp_source.clean_source), so a call whose
argument list — or whose opening parenthesis — spans lines is still seen,
and nothing inside strings or commented-out code ever matches.

A finding may be suppressed with a justification on the flagged line or
the line directly above, using either spelling:

    // lint:allow(<rule>) <reason>
    // analyze:allow(<rule>) <reason>

The suppression grammar is shared with tools/analyze so one comment can
satisfy both tiers when their rules overlap. The reason is mandatory; a
bare allow is itself an error.

Exit status 0 when clean; 1 with one "file:line: [rule] message" per
violation otherwise.
"""

import bisect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analyze.cpp_source import clean_source, match_forward  # noqa: E402

SOURCE_DIRS = ["src", "tests", "bench", "examples", "tools"]
# Where an *Options field may be set: every source dir plus perfbench,
# which drives the engines but is not itself linted.
OPTION_SETTER_DIRS = SOURCE_DIRS + ["perfbench"]
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}

# Whole-text rules: matched against the cleaned file, so `\s*\(` may cross
# a line break (the multi-line call false negative the old per-line scan
# had) and string/comment contents never match.
RAW_LOCK = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock|condition_variable)\b"
)
LIBC_UNSAFE = re.compile(r"(?<![\w:.])(rand|sprintf)\s*\(")
RAW_IO = re.compile(
    r"(?<![\w:.>])(pread|pwrite|preadv|pwritev)\s*\(|::(read|write)\s*\("
)
ENGINE_INTERNAL_INCLUDE = re.compile(
    r'#\s*include\s+"(lsm|multilevel|btree|engine)/'
)
# Out-of-line method definitions at column 0 (Class::Method(...), possibly
# with the return type on the previous line). The read-path and
# compaction-pick rules key off which method body a match falls in: each
# definition opens a region that the next definition closes.
METHOD_DEF = re.compile(
    r"^[\w:<>,&*~ \t]*\b[\w<>]+::(?P<method>~?\w+)\s*\(", re.MULTILINE
)
READ_PATH_LOCK = re.compile(r"\butil::(MutexLock|ReaderLock)\b")
COMPACTION_PICK_ACCESS = re.compile(r"version_->(levels|LevelBytes)\b")
# A class head with its base clause: `class Name [final] : bases {`.
CLASS_BASES = re.compile(
    r"\b(?:class|struct)\s+(?P<name>\w+)(?:\s+final)?\s*:(?![:])"
    r"(?P<bases>[^{;]*)\{"
)
ENV_BASE = re.compile(
    r"^(?:(?:public|protected|private|virtual)\s+)*(?:::)?(?:blsm::)?Env$"
)
# The terminal environments and the forwarding base itself.
ENV_DIRECT_SUBCLASSES = {"PosixEnv", "MemEnv", "EnvWrapper"}
OPTIONS_STRUCT = re.compile(r"\bstruct\s+(?P<name>\w*Options)\s*\{")
# A member-access chain ending in an assignment: `.f =`, `->f =`, the
# designated initializer `{.f = ...}`, and compound assignments.
ASSIGNED_CHAIN = re.compile(
    r"(?:(?:\.|->)\s*[A-Za-z_]\w*\s*(?:\[[^\]]*\]\s*)*)+"
    r"(?:[-+*/%&|^]|<<|>>)?=(?!=)"
)
CHAIN_MEMBER = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)")
TEMPLATE_ARGS = re.compile(r"<[^<>]*>")
ACCESS_LABEL = re.compile(r"^\s*(?:public|protected|private)\s*:")
NOT_A_FIELD = re.compile(
    r"^(?:static|using|typedef|friend|enum|struct|class|template)\b|"
    r"\boperator\b"
)
FIELD_NAME = re.compile(r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*$")
WRITE_PATH_SLEEP = re.compile(r"\b(SleepForMicroseconds|sleep_for)\s*\(")
WRITE_PATH_FILES = (
    "src/engine/write_frontend.",
    "src/lsm/blsm_tree.",
    "src/multilevel/multilevel_tree.",
)


def check(src, rule, line, message, violations, path):
    """Records the violation unless an allow (with a reason) covers it."""
    allow = src.allowed(rule, line)
    if allow is None:
        violations.append((path, line, rule, message))
        return
    if not allow.reason:
        violations.append(
            (path, allow.line, "lint-allow",
             f"{rule} allow needs a reason")
        )


def method_regions(clean):
    """[(start_offset, method_name)] for out-of-line definitions, sorted."""
    return [(m.start(), m.group("method")) for m in METHOD_DEF.finditer(clean)]


def enclosing_method(regions, offset):
    i = bisect.bisect_right([start for start, _ in regions], offset) - 1
    return regions[i][1] if i >= 0 else None


def declarator(stmt):
    """A member declaration minus its initializer and template arguments:
    `std::map<K, V> name = {...}` -> `std::map name`."""
    head = ACCESS_LABEL.sub("", stmt).split("=", 1)[0].split("{", 1)[0]
    while TEMPLATE_ARGS.search(head):
        head = TEMPLATE_ARGS.sub("", head)
    return head.strip()


def option_fields(clean, open_brace):
    """[(offset, name)] of the data members declared directly in the struct
    body that opens at clean[open_brace]. Method bodies, nested types and
    brace initializers are skipped whole."""
    close = match_forward(clean, open_brace)
    fields = []
    stmt_start = i = open_brace + 1
    while 0 <= i < close:
        ch = clean[i]
        if ch in "([":
            i = match_forward(clean, i) + 1
            continue
        if ch == "{":
            end = match_forward(clean, i)
            if "(" in declarator(clean[stmt_start:i]):  # a method body
                stmt_start = end + 1
            i = end + 1
            continue
        if ch == ";":
            stmt = clean[stmt_start:i]
            head = declarator(stmt)
            m = FIELD_NAME.search(head)
            if (m and m.start() > 0 and "(" not in head
                    and not NOT_A_FIELD.search(head)):
                name = m.group("name")
                raw_head = stmt.split("=", 1)[0].split("{", 1)[0]
                fields.append((stmt_start + raw_head.rfind(name), name))
            stmt_start = i + 1
        i += 1
    return fields


def lint_unset_options(sources, violations):
    """The cross-file unset-option rule over {rel_path: CleanSource}."""
    assigned = set()
    for src in sources.values():
        for m in ASSIGNED_CHAIN.finditer(src.clean):
            assigned.update(CHAIN_MEMBER.findall(m.group()))
    for rel_str, src in sources.items():
        if not rel_str.startswith("src/"):
            continue
        for m in OPTIONS_STRUCT.finditer(src.clean):
            for offset, name in option_fields(src.clean, m.end() - 1):
                if name not in assigned:
                    check(src, "unset-option", src.line_of(offset),
                          f"{m.group('name')}::{name} is never set; make it "
                          "a named constant or delete it", violations,
                          rel_str)


def lint_file(path: Path, violations):
    rel = path.relative_to(REPO)
    rel_str = str(rel)
    in_util = rel_str.startswith("src/util/")
    in_io = rel_str.startswith("src/io/")
    in_bench_cc = rel_str.startswith("bench/") and path.suffix != ".h"
    in_write_path = rel_str.startswith(WRITE_PATH_FILES)
    in_read_path_dir = rel_str.startswith(("src/lsm/", "src/multilevel/"))
    in_multilevel = rel_str.startswith("src/multilevel/")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return None
    src = clean_source(rel_str, text)
    if rel_str.startswith("perfbench/"):
        return src  # read for unset-option's setter scan only
    clean = src.clean

    if not in_util:
        for m in RAW_LOCK.finditer(clean):
            check(src, "raw-lock", src.line_of(m.start()),
                  "raw std lock primitive; use the annotated wrappers "
                  "in src/util/mutex.h", violations, rel_str)
    for m in LIBC_UNSAFE.finditer(clean):
        check(src, "libc-unsafe", src.line_of(m.start()),
              "rand()/sprintf banned; use util::Random / snprintf",
              violations, rel_str)
    if not in_io:
        for m in RAW_IO.finditer(clean):
            check(src, "raw-io", src.line_of(m.start()),
                  "raw positional IO outside src/io/; bytes go through "
                  "the Env layer (counters, limiter, faults, batching)",
                  violations, rel_str)
    for m in CLASS_BASES.finditer(clean):
        if m.group("name") in ENV_DIRECT_SUBCLASSES:
            continue
        bases = (b.strip() for b in m.group("bases").split(","))
        if any(ENV_BASE.match(b) for b in bases):
            check(src, "env-forwarding", src.line_of(m.start()),
                  f"{m.group('name')} derives directly from Env; decorators "
                  "derive from EnvWrapper and override only what they "
                  "change", violations, rel_str)
    if in_write_path:
        for m in WRITE_PATH_SLEEP.finditer(clean):
            check(src, "write-path-sleep", src.line_of(m.start()),
                  "bare sleep in a write-path file; stalls wait on the "
                  "StallTracker CondVar (bounded, signaled on change)",
                  violations, rel_str)
    if in_bench_cc:
        # Include paths are string literals, which the cleaned text blanks,
        # so this rule scans raw lines (with // comments dropped).
        for lineno, line in enumerate(text.splitlines(), start=1):
            code = line.split("//", 1)[0]
            if ENGINE_INTERNAL_INCLUDE.search(code):
                check(src, "bench-include", lineno,
                      "bench sources reach engines via bench/harness.h, "
                      "not engine-internal headers", violations, rel_str)

    if in_read_path_dir:
        regions = method_regions(clean)
        for m in READ_PATH_LOCK.finditer(clean):
            method = enclosing_method(regions, m.start())
            if method is not None and (
                    method.startswith("Get") or method == "MultiGet"):
                check(src, "read-path-lock", src.line_of(m.start()),
                      "mutex in a Get*/MultiGet body; point reads pin "
                      "the ReadView lock-free", violations, rel_str)
        if in_multilevel:
            for m in COMPACTION_PICK_ACCESS.finditer(clean):
                method = enclosing_method(regions, m.start())
                if method is not None and (
                        method.startswith("Pick") or method in (
                            "CompactionPending", "RunCompactionPass")):
                    check(src, "compaction-pick", src.line_of(m.start()),
                          "direct version walk in a compaction decision; "
                          "picks go through engine::CompactionPolicy over "
                          "BuildCompactionInputsLocked", violations, rel_str)
    return src


def main() -> int:
    violations = []
    sources = {}
    for d in OPTION_SETTER_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                src = lint_file(path, violations)
                if src is not None:
                    sources[src.path] = src
    lint_unset_options(sources, violations)
    for path, lineno, rule, msg in violations:
        print(f"{path}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
