#!/usr/bin/env python3
"""Project-specific lint rules for the SNAP library sources.

clang-tidy covers the generic C++ pitfalls; these rules encode contracts
that are unique to this codebase's determinism and performance guarantees:

  randomness        No rand()/srand()/std::random_device/std::mt19937/
                    time(NULL)-style seeding outside snap/util/rng.hpp.
                    Every random stream must flow through the seeded,
                    deterministic SplitMix64 so results are reproducible.
  std-function      No std::function in snap library code (parameters or
                    members): hot-loop visitor APIs must stay templated so
                    the per-neighbor callback inlines.  The one deliberate
                    ABI-compat overload carries a suppression.
  omp-critical      Every `#pragma omp critical` needs an adjacent
                    `justification:` comment.  Criticals serialize a
                    parallel region; an unexplained one is either a perf
                    bug or a determinism patch hiding a design problem.
  reduction-note    Every parallel::atomic_add call site — and every
                    hand-rolled CAS accumulation of the form
                    compare_exchange_weak(cur, cur + x) — needs a nearby
                    `reduction:` comment stating that the accumulated
                    value is order-dependent (and hence not thread-count
                    reproducible).  Keeps the float-determinism contract
                    (docs/CORRECTNESS.md) auditable by grep.
  raw-mutex         No bare std::mutex / std::condition_variable /
                    std::lock_guard (or friends) in snap library code
                    outside snap/util/sync.hpp.  Locking must go through
                    the capability-annotated sync:: wrappers so Clang's
                    -Wthread-safety analysis sees every acquisition.
  guard-note        Every `sync::Mutex` member declaration needs an
                    adjacent `guards:` comment naming the fields it
                    protects, keeping the lock catalog
                    (docs/CORRECTNESS.md) greppable and in sync with the
                    GUARDED_BY annotations.
  exec-path         No `enum class` whose enumerators include kAuto,
                    kSerial and kParallel outside snap/graph/types.hpp.
                    Every kernel with a serial oracle and a parallel
                    engine selects between them through the one
                    snap::ExecPath and parallel::use_parallel; a private
                    copy of that enum brings back a private cutoff policy.
  bfs-engine        No function returning BFSResult may be defined in
                    snap library code outside snap/kernels/bfs.cpp and
                    snap/kernels/frontier.{hpp,cpp}.  Every BFS entry
                    point, on every layout, instantiates the one
                    direction-optimizing level loop (BfsEngine) or is a
                    serial oracle beside it; a BFS defined elsewhere is a
                    private engine with its own switch rule.

Suppress a finding with `// lint:allow(<rule>)` on the offending line.

Usage:
  lint_snap.py --root <repo-root>         lint src/snap; exit 1 on findings
  lint_snap.py --self-test [--root ...]   run the fixture suite in
                                          tools/lint_fixtures
  lint_snap.py --github-summary PATH      also append a per-rule finding
                                          count table (markdown) to PATH;
                                          defaults to $GITHUB_STEP_SUMMARY
                                          when set
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys
from dataclasses import dataclass


@dataclass
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


RAW_STRING_PREFIX = re.compile(r"(?:u8|u|U|L)?R$")


def raw_string_span(text: str, i: int) -> int | None:
    """If the '\"' at text[i] opens a C++ raw string literal
    (R"delim(...)delim", with an optional u8/u/U/L encoding prefix),
    return the index one past its closing quote; else None."""
    m = RAW_STRING_PREFIX.search(text, max(0, i - 3), i)
    if not m:
        return None
    start = m.start()
    if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
        return None  # identifier ending in R, not a raw-string prefix
    paren = text.find("(", i + 1)
    # The delimiter is at most 16 chars and contains no whitespace/parens.
    if paren == -1 or paren - (i + 1) > 16:
        return None
    delim = text[i + 1 : paren]
    if any(ch in ' \t\n\\)"' for ch in delim):
        return None
    close = text.find(")" + delim + '"', paren + 1)
    if close == -1:
        return len(text)  # unterminated: swallow the rest of the file
    return close + len(delim) + 2


def strip_comments_and_strings(text: str) -> list[str]:
    """Return the file's lines with comments and string/char literals
    blanked out (replaced by spaces, preserving line structure), so the
    rules below match only real code.  Raw string literals
    (R"(...)"/R"delim(...)delim") are handled as a unit — their contents
    may hold unbalanced quotes that would otherwise desync the matcher."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                end = raw_string_span(text, i)
                if end is not None:
                    # Blank the whole literal, newlines preserved (raw
                    # strings may span lines).
                    out.extend(ch if ch == "\n" else " "
                               for ch in text[i:end])
                    i = end
                else:
                    state = "string"
                    out.append(" ")
                    i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out).splitlines()


def suppressed(raw_lines: list[str], idx: int, rule: str) -> bool:
    return f"lint:allow({rule})" in raw_lines[idx]


RANDOMNESS_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::mt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "time()-based seeding"),
]


def check_randomness(path, raw, code):
    if path.name == "rng.hpp" and path.parent.name == "util":
        return
    for i, line in enumerate(code):
        for pat, what in RANDOMNESS_PATTERNS:
            if pat.search(line) and not suppressed(raw, i, "randomness"):
                yield Finding(path, i + 1, "randomness",
                              f"{what} outside snap/util/rng.hpp breaks "
                              "run-to-run reproducibility; use SplitMix64 "
                              "with an explicit seed")


STD_FUNCTION = re.compile(r"\bstd::function\b")


def check_std_function(path, raw, code):
    for i, line in enumerate(code):
        if STD_FUNCTION.search(line) and not suppressed(raw, i, "std-function"):
            yield Finding(path, i + 1, "std-function",
                          "std::function in library code defeats visitor "
                          "inlining; take a template callable (suppress "
                          "deliberate ABI shims with "
                          "// lint:allow(std-function))")


OMP_CRITICAL = re.compile(r"#\s*pragma\s+omp\s+critical")


def check_omp_critical(path, raw, code):
    for i, line in enumerate(code):
        if not OMP_CRITICAL.search(line):
            continue
        if suppressed(raw, i, "omp-critical"):
            continue
        window = raw[max(0, i - 2) : i + 1]
        if not any("justification:" in w for w in window):
            yield Finding(path, i + 1, "omp-critical",
                          "#pragma omp critical without a 'justification:' "
                          "comment within the two preceding lines; explain "
                          "why serialization is unavoidable here")


ATOMIC_ADD = re.compile(r"\bparallel\s*::\s*atomic_add\s*\(")
# Hand-rolled CAS accumulation: compare_exchange_weak(cur, cur + x) (or
# cur - x, or compare_exchange_strong).  Same order-dependence as
# atomic_add — and it additionally bypasses the shared primitive, so it
# must carry the same 'reduction:' annotation to stay grep-auditable.
CAS_ADD = re.compile(
    r"\bcompare_exchange_(?:weak|strong)\s*\(\s*(\w+)\s*,\s*\1\s*[+\-]")


def check_reduction_note(path, raw, code):
    if path.name == "parallel.hpp":
        return  # the primitive's own definition
    for i, line in enumerate(code):
        is_atomic_add = bool(ATOMIC_ADD.search(line))
        is_cas_add = bool(CAS_ADD.search(line))
        if not (is_atomic_add or is_cas_add):
            continue
        if suppressed(raw, i, "reduction-note"):
            continue
        window = raw[max(0, i - 3) : i + 1]
        if not any("reduction:" in w for w in window):
            what = ("parallel::atomic_add" if is_atomic_add
                    else "hand-rolled compare_exchange accumulation")
            yield Finding(path, i + 1, "reduction-note",
                          f"{what} without a 'reduction:' "
                          "comment within the three preceding lines; state "
                          "that this sum is accumulation-order-dependent")


RAW_MUTEX = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")


def in_sync_header(path: pathlib.Path) -> bool:
    return path.name == "sync.hpp" and path.parent.name == "util"


def check_raw_mutex(path, raw, code):
    if in_sync_header(path):
        return  # the one place allowed to wrap the std primitives
    for i, line in enumerate(code):
        m = RAW_MUTEX.search(line)
        if m and not suppressed(raw, i, "raw-mutex"):
            yield Finding(path, i + 1, "raw-mutex",
                          f"std::{m.group(1)} outside snap/util/sync.hpp is "
                          "invisible to Clang's -Wthread-safety analysis; "
                          "use sync::Mutex / sync::MutexLock / sync::CondVar "
                          "so the lock discipline stays compile-time checked")


# A sync::Mutex *declaration* (member or local): type, name, then ';', an
# initializer or a brace — not a `sync::Mutex&` parameter or return type.
GUARD_MUTEX_DECL = re.compile(r"\bsync::Mutex\s+\w+\s*[;={]")


def check_guard_note(path, raw, code):
    if in_sync_header(path):
        return
    for i, line in enumerate(code):
        if not GUARD_MUTEX_DECL.search(line):
            continue
        if suppressed(raw, i, "guard-note"):
            continue
        window = raw[max(0, i - 2) : i + 2]
        if not any("guards:" in w for w in window):
            yield Finding(path, i + 1, "guard-note",
                          "sync::Mutex declaration without an adjacent "
                          "'guards:' comment naming the fields it protects; "
                          "the greppable lock catalog "
                          "(docs/CORRECTNESS.md) must stay complete")


# An enum class definition; the body may span lines (matched on the joined,
# comment-stripped text).
ENUM_CLASS = re.compile(r"\benum\s+(?:class|struct)\s+(\w+)[^{;]*\{([^}]*)\}")
EXEC_PATH_ENUMERATORS = {"kAuto", "kSerial", "kParallel"}


def check_exec_path(path, raw, code):
    if path.name == "types.hpp" and path.parent.name == "graph":
        return  # the one home of snap::ExecPath
    text = "\n".join(code)
    for m in ENUM_CLASS.finditer(text):
        names = {e.split("=")[0].strip() for e in m.group(2).split(",")}
        if not EXEC_PATH_ENUMERATORS <= names:
            continue
        i = text.count("\n", 0, m.start())
        if suppressed(raw, i, "exec-path"):
            continue
        yield Finding(path, i + 1, "exec-path",
                      f"enum class {m.group(1)} re-declares the serial/"
                      "parallel engine selector; use snap::ExecPath and "
                      "parallel::use_parallel (snap/graph/types.hpp, "
                      "snap/util/parallel.hpp)")


# A declarator whose return type is BFSResult (optionally snap::-qualified),
# or a trailing `-> BFSResult`; a definition follows its parameter list with
# a body rather than ';'.
BFS_RESULT_DECL = re.compile(
    r"\b(?:snap\s*::\s*)?BFSResult\s+(?:\w+\s*::\s*)*~?\w+\s*\(")
BFS_RESULT_TRAILING = re.compile(r"->\s*(?:snap\s*::\s*)?BFSResult\s*\{")
FUNCTION_BODY = re.compile(r"\s*(?:(?:const|noexcept|override|final)\b\s*)*\{")
BFS_ENGINE_HOMES = {"bfs.cpp", "frontier.hpp", "frontier.cpp"}


def matching_paren(text: str, i: int) -> int | None:
    """Index of the ')' closing the '(' at text[i], or None."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return None


def check_bfs_engine(path, raw, code):
    if path.parent.name == "kernels" and path.name in BFS_ENGINE_HOMES:
        return  # the one engine and the serial oracles
    text = "\n".join(code)
    starts = []
    for m in BFS_RESULT_DECL.finditer(text):
        close = matching_paren(text, m.end() - 1)
        if close is not None and FUNCTION_BODY.match(text, close + 1):
            starts.append(m.start())
    starts += [m.start() for m in BFS_RESULT_TRAILING.finditer(text)]
    for start in sorted(starts):
        i = text.count("\n", 0, start)
        if suppressed(raw, i, "bfs-engine"):
            continue
        yield Finding(path, i + 1, "bfs-engine",
                      "function returning BFSResult defined outside "
                      "snap/kernels/bfs.cpp and snap/kernels/frontier.*; "
                      "instantiate BfsEngine over an AdjacencyView "
                      "(snap/graph/adjacency.hpp) instead of writing "
                      "another BFS")


CHECKS = [check_randomness, check_std_function, check_omp_critical,
          check_reduction_note, check_raw_mutex, check_guard_note,
          check_exec_path, check_bfs_engine]

RULE_NAMES = ["randomness", "std-function", "omp-critical",
              "reduction-note", "raw-mutex", "guard-note", "exec-path",
              "bfs-engine"]


def lint_file(path: pathlib.Path) -> list[Finding]:
    text = path.read_text(encoding="utf-8")
    raw = text.splitlines()
    code = strip_comments_and_strings(text)
    # The two views can disagree in length only on pathological final lines;
    # pad so index lookups stay safe.
    while len(code) < len(raw):
        code.append("")
    while len(raw) < len(code):
        raw.append("")
    findings: list[Finding] = []
    for check in CHECKS:
        findings.extend(check(path, raw, code))
    return findings


def lint_tree(root: pathlib.Path) -> list[Finding]:
    src = root / "src" / "snap"
    findings: list[Finding] = []
    for path in sorted(src.rglob("*")):
        if path.suffix in (".hpp", ".cpp"):
            findings.extend(lint_file(path))
    return findings


def self_test(root: pathlib.Path) -> int:
    """Fixture suite: every bad_<rule>* file must trigger exactly that rule;
    every good_* file must be clean."""
    fixtures = root / "tools" / "lint_fixtures"
    failures = 0
    cases = sorted(fixtures.glob("*.cpp"))
    if not cases:
        print(f"self-test: no fixtures found under {fixtures}", file=sys.stderr)
        return 1
    for path in cases:
        findings = lint_file(path)
        name = path.stem
        if name.startswith("bad_"):
            expected = name[len("bad_"):].rsplit("_", 1)[0] \
                if name[len("bad_"):].rsplit("_", 1)[-1].isdigit() \
                else name[len("bad_"):]
            expected = expected.replace("_", "-")
            hit = [f for f in findings if f.rule == expected]
            wrong = [f for f in findings if f.rule != expected]
            if not hit:
                print(f"self-test FAIL: {path.name} expected a "
                      f"[{expected}] finding, got none", file=sys.stderr)
                failures += 1
            if wrong:
                for f in wrong:
                    print(f"self-test FAIL: {path.name} unexpected {f}",
                          file=sys.stderr)
                failures += 1
        else:
            for f in findings:
                print(f"self-test FAIL: clean fixture {path.name} "
                      f"flagged: {f}", file=sys.stderr)
                failures += 1
    if failures == 0:
        print(f"self-test OK ({len(cases)} fixtures)")
    return 1 if failures else 0


def write_summary(findings: list[Finding], dest: pathlib.Path) -> None:
    """Append a per-rule finding-count markdown table (CI step summary)."""
    counts = {rule: 0 for rule in RULE_NAMES}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    lines = ["### lint_snap findings", "", "| rule | findings |", "|---|---|"]
    lines += [f"| `{rule}` | {count} |" for rule, count in counts.items()]
    lines.append("")
    with dest.open("a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    help="repository root (default: inferred from this file)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint_fixtures suite instead of linting src")
    ap.add_argument("--github-summary", type=pathlib.Path,
                    default=None, metavar="PATH",
                    help="append a per-rule count table to PATH (default: "
                         "$GITHUB_STEP_SUMMARY when set)")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.root)

    findings = lint_tree(args.root)
    for f in findings:
        print(f)
    summary = args.github_summary
    if summary is None:
        env = os.environ.get("GITHUB_STEP_SUMMARY")
        summary = pathlib.Path(env) if env else None
    if summary is not None:
        write_summary(findings, summary)
    if findings:
        print(f"lint_snap: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_snap: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
