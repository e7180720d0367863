#!/usr/bin/env python3
"""Build and run the SNAP end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first run configures and
compiles libsnap and bench_e2e into .bench_build/e2e; later runs only let
the build tool confirm nothing changed.  Generated graphs are cached in
.bench_build/corpus and traces are written to .bench_build/traces.  The
benchmark's output passes through; its last line is the result JSON.  The
exit status is non-zero, with no result printed, when the build or the run
fails.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "e2e"
RUN_TIMEOUT_S = 170
# Temporary files (the compiler's included) stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=str(OUT / "tmp"))


def build() -> pathlib.Path:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, env=ENV)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, env=ENV)
    return BUILD / "bench_e2e"


def commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--corpus-dir", str(OUT / "corpus")]
    if args.trace:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / f"{args.workload}-s{args.seed}.json")]
    sha = commit()
    if sha:
        cmd += ["--commit", sha]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=ENV,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
