#!/usr/bin/env python3
"""Compare bench JSON reports against committed baselines.

Two modes:

  single file:   bench_compare.py baselines/BENCH_x.json BENCH_x.json
  directory:     bench_compare.py bench/baselines .

In directory mode every BENCH_*.json in the baseline directory is compared
against the file of the same name in the current directory (one invocation
gates the whole suite); current-side files with no baseline are listed as
informational.

Files are JsonReport output (bench_common.hpp): a JSON array of records
keyed by (bench, dataset, phase) — thread count is deliberately not part of
the key, since the baseline and the CI runner rarely have the same core
count and a missing key would silence the comparison.  A record carries
either `seconds` or an exact `count` (bytes, elements).

Two gates:

  seconds  soft: for every key present in both files, a slowdown beyond the
           threshold is a ::warning:: (CI smoke runners are noisy, shared
           machines — a hard fail would flake).
  count    exact: a count that changed, or a baseline count record missing
           from a current run that measured its (bench, dataset), is an
           ::error:: and the script exits 1.  Counts do not depend on the
           machine, so any difference is a change in the program.

The warnings and errors land in the job log and as annotations on the PR,
and when GITHUB_STEP_SUMMARY is set a markdown comparison table lands on
the run's summary page.  Regenerate a baseline with e.g.

    ./build/bench/bench_kernels --smoke --json bench/baselines/BENCH_centrality.json

on a quiet machine when an intentional perf change shifts it, and together
with the change that moves a count.
"""

import argparse
import glob
import json
import os
import sys


def key(rec):
    return (rec.get("bench"), rec.get("dataset"), rec.get("phase"))


def load(path):
    with open(path) as f:
        records = json.load(f)
    out = {}
    for rec in records:
        out[key(rec)] = rec
    return out


def compare_counts(base, cur):
    """Exact gate on `count` records; returns (compared, failed)."""
    compared = failed = 0
    measured = {(k[0], k[1]) for k in cur}
    for k, ref in sorted(base.items(), key=str):
        if "count" not in ref:
            continue
        rec = cur.get(k)
        if rec is None:
            if (k[0], k[1]) in measured:
                failed += 1
                print(f"::error title=bench count missing::{k}: baseline "
                      f"count {ref['count']}, absent from the current run")
            continue
        compared += 1
        if rec.get("count") != ref["count"]:
            failed += 1
            print(f"::error title=bench count changed::{k}: "
                  f"{ref['count']} -> {rec.get('count')}")
        else:
            print(f"  {k}: count {ref['count']} (exact)")
    return compared, failed


def compare_one(baseline_path, current_path, threshold, summary_rows):
    """Compare one baseline/current file pair.

    Returns (compared, warned, failed): timed records compared, timed
    records past the threshold, and count records that changed or went
    missing."""
    try:
        base = load(baseline_path)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read baseline {baseline_path}: {e}")
        print("bench_compare: skipping comparison (no baseline yet)")
        return 0, 0, 0
    try:
        cur = load(current_path)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read current {current_path}: {e}")
        return 0, 0, 0

    warned = 0
    compared = 0
    name = os.path.basename(baseline_path)
    print(f"== {name}: {baseline_path} vs {current_path}")
    counted, failed = compare_counts(base, cur)
    for k, rec in sorted(cur.items(), key=str):
        ref = base.get(k)
        if ref is None:
            print(f"  new record (no baseline): {k}")
            continue
        base_s, cur_s = ref.get("seconds"), rec.get("seconds")
        if not base_s or not cur_s:
            continue
        compared += 1
        ratio = cur_s / base_s
        marker = ""
        if ratio > 1.0 + threshold:
            warned += 1
            marker = "  <-- REGRESSION"
            print(f"::warning title=bench regression::{k}: "
                  f"{base_s:.4f}s -> {cur_s:.4f}s ({ratio:.2f}x)")
        print(f"  {k}: {base_s:.4f}s -> {cur_s:.4f}s ({ratio:.2f}x){marker}")
        summary_rows.append((name, k, base_s, cur_s, ratio,
                             ratio > 1.0 + threshold))
    for k in sorted(base.keys() - cur.keys(), key=str):
        if "count" not in base[k]:
            print(f"  record missing from current run: {k}")
    print(f"  {counted} counts compared exactly, {failed} failed")
    return compared, warned, failed


def write_step_summary(summary_rows, compared, warned, failed, threshold):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not summary_rows:
        return
    with open(path, "a") as f:
        f.write("## Bench comparison\n\n")
        f.write(f"{compared} records compared, **{warned} regressed** "
                f"beyond {threshold:.0%}, **{failed} exact counts "
                f"failed**\n\n")
        f.write("| file | bench | dataset | phase | baseline (s) | "
                "current (s) | ratio |\n")
        f.write("|---|---|---|---|---:|---:|---:|\n")
        for name, k, base_s, cur_s, ratio, regressed in summary_rows:
            bench, dataset, phase = k
            flag = " :warning:" if regressed else ""
            f.write(f"| {name} | {bench} | {dataset} | {phase} | "
                    f"{base_s:.4f} | {cur_s:.4f} | {ratio:.2f}x{flag} |\n")
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed baseline JSON file, or a "
                                     "directory of BENCH_*.json baselines")
    ap.add_argument("current", help="freshly measured JSON file, or the "
                                    "directory holding the fresh BENCH_*.json "
                                    "files")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="relative slowdown that triggers a warning "
                         "(0.20 = 20%%)")
    args = ap.parse_args()

    summary_rows = []
    compared = warned = failed = 0
    if os.path.isdir(args.baseline):
        baselines = sorted(glob.glob(os.path.join(args.baseline,
                                                  "BENCH_*.json")))
        if not baselines:
            print(f"bench_compare: no BENCH_*.json under {args.baseline}")
            return 0
        for b in baselines:
            c = os.path.join(args.current, os.path.basename(b))
            if not os.path.exists(c):
                print(f"== {os.path.basename(b)}: no current-run file "
                      f"({c}), skipped")
                continue
            got_c, got_w, got_f = compare_one(b, c, args.threshold,
                                              summary_rows)
            compared += got_c
            warned += got_w
            failed += got_f
        extra = sorted(
            set(os.path.basename(p)
                for p in glob.glob(os.path.join(args.current,
                                                "BENCH_*.json"))) -
            set(os.path.basename(p) for p in baselines))
        for name in extra:
            print(f"== {name}: current-run only (no committed baseline)")
    else:
        compared, warned, failed = compare_one(args.baseline, args.current,
                                               args.threshold, summary_rows)

    write_step_summary(summary_rows, compared, warned, failed,
                       args.threshold)
    print(f"bench_compare: {compared} compared, {warned} regressed beyond "
          f"{args.threshold:.0%}, {failed} exact counts failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
