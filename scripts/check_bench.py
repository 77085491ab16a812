#!/usr/bin/env python3
"""Threshold gate for the CI bench-smoke job.

Compares a freshly produced BENCH_*.json against its checked-in
baseline (bench/baselines/) and fails when any shared result entry is
more than --max-regress times slower than the baseline. The bound is
deliberately loose: CI runners are noisy, so this catches
order-of-magnitude regressions (a lookup table that stopped being
used, an accidentally quadratic loop), not jitter.

Result entries are keyed by their string-valued fields (code/kernel/op
for codec_throughput, scenario/path for scrub_throughput and
timing_throughput), so adding or removing scenarios never breaks the
gate: only keys present in BOTH files are compared, and the counts are
reported.

Usage:
  check_bench.py --baseline bench/baselines/BENCH_x.json \
                 --current BENCH_x.json [--max-regress 2.0]

A missing baseline file is not an error: new benches land before
their baseline is recorded, so the gate warns and skips (exit 0)
instead of failing the job. Corrupt or malformed files still exit 2.

Exit codes: 0 ok (or baseline missing), 1 regression found,
2 bad invocation/input (including a --max-regress that is not a finite
positive number: every comparison with NaN is false, so a NaN bound
would pass any regression).
"""

import argparse
import json
import math
import os
import sys


def load_results(path):
    """Map result-entry key -> mbps for one BENCH_*.json file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"check_bench: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    results = doc.get("results")
    if not isinstance(results, list):
        print(f"check_bench: {path} has no results list", file=sys.stderr)
        sys.exit(2)
    out = {}
    for entry in results:
        key = "/".join(
            str(entry[k])
            for k in sorted(entry)
            if isinstance(entry[k], str)
        )
        out[key] = float(entry.get("mbps", 0.0))
    return doc.get("benchmark", "?"), out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in reference BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--max-regress", type=float, default=2.0,
                        help="fail when baseline/current exceeds this "
                             "ratio (default 2.0)")
    args = parser.parse_args()
    if not math.isfinite(args.max_regress) or args.max_regress <= 0:
        parser.error("--max-regress must be a finite positive number")

    if not os.path.exists(args.baseline):
        print(f"check_bench: baseline {args.baseline} not found; "
              f"skipping the gate (record one to arm it)",
              file=sys.stderr)
        sys.exit(0)

    base_name, base = load_results(args.baseline)
    cur_name, cur = load_results(args.current)
    if base_name != cur_name:
        print(f"check_bench: benchmark mismatch: baseline is "
              f"'{base_name}', current is '{cur_name}'", file=sys.stderr)
        sys.exit(2)

    shared = sorted(set(base) & set(cur))
    if not shared:
        print("check_bench: no shared result entries to compare",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    for key in shared:
        if base[key] <= 0.0:
            continue
        ratio = base[key] / cur[key] if cur[key] > 0.0 else float("inf")
        marker = "FAIL" if ratio > args.max_regress else "ok"
        print(f"  [{marker}] {key}: baseline {base[key]:.2f} MB/s, "
              f"current {cur[key]:.2f} MB/s ({ratio:.2f}x slower)")
        if ratio > args.max_regress:
            failures.append(key)

    skipped = (len(base) - len(shared), len(cur) - len(shared))
    print(f"check_bench[{base_name}]: {len(shared)} compared, "
          f"{skipped[0]} baseline-only, {skipped[1]} current-only, "
          f"{len(failures)} regressed (>{args.max_regress}x)")
    if failures:
        print("check_bench: regression in: " + ", ".join(failures),
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
