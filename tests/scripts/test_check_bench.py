#!/usr/bin/env python3
"""Exit-code checks for scripts/check_bench.py on tiny JSON fixtures.

Usage:
  test_check_bench.py --script scripts/check_bench.py --workdir DIR \
                      --case NAME

Writes the case's baseline/current fixtures into DIR/NAME, runs the
gate on them and exits 0 when its exit code is the expected one, 1
otherwise. Cases:

  pass              identical results                        -> 0
  slower            current 3x slower than the baseline      -> 1
  missing-baseline  the baseline file does not exist         -> 0
  disjoint          no result key shared by the two files    -> 2
  nan               --max-regress nan on a 100x regression   -> 2
  inf               --max-regress inf on a 100x regression   -> 2
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def bench(results):
    """A BENCH_*.json document with one result entry per (key, mbps)."""
    return {
        "benchmark": "fixture",
        "results": [{"scenario": key, "path": "calendar", "mbps": mbps}
                    for key, mbps in results],
    }


# name -> (baseline results or None for a missing file, current results,
#          extra arguments, expected exit code)
CASES = {
    "pass": ([("a", 100.0)], [("a", 100.0)], [], 0),
    "slower": ([("a", 100.0)], [("a", 100.0 / 3)], [], 1),
    "missing-baseline": (None, [("a", 100.0)], [], 0),
    "disjoint": ([("a", 100.0)], [("b", 100.0)], [], 2),
    "nan": ([("a", 100.0)], [("a", 1.0)], ["--max-regress", "nan"], 2),
    "inf": ([("a", 100.0)], [("a", 1.0)], ["--max-regress", "inf"], 2),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--script", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--case", required=True, choices=sorted(CASES))
    args = parser.parse_args()

    baseline, current, extra, expected = CASES[args.case]
    work = Path(args.workdir) / args.case
    work.mkdir(parents=True, exist_ok=True)
    base_path = work / "baseline.json"
    cur_path = work / "current.json"
    base_path.unlink(missing_ok=True)
    if baseline is not None:
        base_path.write_text(json.dumps(bench(baseline)))
    cur_path.write_text(json.dumps(bench(current)))

    proc = subprocess.run(
        [sys.executable, args.script, "--baseline", str(base_path),
         "--current", str(cur_path)] + extra,
        capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.write(proc.stderr)
    if proc.returncode != expected:
        print(f"case {args.case}: exit {proc.returncode}, "
              f"expected {expected}")
        return 1
    print(f"case {args.case}: exit {proc.returncode} as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
