#!/usr/bin/env python3
"""Exit-code checks for the bench command lines.

Usage:
  test_bench_cli.py --bench build/bench/bench_scrub_throughput \
                    --workdir DIR --case NAME

Runs the bench with the case's arguments inside DIR (so a report never
lands in the source tree) and exits 0 when its exit code is the
expected one, 1 otherwise. Cases:

  points-junk      --points abc                       -> 2
  points-zero      --points 0                         -> 2
  points-negative  --points -1                        -> 2
  seed-junk        --seed 12abc                       -> 2
  json-unwritable  --json into a missing directory    -> 1
  ok               a --quick run writing its report   -> 0
  unknown-flag     --bogus alone                      -> 2
  list             --list alone                       -> 0, and stdout
                   holds only point labels: it is not empty, and
                   --list --filter L, for its first and last line L,
                   prints only lines that contain L, L among them (a
                   banner or table line would contain neither)

Every bench binary runs unknown-flag, and every sweep-driven bench
runs list. The other cases are for the throughput benches: they run on
top of --quick (and, except for bench_codec_throughput, which takes no
--points/--seed, --points 1) so they stay fast.
"""

import argparse
import subprocess
import sys
from pathlib import Path

# name -> (arguments, expected exit code)
CASES = {
    "points-junk": (["--points", "abc"], 2),
    "points-zero": (["--points", "0"], 2),
    "points-negative": (["--points", "-1"], 2),
    "seed-junk": (["--seed", "12abc"], 2),
    "json-unwritable": (["--json", "missing-dir/report.json"], 1),
    "ok": (["--json", "report.json"], 0),
    "unknown-flag": (["--bogus"], 2),
    "list": (["--list"], 0),
}


def run(bench, args, cwd):
    return subprocess.run([bench] + args, cwd=cwd, capture_output=True,
                          text=True, check=False)


def check_labels(bench, lines, cwd):
    """None when `lines` are only labels (see the list case), else why."""
    if not lines or any(not line.strip() for line in lines):
        return f"--list printed no labels or a blank line: {lines[:5]}"
    for label in {lines[0], lines[-1]}:
        proc = run(bench, ["--list", "--filter", label], cwd)
        picked = proc.stdout.splitlines()
        if proc.returncode != 0:
            return f"--list --filter {label!r}: exit {proc.returncode}"
        if label not in picked or any(label not in p for p in picked):
            return (f"--list --filter {label!r} printed lines other than "
                    f"labels: {picked[:5]}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--case", required=True, choices=sorted(CASES))
    args = parser.parse_args()

    extra, expected = CASES[args.case]
    work = Path(args.workdir) / args.case
    work.mkdir(parents=True, exist_ok=True)
    report = work / "report.json"
    report.unlink(missing_ok=True)
    quick = []
    if args.case not in ("unknown-flag", "list"):
        quick = ["--quick"]
        if "codec" not in Path(args.bench).name:
            quick += ["--points", "1"]

    proc = run(args.bench, quick + extra, work)
    sys.stdout.write(proc.stdout[-2000:])
    sys.stdout.write(proc.stderr)
    if proc.returncode != expected:
        print(f"case {args.case}: exit {proc.returncode}, "
              f"expected {expected}")
        return 1
    if args.case == "ok" and not report.is_file():
        print(f"case {args.case}: exit 0 but no report written")
        return 1
    if args.case == "list":
        why = check_labels(args.bench, proc.stdout.splitlines(), work)
        if why:
            print(f"case list: {why}")
            return 1
    print(f"case {args.case}: exit {proc.returncode} as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
