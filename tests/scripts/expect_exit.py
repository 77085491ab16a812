#!/usr/bin/env python3
"""Run a command and check its exit code.

Usage:
  expect_exit.py --expect N -- COMMAND [ARGS...]

Exits 0 when COMMAND exits with status N, 1 otherwise (including when
it cannot be started). The examples' command-line checks use it: a
malformed argument must exit 2, not run with a guessed value.
"""

import argparse
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expect", type=int, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    proc = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    sys.stdout.write(proc.stdout[-2000:])
    sys.stdout.write(proc.stderr[-2000:])
    if proc.returncode != args.expect:
        print(f"{command}: exit {proc.returncode}, expected {args.expect}")
        return 1
    print(f"{command}: exit {proc.returncode} as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
