#!/usr/bin/env python3
"""The benchmark's own test.

Runs two short runs of every workload at one seed and checks three
things: the fingerprint lines (exact simulated counts) are identical,
every step passed its check, and the result line has the required
shape. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def short_run(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, (workload, proc.returncode, proc.stderr)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    for name in ("steps_per_s", "step_p50_ms", "step_tail_ms", "setup_s",
                 "peak_rss_mb"):
        metric = result["metrics"][name]
        assert metric["value"] > 0 and metric["unit"], (name, metric)
    fingerprint = [l for l in lines if l.startswith("fingerprint ")]
    assert len(fingerprint) == 1, lines
    return fingerprint[0]


def main():
    sys.path.insert(0, str(RUN.parent))
    import run  # noqa: E402 (the workload list lives there)

    for workload in run.WORKLOADS:
        first, second = short_run(workload), short_run(workload)
        assert first == second, f"{workload}:\n{first}\n{second}"
        print(f"ok {workload}: {first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
