#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer speed of the simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pcm-hashmap --seed 1 \
        --seconds 36 --trace 0

Builds perfbench/ (the simulator library from src/ plus the workload
runner) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset, runs one workload (or `--workload all`), checks every
step's outcome, and prints a report. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. See perfbench/README.md for the definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Held-out workload seed: no change may be tuned against it, and every
# claimed gain must also hold on it.
HELD_OUT_SEED = 20181020

# Worker count pinned for every run (the workloads are single-threaded).
JOBS = "1"

# Workload names and their `why`, and the metric names and units, are
# those of BENCHMARK.json at the root of the checkout.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}

# Per workload, the step lag that pairs each untraced step with traced
# steps of the same kind for trace.overhead_pct (crash-recovery cycles
# through five chunk kinds). The steps in a pass are fixed in
# perfbench.cc: 50 slices (pcm-hashmap), 24 trials (RAS), 25 chunks
# (crash).
WORKLOADS = {
    "pcm-hashmap": {"trace_lag": 1},
    "ras-chipkill": {"trace_lag": 1},
    "crash-recovery": {"trace_lag": 5},
}

# Trials in one crash-recovery step (perfbench.cc's chunk size).
CRASH_CHUNK_TRIALS = 125
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (Path.cwd() / base / "perfbench").resolve()


def build(deadline):
    """Configure and build perfbench; returns the runner's path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, left))
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"build failed: {exc}") from exc
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return out / "perfbench"


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NVCK_")}
    env["NVCK_JOBS"] = JOBS
    return env


def run_runner(exe, workload, seed, seconds, trace, trace_out, deadline):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("no time left to run " + workload)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=left, env=child_env())
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"{workload}: {exc}") from exc
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: runner exited {proc.returncode} "
                         "without a result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    pct = (100 * (n - TAIL_BEYOND)) // n
    return xs[n - TAIL_BEYOND - 1], pct, n


def trace_overhead_pct(step_ms, lag):
    """Traced (even) steps against the untraced (odd) step between them.

    Each odd step i is compared with the mean of steps i - lag and
    i + lag. The mean cancels a linear trend in step cost, which the
    timing workloads have at the parent commit. An odd lag keeps the
    parities apart while pairing steps of the same kind (crash-recovery
    cycles through five kinds).
    """
    ratios = [(step_ms[i - lag] + step_ms[i + lag]) / 2 / step_ms[i]
              for i in range(lag, len(step_ms) - lag)
              if i % 2 == 1]
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def check_outputs(workload, res):
    """Whole-run checks on top of each step's own check."""
    fp = res["fingerprint"]
    problems = []
    if not res["setup_ok"]:
        return ["a set-up failed its check; not every step ran"]
    if not res["passes_agree"]:
        problems.append("the passes' fingerprints differ")
    if res["exit_code"] != 0:
        problems.append(f"runner exited with code {res['exit_code']} "
                        f"with {res['failed']} failed steps")
    if len(res["step_ms"]) != res["steps"]:
        problems.append("missing step times")
    if workload == "pcm-hashmap":
        if not fp["ipc"] > 0 or not fp["pm_writes"] > 0:
            problems.append("no PM traffic retired")
    elif workload == "ras-chipkill":
        if fp["trials"] != res["steps"] or fp["violations"] != 0:
            problems.append("trial count or oracle violations")
        if fp["failovers"] != fp["trials"]:
            problems.append("a chip-kill trial did not fail over")
    else:
        trials = res["steps"] * CRASH_CHUNK_TRIALS
        torn = fp["torn_old"] + fp["torn_new"] + fp["torn_ue"]
        if fp["trials"] != trials or torn != trials or fp["violations"]:
            problems.append("crash tallies do not add up")
    return problems


def span_summary(path):
    """Per-name count, total and self time of the recorded spans."""
    spans = json.loads(Path(path).read_text())
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_us"] - s["start_us"]
    rows = {}
    for s, c in zip(spans, child):
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        dur = s["end_us"] - s["start_us"]
        r[0] += 1
        r[1] += dur
        r[2] += dur - c
    return sorted(rows.items(), key=lambda kv: -kv[1][2])


def fmt(v):
    return repr(v) if isinstance(v, float) else str(v)


def run_workload(exe, workload, seed, seconds, trace, deadline):
    trace_out = build_dir() / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    res = run_runner(exe, workload, seed, seconds, trace, trace_out,
                     deadline)
    steps = res["steps"]
    passes = len(res["pass_s"])
    problems = check_outputs(workload, res)

    step_ms = res["step_ms"]
    e2e = {
        "steps_per_s": 0.0, "step_p50_ms": 0.0, "step_tail_ms": 0.0,
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    tail_ms, tail_pct, n = 0.0, 0, 0
    # After a failed set-up the runner gives no step times, and the step
    # metrics read 0.
    if step_ms:
        tail_ms, tail_pct, n = tail(step_ms)
        e2e.update(steps_per_s=len(step_ms) / (sum(step_ms) / 1e3),
                   step_p50_ms=statistics.median(step_ms),
                   step_tail_ms=tail_ms)
    calib = res["calib_ms"]
    layer = {name: 0.0 for name, _ in PER_LAYER}
    layer.update(res["layers"])
    for phase, s in res["setup_phases_s"].items():
        layer[f"sim.setup.{phase}_s"] = s
    layer["host.calib_ms"] = statistics.mean(calib)
    if trace:
        layer["trace.overhead_pct"] = trace_overhead_pct(
            res["traced_step_ms"], WORKLOADS[workload]["trace_lag"])

    print(f"== {workload}: seed {seed}, {steps} steps in each of "
          f"{passes} passes, NVCK_JOBS={JOBS}, trace {int(trace)}")
    print(f"   why: {WHY[workload]}")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"   {name:<14} {value:14.6f} {units[name]}")
    print(f"   step_tail_ms is p{tail_pct} of {n} steps "
          f"({TAIL_BEYOND} beyond it)")
    wall = res["calib_wall_ms"]
    print("   pass step time " +
          " ".join(f"{v:.3f}@{c:g}"
                   for v, c in zip(res["pass_s"], res["pass_cpu"])) +
          " s@cpu; step metrics from each step's mean time over the passes")
    print(f"   failed steps   {res['failed']}/{steps}")
    if step_ms:
        rate = passes * steps / sum(res["pass_wall_s"])
        print(f"   wall clock     {rate:.6f} steps/s over all passes "
              "(includes time stolen by other guests)")
    print(f"   host.calib_ms  before {calib[0]:.3f} after {calib[1]:.3f} "
          f"(wall {wall[0]:.3f} / {wall[1]:.3f})")
    print(f"fingerprint {workload} seed={seed} steps={steps} " +
          " ".join(f"{k}={fmt(v)}" for k, v in res["fingerprint"].items()))
    if trace:
        layer_units = dict(PER_LAYER)
        for name, _ in PER_LAYER:
            print(f"   {name:<38} {layer[name]:16.6f} {layer_units[name]}")
        print(f"   spans: {res['spans']} written to {trace_out}")
        for name, (count, total, own) in span_summary(trace_out)[:8]:
            print(f"     {name:<36} n={count:<6} total {total / 1e3:10.3f} ms"
                  f"  self {own / 1e3:10.3f} ms")
    for p in problems:
        print(f"   CHECK FAILED: {p}")

    chosen = PER_LAYER if trace else END_TO_END
    values = layer if trace else e2e
    return {"correct": not problems, "attempted": steps,
            "failed": max(res["failed"], 1 if problems else 0),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in chosen}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True,
                    help=f"workload seed (held-out seed: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=36,
                    help="wall time of the repeated passes (at least three)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    start = time.monotonic()
    try:
        exe = build(start + 840)
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        deadline = time.monotonic() + 170 * len(names)
        results = {}
        for name in names:
            results[name] = run_workload(exe, name, args.seed, args.seconds,
                                         args.trace, deadline)
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        log(f"perfbench: {exc}")
        return 2

    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] and out["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
