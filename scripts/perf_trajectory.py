#!/usr/bin/env python3
"""The perfbench trajectory: an append-only JSONL history and its gate.

    python3 scripts/perf_trajectory.py record --workload W --seed S \
        --seconds T --trace 0|1
    python3 scripts/perf_trajectory.py check [FILE]

Run from anywhere; paths resolve against the repository root. `record`
runs perfbench/run.py with exactly those arguments and appends one line to
PERFBENCH_TRAJECTORY.jsonl, only when the run exits 0 with `correct: true`
and `failed == 0`. `check` validates every line of FILE (default: the
committed trajectory), then gates each pair in GATED: the newest traced
row must be at most BOUND times the lowest earlier row with the same
workload, trace flag and nproc. Any validation or gate failure exits 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "PERFBENCH_TRAJECTORY.jsonl")
REQUIRED = ("commit", "workload", "seed", "seconds", "trace", "nproc",
            "ct_threads", "attempted", "failed", "metrics")
# (workload, metric) pairs gated on traced runs: the full-EM rung and the
# service's ingest call. A traced run reports 0 for every layer its
# workload does not exercise, so each metric is gated only on its own.
GATED = (("faults", "rung.full_em.ms"), ("service", "svc.ingest.ns_per_batch"))
BOUND = 1.15


def record(args):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or not lines:
        print(f"record: perfbench exited {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"record: run not clean: correct={result.get('correct')} "
              f"failed={result.get('failed')}", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    row = {"commit": commit, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": len(os.sched_getaffinity(0)),
           "ct_threads": os.environ.get("CT_THREADS"),
           "attempted": result["attempted"], "failed": result["failed"],
           "metrics": {k: m["value"] for k, m in result["metrics"].items()}}
    with open(TRAJECTORY, "a", encoding="utf-8") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"record: appended {args.workload} trace={args.trace} at {commit[:12]}")
    return 0


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate(n, row):
    """The problems with line `n` (1-based); empty when it is well formed."""
    if not isinstance(row, dict):
        return [f"line {n}: not a JSON object"]
    problems = [f"line {n}: missing key {k}" for k in REQUIRED if k not in row]
    if problems:
        return problems
    if row["trace"] not in (0, 1):
        problems.append(f"line {n}: trace must be 0 or 1")
    for key in ("seed", "seconds", "nproc", "attempted", "failed"):
        if not is_number(row[key]) or row[key] < 0:
            problems.append(f"line {n}: {key} must be a number >= 0")
    metrics = row["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        return problems + [f"line {n}: metrics must be a non-empty object"]
    for name, value in metrics.items():
        if not is_number(value) or not math.isfinite(value) or value < 0:
            problems.append(f"line {n}: metric {name} = {value!r} is not finite and >= 0")
    for workload, metric in GATED:
        if row["workload"] == workload and row["trace"] == 1:
            value = metrics.get(metric)
            if not is_number(value) or value <= 0:
                problems.append(f"line {n}: gated {metric} reads {value!r} on a traced "
                                f"{workload} run")
    return problems


def check(args):
    path = args.file or TRAJECTORY
    rows, problems = [], []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                problems.append(f"line {n}: invalid JSON: {e}")
                continue
            found = validate(n, row)
            problems += found
            if not found:
                rows.append(row)
    for workload, metric in GATED:
        runs = [r for r in rows if r["workload"] == workload and r["trace"] == 1]
        if not runs:
            problems.append(f"{workload}/{metric}: no traced row to gate")
            continue
        newest = runs[-1]
        earlier = [r["metrics"][metric] for r in runs[:-1] if r["nproc"] == newest["nproc"]]
        value = newest["metrics"][metric]
        if not earlier:
            print(f"gate {workload}/{metric}: {value:.4g}, no earlier row at "
                  f"nproc={newest['nproc']}")
            continue
        best = min(earlier)
        verdict = "ok" if value <= BOUND * best else "REGRESSED"
        print(f"gate {workload}/{metric}: newest {value:.4g} vs best {best:.4g} "
              f"({value / best:.3f}x, bound {BOUND}x) {verdict}")
        if verdict != "ok":
            problems.append(f"{workload}/{metric} regressed {value / best - 1:.1%} "
                            f"past the {BOUND - 1:.0%} bound")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(f"check: {len(rows)} rows, {len(problems)} problems")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run perfbench and append its result")
    rec.add_argument("--workload", required=True, choices=("pipeline", "faults", "service"))
    rec.add_argument("--seed", required=True, type=int)
    rec.add_argument("--seconds", required=True, type=float)
    rec.add_argument("--trace", required=True, type=int, choices=(0, 1))
    chk = sub.add_parser("check", help="validate the trajectory and gate it")
    chk.add_argument("file", nargs="?", help="trajectory to check (default: the committed one)")
    args = parser.parse_args()
    return record(args) if args.command == "record" else check(args)


if __name__ == "__main__":
    sys.exit(main())
