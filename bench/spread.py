"""Spread report: run workloads repeatedly and summarise every metric.

    python3 bench/spread.py [--workload NAME ...] [--seeds N] [--first-seed S]

Runs ``bench/run.py --trace 0`` for ``run_seconds`` once per (workload,
seed), one run at a time, and prints for each end-to-end metric the
median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound in ``BENCHMARK.json``. Results
are also written to ``bench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    quality = [line for line in proc.stdout.splitlines() if "(output quality" in line]
    return result, quality[0] if quality else ""


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(OUT, exist_ok=True)

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, quality = run_once(workload, seed, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {quality}", flush=True)
        report = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            report[name] = dict(summarise(values), values=values, bound=bounds[name])
            row = report[name]
            print(f"  {name:42s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.3f}  bound {row['bound']:.3f}")
        with open(os.path.join(OUT, f"spread-{workload}.json"), "w") as handle:
            json.dump({"seeds": [args.first_seed, args.seeds], "seconds": spec["run_seconds"],
                       "metrics": report, "all_correct": all(r["correct"] for r in runs)},
                      handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
