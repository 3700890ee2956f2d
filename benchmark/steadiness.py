#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics, measured the way the
driver measures it.

Runs the command of BENCHMARK.json ten times on each workload, each time
with another seed, and prints for every (metric, workload) pair the distance
between the first and third quartile of the ten values as a share of their
median, next to the metric's bound. A pair is steady when its spread is
below a third of the bound. The last column is the spread the same
estimates would have had without the host calibration (src/calib.rs).

    python3 benchmark/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run it from the repository root. Results go to benchmark/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {m: [] for m in bounds} for w in workloads}
    # The same estimates without the host calibration, from the result files.
    uncalibrated = {w: {m: [] for m in bounds} for w in workloads}
    seconds = {w: [] for w in workloads}

    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            command = spec["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            started = time.monotonic()
            out = subprocess.run(command, check=True, capture_output=True, text=True)
            seconds[workload].append(time.monotonic() - started)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} wrong results")
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            path = Path(f"benchmark/out/result-{workload}-seed{seed}.json")
            recorded = json.loads(path.read_text())["workloads"][workload]["metrics"]
            for name, metric in recorded.items():
                uncalibrated[workload][name].append(metric.get("uncalibrated", metric["value"]))
            print(f"seed {seed} {workload}: {seconds[workload][-1]:.1f} s", file=sys.stderr)

    worst = 0.0
    def spread_of(sample):
        q1, median, q3 = statistics.quantiles(sample, n=4)
        return median, (q3 - q1) / median

    print(f"{'workload':<12} {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12} {'uncalibrated':>12}")
    for workload in workloads:
        for name, bound in bounds.items():
            median, spread = spread_of(values[workload][name])
            _, raw = spread_of(uncalibrated[workload][name])
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:<12} {name:<16} {median:>12.5g} {spread:>8.4f} {bound:>6} {spread / bound:>12.2f} {raw:>12.4f}")
        print(f"{workload:<12} wall seconds per run: median {statistics.median(seconds[workload]):.1f}")
    print(f"worst spread/bound (setup_s aside): {worst:.2f}")

    out = Path("benchmark/out")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"steadiness-seed{args.first_seed}.json"
    record = {"values": values, "uncalibrated": uncalibrated, "seconds": seconds}
    path.write_text(json.dumps(record, indent=1))
    print(f"values -> {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
