#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload knn_wire_router --seeds 1-10

Runs perfbench/run.py once per seed and prints, for every end-to-end
metric in BENCHMARK.json, the median of the runs and the distance
between their first and third quartiles as a share of the median (the
spread), next to the metric's bound. A metric whose spread exceeds its
bound cannot resolve a change of that size. Each run's line ends with
its window's stderr lines: how long it waited for a quiet host, and how
much of it was quiet enough to count.
"""

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, strict_json


def seeds_from(text):
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    spec = strict_json((ROOT / "BENCHMARK.json").read_text())
    run_py = Path(__file__).resolve().parent / "run.py"
    failed = False
    for workload in args.workload:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds_from(args.seeds):
            run = subprocess.run(
                [sys.executable, str(run_py), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                failed = True
                continue
            metrics = strict_json(run.stdout.strip().splitlines()[-1])["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
            windows = [line for line in run.stderr.splitlines()
                       if line.startswith("window")]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={metrics[n]['value']:.4g}" for n in values) +
                  "".join(f" [{w}]" for w in windows), flush=True)
        print(f"\n{workload}: {'metric':<16}{'median':>14}{'spread':>10}"
              f"{'bound':>8}")
        for metric in spec["end_to_end"]:
            runs = values[metric["name"]]
            if len(runs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median if median else float("inf")
            print(f"{'':>{len(workload) + 2}}{metric['name']:<16}"
                  f"{median:>14.4f}{spread:>10.4f}{metric['bound']:>8}")
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
