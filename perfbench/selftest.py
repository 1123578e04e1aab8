#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload on a tiny corpus through perfbench/run.py and checks
that:
  * an untraced run passes its correctness gate and prints exactly the
    end-to-end metrics BENCHMARK.json names, each with its unit;
  * a traced run prints exactly the per-layer metrics, each with its
    unit, and two traced runs with one seed give identical exact counts;
  * a run whose expected answer was deliberately corrupted fails: the
    result says correct=false and the exit status is nonzero.
Exits nonzero on the first failed check.
"""

import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, strict_json

EXACT_COUNTS = ("gist.nodes_per_query", "shard.visited_per_query",
                "shard.pruned_per_query")
RUN_PY = Path(__file__).resolve().parent / "run.py"


def run(workload, trace, seed=7, corrupt=False):
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    if corrupt:
        command.append("--corrupt-expected")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, strict_json(lines[-1]) if lines else None


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_metrics(workload, result, expected):
    got = result["metrics"]
    check(sorted(got) == sorted(m["name"] for m in expected),
          f"{workload} prints exactly the {len(expected)} named metrics")
    for m in expected:
        entry = got[m["name"]]
        check(sorted(entry) == ["unit", "value"] and
              entry["unit"] == m["unit"] and
              isinstance(entry["value"], (int, float)),
              f"{workload} {m['name']} has a value in {m['unit']}")


def main():
    spec = strict_json((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the workloads run.py accepts")
    for workload in WORKLOADS:
        code, result = run(workload, 0)
        check(code == 0 and result["correct"] is True and
              result["attempted"] >= 1,
              f"{workload} untraced run passes its gate")
        check_metrics(workload, result, spec["end_to_end"])

        code, first = run(workload, 1)
        check(code == 0 and first["correct"] is True,
              f"{workload} traced run passes its gate")
        check_metrics(workload, first, spec["per_layer"])
        code, second = run(workload, 1)
        for name in EXACT_COUNTS:
            check(code == 0 and first["metrics"][name]["value"] ==
                  second["metrics"][name]["value"],
                  f"{workload} {name} repeats exactly under one seed")

        code, corrupted = run(workload, 0, corrupt=True)
        check(code != 0 and corrupted is not None and
              corrupted["correct"] is False,
              f"{workload} gate fails a corrupted expected answer")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
