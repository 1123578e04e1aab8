#!/usr/bin/env python3
"""Builds and runs one benchmark workload.

    python3 perfbench/run.py --workload knn_paper_scale --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source tree. The first run configures and builds
the libraries and the benchmark binary (Release) into the directory named
by $CARGO_TARGET_DIR, or .bench_build; later runs reuse that build. The
run's durable files live in a scratch directory inside the build
directory and are removed when it ends. The last line of standard output
is the result:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

The exit status is nonzero when the build fails, when any answer fails
the correctness gate, or when the binary does not finish in time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("knn_paper_scale", "knn_wire_router", "mixed_durable_write")
RUN_TIMEOUT_S = 170
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def strict_json(text):
    """json.loads that rejects repeated keys at any depth."""

    def no_duplicates(pairs):
        seen = {}
        for key, value in pairs:
            if key in seen:
                raise ValueError(f"duplicate JSON key {key!r}")
            seen[key] = value
        return seen

    return json.loads(text, object_pairs_hook=no_duplicates)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        command = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bw_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "bw_perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the library and benchmark sources, path by path."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long self-test scale")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter one expected answer; the run must fail")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    started = time.monotonic()
    try:
        binary = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2
    log(f"build ready in {time.monotonic() - started:.1f}s")

    scratch = build_dir / "scratch" / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch),
               "--git_sha", git_sha(), "--source_digest", source_digest()]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_expected:
        command.append("--corrupt_expected")
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run did not finish within {RUN_TIMEOUT_S}s")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        result = strict_json(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError(f"unexpected result keys {sorted(result)}")
    except (IndexError, ValueError) as error:
        log(f"no valid result line (exit {run.returncode}): {error}")
        return run.returncode or 4
    print("\n".join(lines), flush=True)
    if run.returncode != 0 or result["correct"] is not True:
        log(f"run failed (exit {run.returncode}, correct={result['correct']})")
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
