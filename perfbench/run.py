#!/usr/bin/env python3
"""Builds and runs the Delex refresh benchmark.

    python3 perfbench/run.py --workload dblife-chair --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (Release) into .bench_build/perfbench under
the repository root, runs the refresh_bench binary, and passes its standard
output through: the last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Build output and the
benchmark's progress lines go to standard error. Exits non-zero, without a
result line, when the build or the run fails or the result does not name
exactly the metrics BENCHMARK.json lists for the trace mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_ROOT = ROOT / ".bench_work"
BINARY = BUILD_DIR / "refresh_bench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "refresh_bench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Returns an error message, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--solution", choices=("delex", "noreuse", "shortcut"),
                        default="delex")
    parser.add_argument("--selftest", action="store_true",
                        help="check the reference and the output check, then exit")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 1
    WORK_ROOT.mkdir(exist_ok=True)
    cmd = [str(BINARY), "--work-root", str(WORK_ROOT)]
    if args.selftest:
        return subprocess.run(cmd + ["--selftest"]).returncode
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--solution", args.solution, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed nothing")
        return 1
    if args.solution == "delex":
        error = validate(lines[-1], args.trace == 1)
        if error:
            log(error)
            return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
