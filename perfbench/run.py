#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus the harness) into
.bench_build/perfbench; later calls only rebuild what changed. Each call
runs the harness unit tests, then the workload. Build output goes to stderr;
stdout carries the harness's context and plan lines and, last, one JSON
result line. Exits non-zero without a result line if the build, the unit
tests, the run or its correctness checks fail. Spans of a traced run are
written to .bench_build/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def jobs():
    return max(1, min(4, nproc()))


def build():
    """Configure once, then incrementally build; all output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs()),
                    "--target", "perfbench_harness", "perfbench_tests"],
                   stdout=sys.stderr, check=True)


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # a plain checkout; never report an enclosing repo
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        build()
        subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                       stdout=sys.stderr, check=True, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build or unit tests failed: {e}", file=sys.stderr)
        return 1

    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench_harness"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", traces, "--commit", commit()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: harness exited {proc.returncode}", file=sys.stderr)
        return proc.returncode
    try:
        result = json.loads(lines[-1])
        ok = result["correct"] is True and result["attempted"] >= 1
    except (IndexError, ValueError, KeyError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: no valid result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
