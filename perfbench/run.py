#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <pairs-contended|pairs-solo|handoff-open>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds perfbench/ (Release) into
.bench_build/perfbench, runs the correctness gate's self-test, then one
benchmark run.  Everything the run prints is passed through; its last line
is the JSON result.  Run records (and, traced, the span file) land in
.bench_build/runs.  Exits non-zero, without a result, when the build or the
gate's self-test fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def step(cmd, timeout):
    """Run a build step, its output on stderr; False if it failed."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        return False


def build():
    begin = time.monotonic()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    BUILD_TIMEOUT_S):
            fail("configure failed")
    left = BUILD_TIMEOUT_S - (time.monotonic() - begin)
    if not step(["cmake", "--build", BUILD, "-j", "3"], max(left, 1)):
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    build()
    start = time.monotonic()
    gate = subprocess.run([os.path.join(BUILD, "perfbench_gate_test")], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if gate.returncode != 0:
        sys.stderr.write(gate.stdout + gate.stderr)
        fail("correctness gate self-test failed")

    os.makedirs(RUNS, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", RUNS]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_LIMIT_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail(f"run exited with {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
