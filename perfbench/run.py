#!/usr/bin/env python3
"""Builds the repo benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build tree and run scratch files live under .bench_build/ at the
repository root. Build output goes to stderr; the benchmark's stdout passes
through unchanged, so its last line is the result JSON. The exit code is the
benchmark's (non-zero when any answer was wrong or a self-check failed).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "polysse_perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "polysse_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    build()
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    try:
        done = subprocess.run([BINARY] + sys.argv[1:] + ["--scratch", SCRATCH_DIR],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
