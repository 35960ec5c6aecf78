#!/usr/bin/env python3
"""Builds the served-path benchmark from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 servebench/run.py --workload qset1_closed_form --seed 1 \
        --seconds 10 --trace 0
    python3 servebench/run.py --self-test

The build goes to .bench_build/servebench (configured once, then
incremental); traced runs write their per-layer table and Chrome trace to
.bench_build/servebench-out. Every run first runs the benchmark's
self-tests. The last line of standard output is the benchmark's JSON result.

Exit codes: 0 when the run's correctness checks passed, 1 when a check (or
a self-test) failed, 2 when the checkout holds no program to build or the
arguments are wrong, 3 when the build failed.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "servebench")
OUT_DIR = os.path.join(".bench_build", "servebench-out")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "servebench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run(command):
    """Runs `command` with stdout passed through; returns its exit code."""
    child = subprocess.Popen(command)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log(f"{command[0]} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return code if code >= 0 else 1


def main(argv):
    for required in ("src/CMakeLists.txt", "src/server/server.h",
                     "servebench/CMakeLists.txt"):
        if not os.path.isfile(required):
            log(f"no program to benchmark: {required} is missing "
                "(run from the root of a checkout)")
            return 2
    if not build():
        log("build failed")
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)
    if run([os.path.join(BUILD_DIR, "servebench_selftest")]) != 0:
        log("self-tests failed")
        return 1
    if argv == ["--self-test"]:
        return 0
    return run([os.path.join(BUILD_DIR, "servebench"), *argv,
                "--out", OUT_DIR])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
