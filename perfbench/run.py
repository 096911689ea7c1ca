#!/usr/bin/env python3
"""Builds and runs the PayLess end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds the `perfbench` binary (the repository's library
sources plus perfbench/perfbench.cc) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs it with the
given arguments. The binary's standard output is passed through; its last
line is the JSON result. Build output goes to standard error. Exits non-zero
without printing a result when the build fails, and with the binary's exit
code otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (first time only) and builds the benchmark binary."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(os.path.abspath(target_dir), "perfbench"))
    if binary is None:
        return 1
    try:
        done = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
