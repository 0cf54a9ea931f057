#!/usr/bin/env python3
"""Build the benchmark from source if needed, then run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload corpus-batch|served-certain|egd-large \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt answer|witness]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, in Release mode. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Sockets, checkpoints and
span files are written to <build dir>/run. Exits non-zero, printing no
result, when the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# The whole run must end well within the 180 s the harness allows.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: gdx sources not found next to perfbench/",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 3
    run_dir = os.path.join(out, "run")
    os.makedirs(run_dir, exist_ok=True)
    binary = os.path.join(out, "perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=run_dir,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
