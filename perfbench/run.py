#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The binary is configured and built under .bench_build/perfbench (an
up-to-date tree rebuilds nothing).  Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.  Without the
repository's src/ tree next to this directory the build fails and the
script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure (once) and build the perfbench target; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY, "--root", ROOT] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
