#!/usr/bin/env python3
"""Build (once) and run the AIECC benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/; later calls reuse the build.
The benchmark's JSON result is the last line of stdout.  Build output
goes to stderr.  Exits non-zero, printing no result, if the build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = "4"


def build():
    """Configure and build into .bench_build; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    # The binary parses and validates the arguments itself.
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
