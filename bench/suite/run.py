#!/usr/bin/env python3
"""Builds pso_bench from the checkout it sits in, then runs it.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. bench/suite is configured as a CMake project
of its own (it compiles the library and psoctl from src/ and tools/) in
the directory named by CARGO_TARGET_DIR, or .bench_build by default, and
only pso_bench and psoctl are built. Every argument is passed on to
pso_bench, which writes bench-out/ and prints the result as the last line
of its standard output. Build output goes to standard error, so a failed
build prints no result and exits nonzero.
"""

import os
import shutil
import subprocess
import sys


def main():
    suite = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(suite))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", suite, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 1
    compile_cmd = ["cmake", "--build", build, "--target", "pso_bench", "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return 1
    bench = [os.path.join(build, "pso_bench"), "--out", os.path.join(root, "bench-out")]
    return subprocess.run(bench + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
