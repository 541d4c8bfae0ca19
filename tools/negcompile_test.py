#!/usr/bin/env python3
"""Drives the thread-safety negative-compile test.

A guarded-member access without its lock must make clang's
-Wthread-safety analysis reject the file; the same file with the lock
restored (-DPSO_NEGCOMPILE_FIXED) must compile. Running both directions
proves the CI gate actually distinguishes good locking from bad, rather
than passing vacuously.

Requires clang (the analysis is clang-only); exits 77 (the ctest
SKIP_RETURN_CODE) under any other compiler so GCC-only environments skip
instead of fail.

Usage:
  negcompile_test.py --compiler <cxx> --source <file> --include <dir>

Exit codes: 0 pass, 1 fail, 77 skipped (not clang), 2 usage error.
"""

import argparse
import subprocess
import sys

SKIP = 77


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compiler", required=True)
    parser.add_argument("--source", required=True)
    parser.add_argument("--include", action="append", default=[],
                        help="include directory (repeatable)")
    parser.add_argument("--std", default="c++20")
    args = parser.parse_args()

    code, out = run([args.compiler, "--version"])
    if code != 0:
        print(f"cannot run {args.compiler}: {out}", file=sys.stderr)
        return 2
    if "clang" not in out.lower():
        print("SKIP: -Wthread-safety needs clang; compiler is:\n" +
              out.splitlines()[0])
        return SKIP

    base = [args.compiler, "-fsyntax-only", f"-std={args.std}",
            "-Wthread-safety", "-Werror"]
    for inc in args.include:
        base += ["-I", inc]

    # Control direction: with the lock restored the file must be valid.
    code, out = run(base + ["-DPSO_NEGCOMPILE_FIXED", args.source])
    if code != 0:
        print("FAIL: control build (lock held) did not compile — the "
              "harness is broken, not the locking:")
        print(out)
        return 1

    # Gate direction: without the lock the analysis must reject it.
    code, out = run(base + [args.source])
    if code == 0:
        print("FAIL: unguarded access compiled cleanly; -Wthread-safety "
              "did not catch the missing lock")
        return 1
    if "thread-safety" not in out and "guarded by" not in out:
        print("FAIL: compile failed but not with a thread-safety "
              "diagnostic:")
        print(out)
        return 1

    print("PASS: clean locking compiles; missing lock is rejected with a "
          "-Wthread-safety diagnostic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
