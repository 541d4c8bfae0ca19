#!/usr/bin/env python3
"""check_dead_code: fail on library code that no production binary keeps.

The linker decides. The production binaries are built from a GCC
sub-build with -O0 -ffunction-sections -fdata-sections
-fkeep-inline-functions and linked with -Wl,--gc-sections, so each
function sits in its own section, header-inline functions are emitted
whether or not they are called, and the link drops every section that no
entry point reaches. A `pso::` function defined in an object under src/
that no production binary keeps is a finding (`nm` on both sides).

The production binaries are psoctl (tools/*.cc), the experiment
harnesses and bench_micro (bench/bench_*.cc), the examples
(examples/*.cpp) and pso_bench, which bench/suite builds as a project of
its own.

Noise rules: lambdas, `std::` instantiations and compiler-generated
special members (default, copy and move constructors, destructors and
assignment operators) are not findings unless they are strong global
(`T`) symbols, that is, written out of line in a .cc file. Such members
of a dead type go with the type's last dead function.

A finding that must stay is allow-listed in ALLOWED by a name prefix and
a reason. An entry that matches no finding is stale and is a finding too,
so the list can only shrink.

Usage:
  tools/check_dead_code.py BUILD_DIR              # check the repository
  tools/check_dead_code.py BUILD_DIR --self-test  # check the fixture
BUILD_DIR is a configured build tree of this repository (tier-1's).
Its generator, compiler and compiler launcher are reused, and the
sub-builds live in BUILD_DIR/dead_code/, so reruns are incremental. The
self-test checks tests/dead_code_fixture/, a project of one library and
one binary, against its expected.txt.
Exit codes: 0 clean (or self-test passed), 1 findings (or self-test
failed), 77 skipped (the compiler is not GCC).
"""

import argparse
import glob
import os
import re
import subprocess
import sys

SKIP = 77
REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
FIXTURE_ROOT = os.path.join(REPO_ROOT, "tests", "dead_code_fixture")
FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
         "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections "
         "-fkeep-inline-functions",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
# Bounded: a bare -j under Make starts one job per target.
JOBS = min(4, os.cpu_count() or 1)

# Findings that stay, by demangled-name prefix, each with its reason.
_BOOLEAN = ("the Boolean closure of Definition 2.1's predicates; "
            "fuzz_predicate and proptest_weight_test check ExactWeight on "
            "and/or/not trees of them")
_ORACLE = ("the reference engines in tests/oracles check the builder's "
           "verdict and solve the instance the production engine holds")
_POST_PROCESS = ("Theorem 2.6; pso_game_test PostProcessingNoWorse is its "
                 "experiment")
_BIRTHDAY = ("the section 2.2 birthday attacker; pso_game_test checks the "
             "game's weight verification with it")
_ANON = "pso::(anonymous namespace)::"
ALLOWED = {
    "pso::Status::Unimplemented(":
        "the no-sockets #else branch of service/server.cc calls it; this "
        "platform compiles the sockets branch",
    "pso::MakeTrue(": _BOOLEAN,
    "pso::MakeFalse(": _BOOLEAN,
    "pso::MakeOr(": _BOOLEAN,
    "pso::MakeNot(": _BOOLEAN,
    _ANON + "TruePredicate::": _BOOLEAN,
    _ANON + "FalsePredicate::": _BOOLEAN,
    _ANON + "OrPredicate::": _BOOLEAN,
    _ANON + "NotPredicate::": _BOOLEAN,
    "pso::MakePostProcessMechanism(": _POST_PROCESS,
    _ANON + "PostProcessMechanism::": _POST_PROCESS,
    "pso::MakeFixedValueAdversary(": _BIRTHDAY,
    _ANON + "FixedValueAdversary::": _BIRTHDAY,
    "pso::dp::BudgetLedger::ClientState(":
        "per-client budget state, for the daemon's planned BUDGET command",
    "pso::LpProblem::build_status(": _ORACLE,
    "pso::LpProblem::instance(": _ORACLE,
    "pso::SatSolver::build_status(": _ORACLE,
    "pso::SatSolver::instance(": _ORACLE,
    "pso::CountCsp::domain_size(": _ORACLE,
}

# The fixture's allow-list: one stale entry.
SELF_TEST_ALLOWED = {
    "pso::widget::Removed(": "stale: no function has this name",
}

# _ZN3pso: a pso:: function; _ZZN3pso: a local entity (a lambda, a local
# class) of one.
PSO_SYMBOL_RE = re.compile(r"_ZZ?N[rVKRO]*3pso")
ABI_TAG_RE = re.compile(r"\[abi:\w+\]")
SPECIAL_MEMBER_RE = re.compile(
    r"^(?P<cls>(?:.*::)?(?P<base>\w+)(?:<.*>)?)::(?P<name>~?\w+|operator=)"
    r"\((?P<params>.*)\)$")


def cache_value(build_dir, key):
    with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            name, _, value = line.rstrip("\n").partition("=")
            if name.split(":")[0] == key:
                return value
    return ""


def is_gcc(compiler):
    macros = subprocess.run([compiler, "-dM", "-E", "-x", "c++", os.devnull],
                            stdout=subprocess.PIPE, text=True, check=True).stdout
    return "__GNUC__" in macros and "__clang__" not in macros


def build(source, binary, parent, targets):
    """Configures `source` into `binary` as `parent` was, then builds."""
    configure = ["cmake", "-S", source, "-B", binary,
                 "-G", cache_value(parent, "CMAKE_GENERATOR")] + FLAGS
    for key in ("CMAKE_CXX_COMPILER", "CMAKE_CXX_COMPILER_LAUNCHER",
                "CMAKE_MAKE_PROGRAM"):
        value = cache_value(parent, key)
        if value:
            configure.append(f"-D{key}={value}")
    for cmd in (configure, ["cmake", "--build", binary, "--parallel",
                            str(JOBS), "--target"] + targets):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            raise SystemExit(f"check_dead_code: failed: {' '.join(cmd)}")


def text_symbols(paths):
    """Yields (path, type, mangled name) for each function `paths` define."""
    out = subprocess.run(["nm", "-A", "--defined-only"] + sorted(paths),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    for line in out.splitlines():
        # path:address type name; a mangled name holds no colon.
        path, _, symbol = line.rpartition(":")
        fields = symbol.split(" ")
        if len(fields) == 3 and fields[1] in "TtWw":
            yield path, fields[1], fields[2]


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols),
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(zip(symbols, out.splitlines()))


def is_noise(kind, name):
    if "{lambda(" in name:
        return True
    if kind == "T":
        return False
    m = SPECIAL_MEMBER_RE.match(ABI_TAG_RE.sub("", name).removesuffix(" const"))
    if not m:
        return False
    cls, params = m.group("cls"), m.group("params")
    if m.group("name") == "operator=":
        return params in (f"{cls} const&", f"{cls}&&")
    if m.group("name") == "~" + m.group("base"):
        return params == ""
    return (m.group("name") == m.group("base") and
            params in ("", f"{cls} const&", f"{cls}&&"))


def dead_functions(binary_dir, objects, binaries, allowed):
    """Returns the findings, one line each, for the given build outputs."""
    kept = {sym for _, _, sym in text_symbols(binaries)}
    dead = {}
    for path, kind, sym in text_symbols(objects):
        if PSO_SYMBOL_RE.match(sym) and sym not in kept:
            dead.setdefault(sym, (path, kind))
    names = demangle(list(dead))
    findings = set()
    used_entries = set()
    for sym, (path, kind) in dead.items():
        name = names[sym]
        if is_noise(kind, name):
            continue
        entry = next((p for p in allowed if name.startswith(p)), None)
        if entry:
            used_entries.add(entry)
        else:
            # A constructor's or destructor's variants share one name.
            findings.add(f"{source_of(path, binary_dir)}: {name}")
    findings = sorted(findings)
    for entry in sorted(set(allowed) - used_entries):
        findings.append(f"allow-list entry {entry} matches no dead function; "
                        "remove it")
    return findings


def source_of(obj, binary_dir):
    """<binary_dir>/src/x/CMakeFiles/t.dir/y.cc.o -> src/x/y.cc"""
    rel = os.path.relpath(obj, binary_dir)
    directory, _, rest = rel.partition("/CMakeFiles/")
    return os.path.join(directory, rest.split("/", 1)[1].removesuffix(".o"))


def library_objects(binary_dir, source_dir):
    """The objects under <binary_dir>/src whose source file still exists
    (an object of a deleted file stays in the sub-build)."""
    objects = glob.glob(os.path.join(binary_dir, "src", "**", "*.o"),
                        recursive=True)
    return [o for o in objects if os.path.exists(
        os.path.join(source_dir, source_of(o, binary_dir)))]


def stems(pattern):
    return sorted(os.path.splitext(os.path.basename(p))[0]
                  for p in glob.glob(os.path.join(REPO_ROOT, pattern)))


def check_repo(work, parent):
    main, suite = os.path.join(work, "main"), os.path.join(work, "suite")
    tools, benches, examples = (stems("tools/*.cc"), stems("bench/bench_*.cc"),
                                stems("examples/*.cpp"))
    build(REPO_ROOT, main, parent, tools + benches + examples)
    build(os.path.join(REPO_ROOT, "bench", "suite"), suite, parent,
          ["pso_bench"])
    binaries = ([os.path.join(main, "tools", t) for t in tools] +
                [os.path.join(main, "bench", b) for b in benches] +
                [os.path.join(main, "examples", e) for e in examples] +
                [os.path.join(suite, "pso_bench")])
    findings = dead_functions(main, library_objects(main, REPO_ROOT), binaries,
                              ALLOWED)
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_dead_code: {len(findings)} finding(s); delete the code, "
              "or allow-list it with a reason", file=sys.stderr)
        return 1
    print(f"check_dead_code: {len(binaries)} production binaries keep every "
          "pso:: function defined under src/")
    return 0


def self_test(work, parent):
    fixture = os.path.join(work, "fixture")
    build(FIXTURE_ROOT, fixture, parent, ["widgetctl"])
    findings = dead_functions(fixture, library_objects(fixture, FIXTURE_ROOT),
                              [os.path.join(fixture, "widgetctl")],
                              SELF_TEST_ALLOWED)
    with open(os.path.join(FIXTURE_ROOT, "expected.txt"), encoding="utf-8") as f:
        expected = [line for line in f.read().splitlines() if line]
    for finding in sorted(set(expected) - set(findings)):
        print(f"missing: {finding}")
    for finding in sorted(set(findings) - set(expected)):
        print(f"unexpected: {finding}")
    if sorted(findings) != sorted(expected):
        print("check_dead_code --self-test: FAILED", file=sys.stderr)
        return 1
    print(f"check_dead_code --self-test: {len(expected)} expected finding(s) "
          "reported, no others")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("build_dir", help="a configured build tree")
    parser.add_argument("--self-test", action="store_true",
                        help="check tests/dead_code_fixture instead")
    args = parser.parse_args()
    compiler = cache_value(args.build_dir, "CMAKE_CXX_COMPILER")
    if not is_gcc(compiler):
        print(f"SKIP: the linker check needs GCC; {compiler} is not GCC")
        return SKIP
    work = os.path.join(os.path.abspath(args.build_dir), "dead_code")
    if args.self_test:
        return self_test(work, args.build_dir)
    return check_repo(work, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())
