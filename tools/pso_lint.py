#!/usr/bin/env python3
"""pso_lint: token-level C++ lint rules for the pso tree.

The repo's two core invariants — bit-deterministic experiments and a
checkable locking discipline — are enforced statically here, before any
test runs. The linter strips comments/strings, then applies per-path
rules:

  rand                  Nondeterministic randomness sources (rand(),
                        std::random_device, drand48, ...). Use pso::Rng
                        with an explicit seed; streams derive from
                        (seed, index) so results replay exactly.
  wall-clock            Wall-clock reads (time(), system_clock,
                        gettimeofday, ...) in library code: calendar time
                        leaks run-dependent values into output. Monotonic
                        clocks (steady_clock, high_resolution_clock) are
                        confined to the timing facade —
                        src/common/{metrics,trace,parallel} —
                        so all latency measurement flows through
                        PSO_SPAN / histograms / trace spans;
                        elsewhere they need an explicit
                        `// pso-lint: allow(wall-clock)`.
  unordered-iteration   Range-for over a std::unordered_{map,set}
                        variable. Hash-iteration order is not a pure
                        function of the data, so anything built from it
                        (group lists, float sums) varies across
                        platforms. Iterate a sorted copy instead.
  bare-mutex            std::mutex / std::thread / std::condition_variable
                        and friends outside src/common/. Use pso::Mutex,
                        pso::MutexLock, pso::CondVar, pso::ThreadPool —
                        the annotated wrappers clang -Wthread-safety can
                        check (see STATIC_ANALYSIS.md).
  assert                assert() instead of PSO_CHECK / PSO_CHECK_MSG.
                        NDEBUG builds silently drop assert; PSO_CHECK is
                        always on and flushes logs/traces before abort.
  nodiscard-status      Header declaration returning Status or Result<T>
                        by value without [[nodiscard]].
  blocking-under-lock   Wait/WaitFor/Submit/recv/accept token inside a
                        MutexLock scope outside src/common/. Blocking (or
                        queueing onto a pool) while holding a lock is how
                        lock-order cycles start; shrink the critical
                        section instead.
  sleep                 sleep_for/usleep-style polling in src/ outside
                        src/common/. Sleep loops hide latency and races;
                        wait on a pso::CondVar so shutdown can interrupt
                        the wait.
  span-stack            A trace::Span / PSO_TRACE_SPAN whose literal name
                        is also a PSO_SPAN's in the same file. PSO_SPAN
                        already opens that trace span, so stacking both
                        double-nests the trace; use PSO_NAMED_SPAN for
                        Arg()/active().

Suppress a finding by appending a comment on the offending line:

    std::mutex raw_mu;  // pso-lint: allow(bare-mutex)

Multiple rules: `pso-lint: allow(rand, wall-clock)`.

Usage:
  tools/pso_lint.py                      # lint the default tree roots
  tools/pso_lint.py src/solver bench     # lint specific dirs/files
  tools/pso_lint.py --self-test          # run the fixture suite
  tools/pso_lint.py --list-rules

Exit codes: 0 clean, 1 findings (or fixture mismatch), 2 usage error.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
DEFAULT_ROOTS = ["src", "tools", "bench", "fuzz", "tests"]
CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp", ".cxx")
SKIP_DIR_NAMES = {"lint_fixtures", "negcompile", "corpus"}

SUPPRESS_RE = re.compile(r"pso-lint:\s*allow\(([a-z0-9_\-, ]+)\)")
EXPECT_RE = re.compile(r"lint-expect:\s*([a-z0-9_\-]+)")
FIXTURE_PATH_RE = re.compile(r"pso-lint-fixture-path:\s*(\S+)")


def _is_digit_separator(text, i):
    """True if the quote at text[i] separates digits, as in 5'000'000."""
    if i + 1 >= len(text) or not text[i + 1].isalnum():
        return False
    start = i
    while start > 0 and (text[start - 1].isalnum() or text[start - 1] in "_.'"):
        start -= 1
    return start < i and text[start].isdigit()


def strip_comments_and_strings(text):
    """Replaces comment/string/char-literal contents with spaces.

    Newlines are preserved so line numbers survive. Token-level: raw
    strings are handled, trigraphs and line-continued comments are not.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' and text[i - 1] == "R" and i + 1 < n and i >= 1:
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i - 1 : i + 20])
            if not m:
                out.append(c)
                i += 1
                continue
            delim = m.group(1)
            end_marker = ")" + delim + '"'
            end = text.find(end_marker, i)
            if end == -1:
                end = n
            seg = text[i : end + len(end_marker)]
            out.append("".join("\n" if ch == "\n" else " " for ch in seg))
            i = end + len(end_marker)
        elif c == "'" and _is_digit_separator(text, i):
            out.append(c)
            i += 1
        elif c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            out.append(" ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _under(relpath, *prefixes):
    p = relpath.replace(os.sep, "/")
    return any(p == pre or p.startswith(pre + "/") for pre in prefixes)


# ---------------------------------------------------------------------------
# Rule scopes: which repo-relative paths each rule applies to.
# ---------------------------------------------------------------------------

def scope_rand(rel):
    return _under(rel, "src", "tools", "bench", "fuzz", "tests")


def scope_wall_clock(rel):
    # bench/ reports wall clock by design; tests may time themselves.
    return _under(rel, "src", "tools")


def scope_unordered_iteration(rel):
    return _under(rel, "src", "tools")


def scope_bare_mutex(rel):
    # src/common/ implements the wrappers; tests hammer them with raw
    # std::thread on purpose.
    return (_under(rel, "src", "tools", "bench", "fuzz")
            and not _under(rel, "src/common"))


def scope_assert(rel):
    return _under(rel, "src", "tools", "bench", "fuzz", "tests")


def scope_nodiscard_status(rel):
    return rel.endswith((".h", ".hpp")) and _under(rel, "src", "tools")


def scope_blocking_under_lock(rel):
    # src/common/ implements the primitives (CondVar waits legitimately
    # run under the lock they release).
    return _under(rel, "src") and not _under(rel, "src/common")


def scope_sleep(rel):
    return _under(rel, "src") and not _under(rel, "src/common")


def scope_span_stack(rel):
    return _under(rel, "src", "tools", "bench", "fuzz", "tests")


# ---------------------------------------------------------------------------
# Rule checkers: (stripped_lines, stripped_text, rel_path, raw_lines)
#     -> [(line_no, message)]. Stripping keeps columns up to a `//`
#     comment, so a match in a stripped line indexes its raw line.
# ---------------------------------------------------------------------------

RAND_RE = re.compile(
    r"(?<![\w.])((?:\w+\s*::\s*)+)?"
    r"(rand|srand|rand_r|drand48|lrand48|mrand48|random)\s*\("
    r"|\brandom_device\b"
)


def check_rand(lines, _text, _rel, _raw):
    out = []
    for no, line in enumerate(lines, 1):
        for m in RAND_RE.finditer(line):
            if m.group(2):
                qualifier = (m.group(1) or "").replace(" ", "")
                if qualifier not in ("", "std::"):
                    continue  # some other namespace's rand() lookalike
                what = m.group(2)
            else:
                what = "std::random_device"
            out.append((no, f"nondeterministic randomness source `{what}`; "
                            "use pso::Rng with an explicit seed"))
            break
    return out


WALL_CLOCK_RE = re.compile(
    r"(?<![\w.])((?:\w+\s*::\s*)+)?"
    r"(time|clock|gettimeofday|clock_gettime|localtime|gmtime|"
    r"strftime|ctime|mktime)\s*\("
    r"|\bsystem_clock\b"
)
MONOTONIC_CLOCK_RE = re.compile(
    r"\bsteady_clock\b|\bhigh_resolution_clock\b"
)
# The timing facade: the only files that may read monotonic clocks
# directly. Everything else routes timing through PSO_SPAN /
# metrics::Histogram / trace spans so latency has one recording path.
MONOTONIC_CLOCK_FACADE = (
    "src/common/metrics",
    "src/common/trace",
    "src/common/parallel",
)


def _in_monotonic_facade(rel):
    p = rel.replace(os.sep, "/")
    return any(p.startswith(pre + ".") or p.startswith(pre + "/")
               for pre in MONOTONIC_CLOCK_FACADE)


def check_wall_clock(lines, _text, rel, _raw):
    out = []
    facade = _in_monotonic_facade(rel)
    for no, line in enumerate(lines, 1):
        reported = False
        for m in WALL_CLOCK_RE.finditer(line):
            if m.group(2):
                qualifier = (m.group(1) or "").replace(" ", "")
                if qualifier not in ("", "std::", "std::chrono::"):
                    continue
                what = m.group(2)
            else:
                what = m.group(0).strip()
            out.append((no, f"wall-clock source `{what}` in library code; "
                            "results must not depend on calendar time"))
            reported = True
            break
        if reported or facade:
            continue
        m = MONOTONIC_CLOCK_RE.search(line)
        if m:
            out.append((no, f"monotonic clock `{m.group(0)}` outside the "
                            "timing facade (src/common/{metrics,trace,"
                            "parallel}); route timing through "
                            "PSO_SPAN / metrics::Histogram / trace spans"))
    return out


UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>\s+(\w+)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?:\s*(?:this->)?(\w+)\s*\)")


def check_unordered_iteration(lines, text, _rel, _raw):
    names = set(UNORDERED_DECL_RE.findall(text))
    if not names:
        return []
    out = []
    for no, line in enumerate(lines, 1):
        for m in RANGE_FOR_RE.finditer(line):
            if m.group(1) in names:
                out.append((no, f"iteration over unordered container "
                                f"`{m.group(1)}`: hash order is not "
                                "deterministic across platforms; iterate a "
                                "sorted copy"))
    return out


BARE_MUTEX_RE = re.compile(
    r"std\s*::\s*(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"thread|jthread)\b"
)


def check_bare_mutex(lines, _text, _rel, _raw):
    out = []
    for no, line in enumerate(lines, 1):
        m = BARE_MUTEX_RE.search(line)
        if m:
            out.append((no, f"bare std::{m.group(1)} outside src/common/; "
                            "use pso::Mutex / pso::MutexLock / pso::CondVar "
                            "/ pso::ThreadPool so clang -Wthread-safety can "
                            "check the locking"))
    return out


ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


def check_assert(lines, _text, _rel, _raw):
    out = []
    for no, line in enumerate(lines, 1):
        if ASSERT_RE.search(line):
            out.append((no, "assert() is compiled out under NDEBUG; use "
                            "PSO_CHECK / PSO_CHECK_MSG"))
    return out


NODISCARD_DECL_RE = re.compile(
    r"(?<![\w:])((?:pso\s*::\s*)?(?:Status|Result\s*<[^;(){}]*>))\s+(\w+)\s*\("
)
# Tokens that terminate the backward search for [[nodiscard]].
DECL_BOUNDARY_RE = re.compile(r"[;{}]|\bpublic\s*:|\bprivate\s*:|\bprotected\s*:")


def check_nodiscard_status(lines, text, _rel, _raw):
    out = []
    for m in NODISCARD_DECL_RE.finditer(text):
        name = m.group(2)
        if name in ("operator", "return"):
            continue
        # Words immediately before the return type within this declaration.
        start = 0
        for b in DECL_BOUNDARY_RE.finditer(text, 0, m.start()):
            start = b.end()
        prefix = text[start : m.start()]
        if "return" in prefix.split():
            continue  # `return Status::...` style expression, not a decl
        if "[[nodiscard]]" in prefix:
            continue
        line_no = text.count("\n", 0, m.start()) + 1
        out.append((line_no, f"`{name}` returns {m.group(1).strip()} by value "
                             "but is not [[nodiscard]]; a dropped status "
                             "hides the failure it reports"))
    return out


MUTEXLOCK_STMT_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]")
BLOCKING_CALL_RE = re.compile(r"\b(WaitFor|Wait|Submit|recv|accept)\s*\(")


def check_blocking_under_lock(lines, text, _rel, _raw):
    out = []
    seen = set()
    for m in MUTEXLOCK_STMT_RE.finditer(text):
        stmt_end = text.find(";", m.end())
        if stmt_end == -1:
            continue
        # The lock is held from the end of the MutexLock statement to the
        # close of the enclosing block.
        depth = 0
        pos = stmt_end
        while pos < len(text):
            c = text[pos]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth < 0:
                    break
            pos += 1
        region = text[stmt_end:pos]
        for call in BLOCKING_CALL_RE.finditer(region):
            line_no = text.count("\n", 0, stmt_end + call.start()) + 1
            if line_no in seen:
                continue  # nested MutexLock scopes report once
            seen.add(line_no)
            out.append((line_no, f"`{call.group(1)}` called inside a "
                                 "MutexLock scope; blocking or queueing "
                                 "while holding a lock invites lock-order "
                                 "cycles — shrink the critical section"))
    return out


SLEEP_RE = re.compile(
    r"\b(sleep_for|sleep_until|usleep|nanosleep)\b"
    r"|(?<![\w.])sleep\s*\("
)


def check_sleep(lines, _text, _rel, _raw):
    out = []
    for no, line in enumerate(lines, 1):
        m = SLEEP_RE.search(line)
        if m:
            what = m.group(1) or "sleep"
            out.append((no, f"`{what}` polling in library code; wait on a "
                            "pso::CondVar so notify/shutdown can interrupt "
                            "the wait"))
    return out


PSO_SPAN_RE = re.compile(r"\bPSO_(?:NAMED_)?SPAN\s*\((?:\s*\w+\s*,)?")
TRACE_SPAN_RE = re.compile(
    r"\bPSO_TRACE_SPAN\s*\(|\btrace\s*::\s*Span\s+\w+\s*[({]")
STRING_LITERAL_RE = re.compile(r'\s*"((?:[^"\\]|\\.)*)"')


def _span_names(span_re, lines, raw_lines):
    """(line_no, name) for every `span_re` span given a literal name."""
    out = []
    for no, (line, raw) in enumerate(zip(lines, raw_lines), 1):
        for m in span_re.finditer(line):
            lit = STRING_LITERAL_RE.match(raw, m.end())
            if lit:
                out.append((no, lit.group(1)))
    return out


def check_span_stack(lines, _text, _rel, raw):
    timed = {name for _, name in _span_names(PSO_SPAN_RE, lines, raw)}
    return [(no, f"trace span \"{name}\" stacked on PSO_SPAN(\"{name}\"), "
                 "which already opens it; use PSO_NAMED_SPAN for "
                 "Arg()/active()")
            for no, name in _span_names(TRACE_SPAN_RE, lines, raw)
            if name in timed]


RULES = [
    ("rand", scope_rand, check_rand),
    ("wall-clock", scope_wall_clock, check_wall_clock),
    ("unordered-iteration", scope_unordered_iteration,
     check_unordered_iteration),
    ("bare-mutex", scope_bare_mutex, check_bare_mutex),
    ("assert", scope_assert, check_assert),
    ("nodiscard-status", scope_nodiscard_status, check_nodiscard_status),
    ("blocking-under-lock", scope_blocking_under_lock,
     check_blocking_under_lock),
    ("sleep", scope_sleep, check_sleep),
    ("span-stack", scope_span_stack, check_span_stack),
]
RULE_NAMES = {name for name, _, _ in RULES}


def suppressions_by_line(raw_text):
    """Maps line number -> set of rule names allowed on that line."""
    supp = {}
    for no, line in enumerate(raw_text.splitlines(), 1):
        m = SUPPRESS_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            supp[no] = rules
    return supp


def lint_text(rel_path, raw_text):
    """Lints one file's content as if it lived at repo-relative rel_path."""
    stripped = strip_comments_and_strings(raw_text)
    lines = stripped.splitlines()
    raw_lines = raw_text.splitlines()
    supp = suppressions_by_line(raw_text)
    findings = []
    for rule, in_scope, checker in RULES:
        if not in_scope(rel_path):
            continue
        for line_no, message in checker(lines, stripped, rel_path, raw_lines):
            allowed = supp.get(line_no, set())
            if rule in allowed or "all" in allowed:
                continue
            findings.append(Finding(rel_path, line_no, rule, message))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def iter_cxx_files(paths):
    for p in paths:
        ap = os.path.abspath(p)
        if os.path.isfile(ap):
            yield ap
            continue
        if not os.path.isdir(ap):
            print(f"pso_lint: no such file or directory: {p}", file=sys.stderr)
            sys.exit(2)
        for dirpath, dirnames, filenames in os.walk(ap):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIR_NAMES and not d.startswith(("build", "."))
            )
            for f in sorted(filenames):
                if f.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, f)


def lint_paths(paths):
    findings = []
    checked = 0
    for abspath in iter_cxx_files(paths):
        rel = os.path.relpath(abspath, REPO_ROOT).replace(os.sep, "/")
        if rel.startswith(".."):
            rel = abspath.replace(os.sep, "/")  # outside the repo: lint as-is
        with open(abspath, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read()
        findings.extend(lint_text(rel, raw))
        checked += 1
    return findings, checked


def run_self_test(fixtures_dir):
    """Each fixture declares its pretend path and expected findings inline:

        // pso-lint-fixture-path: src/foo/bar.cc
        ...
        std::mutex mu;               // lint-expect: bare-mutex

    The suite fails on any missed or spurious finding.
    """
    if not os.path.isdir(fixtures_dir):
        print(f"pso_lint --self-test: fixtures dir not found: {fixtures_dir}",
              file=sys.stderr)
        return 2
    names = sorted(f for f in os.listdir(fixtures_dir)
                   if f.endswith(CXX_EXTENSIONS))
    if not names:
        print(f"pso_lint --self-test: no fixtures in {fixtures_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    for name in names:
        path = os.path.join(fixtures_dir, name)
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
        m = FIXTURE_PATH_RE.search(raw)
        if not m:
            print(f"FAIL {name}: missing `pso-lint-fixture-path:` directive")
            failures += 1
            continue
        pretend = m.group(1)
        expected = set()
        for no, line in enumerate(raw.splitlines(), 1):
            for em in EXPECT_RE.finditer(line):
                if em.group(1) not in RULE_NAMES:
                    print(f"FAIL {name}:{no}: unknown rule in lint-expect: "
                          f"{em.group(1)}")
                    failures += 1
                expected.add((no, em.group(1)))
        actual = {(f.line, f.rule) for f in lint_text(pretend, raw)}
        missed = expected - actual
        spurious = actual - expected
        if missed or spurious:
            failures += 1
            print(f"FAIL {name} (as {pretend}):")
            for line, rule in sorted(missed):
                print(f"     expected but not reported: line {line} [{rule}]")
            for line, rule in sorted(spurious):
                print(f"     reported but not expected: line {line} [{rule}]")
        else:
            n = len(expected)
            print(f"OK   {name}: {n} expected finding(s), none spurious")
    print(f"\n{len(names) - failures}/{len(names)} fixtures pass")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help=f"files/dirs to lint (default: {' '.join(DEFAULT_ROOTS)})")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite in tests/lint_fixtures")
    parser.add_argument("--fixtures-dir",
                        default=os.path.join(REPO_ROOT, "tests", "lint_fixtures"),
                        help="fixtures directory for --self-test")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        for name, _, _ in RULES:
            print(name)
        return 0

    if args.self_test:
        return run_self_test(args.fixtures_dir)

    paths = args.paths or [os.path.join(REPO_ROOT, r) for r in DEFAULT_ROOTS]
    findings, checked = lint_paths(paths)
    for f in findings:
        print(f)
    if findings:
        print(f"\npso_lint: {len(findings)} finding(s) in {checked} file(s); "
              "suppress intentional ones with `// pso-lint: allow(<rule>)`",
              file=sys.stderr)
        return 1
    print(f"pso_lint: {checked} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
