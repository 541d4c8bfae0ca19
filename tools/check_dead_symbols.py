#!/usr/bin/env python3
"""check_dead_symbols: fail on library code that no production code calls.

Every function, method and class declared in a src/**/*.h header needs
one use in production code: src/, tools/, bench/ or examples/. A use is
any mention that neither declares nor defines the name, so an internal
call inside the symbol's own .h/.cc counts. Mentions in tests/ and fuzz/
do not, and comments and string literals are ignored.

Names are matched by spelling, not by type: a method that shares its
name with a used function passes. A name that is declared but never used
is reported as `file:line: symbol`, unless ALLOWED lists it with a
reason. An ALLOWED entry whose symbol is gone or now has a production use
is reported too, so the list can only shrink.

Usage:
  tools/check_dead_symbols.py              # check the repository
  tools/check_dead_symbols.py --self-test  # check the fixture tree
The self-test runs the checker, with SELF_TEST_ALLOWED as its allow-list,
on tests/dead_symbol_fixtures/ and compares the findings with that tree's
expected.txt.
Exit codes: 0 clean (or self-test passed), 1 findings (or self-test failed).
"""

import argparse
import os
import re
import sys

sys.dont_write_bytecode = True  # keep pso_lint's bytecode out of the checkout
from pso_lint import iter_cxx_files, strip_comments_and_strings  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PRODUCTION_ROOTS = ("src", "tools", "bench", "examples")
FIXTURE_ROOT = os.path.join(REPO_ROOT, "tests", "dead_symbol_fixtures")

# Symbols that stay without a production caller, each with its reason.
ALLOWED = {
    "MakePostProcessMechanism":
        "Theorem 2.6; pso_game_test PostProcessingNoWorse is its experiment",
    "MakeFixedValueAdversary":
        "the section 2.2 birthday attacker; pso_game_test "
        "BirthdayAttackerIsolatesButWeightTooHeavy checks the game's weight "
        "verification with it",
    "BudgetLedger::ClientState":
        "per-client budget state, for the daemon's planned BUDGET command",
    "BitVector::ForEachSet":
        "oracles::CspEnumerateReference walks the cell masks with it",
    "BernoulliEstimator::successes":
        "the exact count k; determinism_test pins game results by it",
    "MakeTrue":
        "constant leaf of Definition 2.1's predicates; fuzz_predicate composes "
        "it, and And/Or ExactWeight treat it as exact",
    "MakeFalse":
        "constant leaf of Definition 2.1's predicates; fuzz_predicate composes "
        "it, and And/Or ExactWeight treat it as exact",
    "MakeOr":
        "Boolean closure of Definition 2.1's predicates; fuzz_predicate and "
        "proptest_weight_test check ExactWeight on and/or/not trees",
    "MakeNot":
        "Boolean closure of Definition 2.1's predicates; fuzz_predicate and "
        "proptest_weight_test check ExactWeight on and/or/not trees",
    "ReadCsvFile":
        "data/csv is the subject of the seed test csv_test and of fuzz_csv",
    "WriteCsvFile":
        "data/csv is the subject of the seed test csv_test and of fuzz_csv",
    "OptimalFullDomainAnonymize":
        "kanon/lattice is the subject of the seed test kanon_lattice_test",
}

# The fixture tree's allow-list: one live entry and two stale ones.
SELF_TEST_ALLOWED = {
    "Allowed": "kept without a caller",
    "AllowedButCalled": "stale: bench calls it",
    "Removed": "stale: no header declares it",
}

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d[\w.']*|::|->|\S")
IDENT_RE = re.compile(r"[A-Za-z_]\w*$")
MACRO_RE = re.compile(r"[A-Z][A-Z0-9_]*$")
PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.M)

KEYWORDS = frozenset("""
    alignas alignof auto bool break case catch char const constexpr
    consteval constinit continue decltype default delete do double else
    enum explicit extern false float for friend goto if inline int long
    mutable namespace new noexcept nullptr operator override final private
    protected public register requires return short signed sizeof static
    static_assert struct switch template this throw true try typedef
    typename union unsigned using virtual void volatile while
    """.split())
SPECIFIERS = frozenset({"inline", "static", "constexpr", "virtual",
                        "explicit", "extern", "friend", "mutable",
                        "consteval", "constinit"})


def is_ident(tok):
    return IDENT_RE.match(tok) is not None and tok not in KEYWORDS


def tokenize(text):
    """Returns [(token, line)] for code with comments and strings blanked.

    Preprocessor lines are cut out; the set of identifiers in them (macro
    bodies, conditions) is returned alongside, as uses.
    """
    text = strip_comments_and_strings(text)
    directive_uses = set()

    def cut(m):
        body = m.group(0)
        if not re.match(r"\s*#\s*include\b", body):
            directive_uses.update(tok for tok in TOKEN_RE.findall(body)
                                  if is_ident(tok))
        return "\n" * body.count("\n")

    text = PREPROCESSOR_RE.sub(cut, text)
    tokens = []
    for line_no, line in enumerate(text.split("\n"), 1):
        tokens.extend((tok, line_no) for tok in TOKEN_RE.findall(line))
    return tokens, directive_uses


def skip_balanced(toks, i, open_tok, close_tok):
    """Returns the index just past the group that opens at toks[i]."""
    depth = 0
    while i < len(toks):
        if toks[i] == open_tok:
            depth += 1
        elif toks[i] == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def head_start(toks):
    """Index of the first token after template<...>, [[...]], specifiers."""
    i = 0
    while i < len(toks):
        if toks[i] == "template" and i + 1 < len(toks) and toks[i + 1] == "<":
            i = skip_balanced(toks, i + 1, "<", ">")
        elif toks[i] == "[" and i + 1 < len(toks) and toks[i + 1] == "[":
            i = skip_balanced(toks, i, "[", "]")
        elif toks[i] in SPECIFIERS:
            i += 1
        else:
            return i
    return i


def class_name(toks, i):
    """Index of NAME in `class NAME ...` starting at toks[i], or None."""
    name = None
    i += 1
    while i < len(toks):
        tok = toks[i]
        if tok == ":":
            return name
        if is_ident(tok) and not MACRO_RE.match(tok):
            name = i
        i += 1
    return name


def function_name(toks):
    """Finds a function declarator in a declaration-scope statement.

    Returns (is_function, name index or None, index of the name's `(`);
    both indices are None for operators and conversions.
    """
    angle = 0
    i = head_start(toks)
    while i < len(toks):
        tok = toks[i]
        if tok in ("=", "{", ";"):
            return False, None, None
        if tok == "operator":
            return True, None, None
        if tok == "<" and i > 0 and is_ident(toks[i - 1]):
            angle += 1
        elif tok == ">" and angle:
            angle -= 1
        elif tok == "(" and not angle:
            prev = toks[i - 1] if i else ""
            if MACRO_RE.match(prev):  # an annotation such as PSO_GUARDED_BY
                i = skip_balanced(toks, i, "(", ")")
                continue
            if not is_ident(prev):
                return False, None, None
            return True, i - 1, i
        i += 1
    return False, None, None


class FileScan:
    """Declarations and uses found in one file."""

    def __init__(self, rel, text):
        self.rel = rel
        self.declared = []  # (qualified name, bare name, line)
        # Names mentioned other than as declarations.
        tokens, self.uses = tokenize(text)
        self._scan(tokens)

    def _use(self, tok):
        if is_ident(tok):
            self.uses.add(tok)

    def _scan(self, tokens):
        # Each scope is "decl" (a namespace or class body, which holds
        # declarations) or "body" (a function body, initializer or enum,
        # where every name is a use), with the enclosing class's name.
        scopes = [("decl", None)]
        stmt = []  # token indices of the open declaration-scope statement
        parens = 0
        for idx, (tok, line) in enumerate(tokens):
            kind, cls = scopes[-1]
            if kind == "body":
                if tok == "{":
                    scopes.append(("body", None))
                elif tok == "}":
                    scopes.pop()
                else:
                    self._use(tok)
                continue
            if tok == "}":
                self._finish(stmt, tokens, cls)
                stmt, parens = [], 0
                if len(scopes) > 1:
                    scopes.pop()
            elif not stmt and tok in ("public", "private", "protected", ":"):
                continue
            elif tok == ";" and not parens:
                self._finish(stmt, tokens, cls)
                stmt, parens = [], 0
            elif tok == "{":
                block = "body" if parens else self._block_kind(stmt, tokens)
                if block == "body":
                    # An initializer: the statement goes on after it.
                    stmt.append(idx)
                    scopes.append(("body", None))
                    continue
                name = self._finish(stmt, tokens, cls, opens_block=True)
                stmt, parens = [], 0
                if block == "function":
                    scopes.append(("body", None))
                else:
                    scopes.append(("decl", name if block == "class" else cls))
            else:
                parens += (tok == "(") - (tok == ")")
                stmt.append(idx)
        self._finish(stmt, tokens, None)

    def _block_kind(self, stmt, tokens):
        toks = [tokens[j][0] for j in stmt]
        if not toks:
            return "body"
        first = head_start(toks)
        if first < len(toks):
            if toks[first] == "namespace":
                return "namespace"
            if toks[first] == "enum":
                return "body"
            if toks[first] in ("class", "struct", "union"):
                return "class"
        return "function" if function_name(toks)[0] else "body"

    def _finish(self, stmt, tokens, cls, opens_block=False):
        """Records the statement's declaration and its uses.

        Returns the class name when the statement opens a class body.
        """
        toks = [tokens[j][0] for j in stmt]
        declaring = set()
        opened = None
        first = head_start(toks)
        if first < len(toks) and toks[first] in ("namespace", "using",
                                                 "typedef", "static_assert"):
            if toks[first] == "namespace":
                declaring.update(range(len(toks)))
        elif first < len(toks) and toks[first] in ("class", "struct", "union"):
            name = class_name(toks, first)
            if name is not None:
                declaring.add(name)
                if opens_block and toks[name - 1] != "::":
                    qual = f"{cls}::{toks[name]}" if cls else toks[name]
                    self.declared.append((qual, toks[name], tokens[stmt[name]][1]))
                    opened = toks[name]
        elif not (first < len(toks) and toks[first] == "enum"):
            is_func, name, paren = function_name(toks)
            if is_func and paren is not None:
                # The declarator and its qualifiers (`Class::Name`).
                j = paren - 1
                quals = []
                while j >= 0:
                    declaring.add(j)
                    if j >= 2 and toks[j - 1] == "::" and is_ident(toks[j - 2]):
                        quals.insert(0, toks[j - 2])
                        j -= 2
                    else:
                        break
                if name is not None and toks[name] != cls and \
                        toks[name] not in quals:
                    owner = "::".join(quals) if quals else cls
                    qual = f"{owner}::{toks[name]}" if owner else toks[name]
                    self.declared.append((qual, toks[name], tokens[stmt[name]][1]))
        for k, tok in enumerate(toks):
            if k not in declaring:
                self._use(tok)
        return opened


def scan_tree(root):
    scans = []
    for path in iter_cxx_files([os.path.join(root, d) for d in PRODUCTION_ROOTS]):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, encoding="utf-8", errors="replace") as f:
            scans.append(FileScan(rel, f.read()))
    return scans


def check(root, allowed):
    """Returns the findings for the tree at `root`, one string each."""
    scans = scan_tree(root)
    used = set()
    for scan in scans:
        used.update(scan.uses)
    findings = []
    declared = set()
    for scan in scans:
        if not (scan.rel.startswith("src/") and scan.rel.endswith(".h")):
            continue
        for qual, bare, line in scan.declared:
            declared.add(qual)
            if bare not in used and qual not in allowed:
                findings.append(f"{scan.rel}:{line}: {qual}")
    for qual in sorted(allowed):
        if qual not in declared:
            findings.append(f"allow-list entry {qual} is not declared in "
                            "any src/ header; remove it")
        elif qual.split("::")[-1] in used:
            findings.append(f"allow-list entry {qual} has a production use; "
                            "remove it")
    return findings


def run_self_test():
    with open(os.path.join(FIXTURE_ROOT, "expected.txt"), encoding="utf-8") as f:
        expected = [line for line in f.read().splitlines() if line]
    findings = check(FIXTURE_ROOT, SELF_TEST_ALLOWED)
    for finding in sorted(set(expected) - set(findings)):
        print(f"missing: {finding}")
    for finding in sorted(set(findings) - set(expected)):
        print(f"unexpected: {finding}")
    if sorted(findings) != sorted(expected):
        print("check_dead_symbols --self-test: FAILED", file=sys.stderr)
        return 1
    print(f"check_dead_symbols --self-test: {len(expected)} expected "
          "finding(s) reported, no others")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self-test", action="store_true",
                        help="check tests/dead_symbol_fixtures instead")
    if parser.parse_args().self_test:
        return run_self_test()
    findings = check(REPO_ROOT, ALLOWED)
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_dead_symbols: {len(findings)} finding(s); delete the "
              "code, or call it from production code", file=sys.stderr)
        return 1
    print("check_dead_symbols: every src/ header symbol has a production use")
    return 0


if __name__ == "__main__":
    sys.exit(main())
