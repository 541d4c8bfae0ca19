#!/usr/bin/env python3
"""Regression gate over the deterministic bench counters.

Every bench harness writes a BENCH_<name>.json report (schema_version 5,
see EXPERIMENTS.md). The "metrics"/"counters" object is the deterministic
section: same seed => identical values on every run and every machine, so
it can be diffed exactly. This tool compares fresh reports against the
committed baselines in bench/baselines/ and fails on any counter drift —
an unexplained change in solver pivots, SAT decisions, or samples drawn
is a behavior change, not noise.

Counters under run-shaped prefixes (parallel.*, pool.* by default) and
everything run-dependent (wall clock, gauges, RSS, git_sha) are reported
but never gate. Wall-clock deltas are printed for information only.

Histograms gate only on their event counts: the number of lp.solve /
sat.solve / bench.main_loop spans is deterministic given the seed, while
the latency values inside the buckets — and hence
the quantiles (p50..p999), sum, mean, min, max, the bucket distribution,
and the derived "throughput" section — are wall-clock artifacts and are
never compared.

Usage:
  # gate (CI): compare build/bench/BENCH_*.json against bench/baselines/
  tools/bench_diff.py --current-dir build/bench

  # refresh baselines after an intentional behavior change:
  tools/bench_diff.py --current-dir build/bench --update
  git add bench/baselines/

Baselines store only the stable fields (bench, experiment, filtered
counters), so their git diffs show exactly the deterministic change and
nothing else.

`--self-test` proves the gate's exit-code contract end to end against
synthetic reports in a temp directory (registered as the ctest
`bench_diff_selftest` under the lint label).
"""

import argparse
import json
import os
import sys
import tempfile

DEFAULT_SKIP_PREFIXES = ["parallel.", "pool."]
SCHEMA_VERSION = 5

EXIT_CODES_HELP = """\
exit codes:
  0  every bench clean: counters and histogram event counts match the
     committed baselines (or --update / --self-test succeeded)
  1  regression: counter drift, histogram event-count drift, or failed
     shape checks in a report
  2  usage error: no BENCH_*.json reports found in --current-dir
  3  baseline missing: a report has no committed baseline — a setup
     problem for a NEW bench, not a regression; run with --update and
     commit bench/baselines/
"""


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r}, expected {SCHEMA_VERSION}"
        )
    return report


def filtered_counters(report, skip_prefixes):
    counters = report.get("metrics", {}).get("counters", {})
    return {
        name: value
        for name, value in counters.items()
        if not any(name.startswith(p) for p in skip_prefixes)
    }


def histogram_counts(report, skip_prefixes):
    """Per-histogram event counts — the only gateable histogram field."""
    histograms = report.get("metrics", {}).get("histograms", {})
    return {
        name: value.get("count", 0)
        for name, value in histograms.items()
        if not any(name.startswith(p) for p in skip_prefixes)
    }


def baseline_document(report, skip_prefixes):
    """The stable subset of a report that gets committed as the baseline."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": report.get("bench", ""),
        "experiment": report.get("experiment", ""),
        "counters": filtered_counters(report, skip_prefixes),
        "histogram_counts": histogram_counts(report, skip_prefixes),
    }


def diff_counters(baseline, current, notes, allow_new=False):
    """Returns a list of human-readable drift lines (empty = clean).

    With allow_new, counters present only in the current report go to
    `notes` (printed informationally) instead of gating — the intended
    mode while a change that introduces new instrumentation (e.g. a new
    solver backend's counters) is in flight before its baseline refresh
    lands.
    """
    lines = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            lines.append(f"counter removed: {name} (baseline {baseline[name]})")
        elif name not in baseline:
            if allow_new:
                notes.append(f"new counter (allowed): {name} = {current[name]}")
            else:
                lines.append(f"counter added: {name} = {current[name]}")
        elif baseline[name] != current[name]:
            lines.append(
                f"counter changed: {name}: {baseline[name]} -> {current[name]}"
            )
    return lines


def _synthetic_report(counters, histogram_counts_by_name):
    """A minimal current-schema report with the given deterministic section."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "bench_selftest",
        "experiment": "SELFTEST",
        "wall_clock_seconds": 0.01,
        "checks_failed": 0,
        "metrics": {
            "counters": counters,
            "histograms": {
                name: {"count": count}
                for name, count in histogram_counts_by_name.items()
            },
        },
    }


def self_test():
    """Drives main() through every documented exit code on synthetic data."""
    failures = []

    def expect(want, argv, scenario):
        got = main(argv)
        ok = got == want
        print(f"[{'PASS' if ok else 'FAIL'}] {scenario}: exit {got} "
              f"(want {want})")
        if not ok:
            failures.append(scenario)

    def write_report(directory, counters, hists):
        path = os.path.join(directory, "BENCH_bench_selftest.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(_synthetic_report(counters, hists), f)

    with tempfile.TemporaryDirectory() as tmp:
        current = os.path.join(tmp, "current")
        baselines = os.path.join(tmp, "baselines")
        os.makedirs(current)
        write_report(current, {"svc.queries": 640}, {"svc.answer": 640})

        common = ["--current-dir", current, "--baseline-dir", baselines]
        expect(3, common, "missing baseline")
        expect(0, common + ["--update"], "baseline refresh")
        expect(0, common, "matching baseline")

        write_report(current, {"svc.queries": 641}, {"svc.answer": 640})
        expect(1, common, "counter drift")
        write_report(current, {"svc.queries": 640}, {"svc.answer": 639})
        expect(1, common, "histogram event-count drift")

        # Older reports are rejected on load: schema 3 (with a "timers"
        # section) and schema 4 (with the harness watchdog keys).
        for stale_version in (3, 4):
            scenario = f"schema-{stale_version} report"
            stale_path = os.path.join(tmp, "BENCH_stale.json")
            with open(stale_path, "w", encoding="utf-8") as f:
                json.dump({**_synthetic_report({}, {}),
                           "schema_version": stale_version}, f)
            try:
                load_report(stale_path)
                failures.append(scenario)
            except ValueError:
                pass
            print(f"[{'FAIL' if scenario in failures else 'PASS'}] "
                  f"{scenario} rejected")

        empty = os.path.join(tmp, "empty")
        os.makedirs(empty)
        expect(2, ["--current-dir", empty, "--baseline-dir", baselines],
               "no reports")

    print(f"\nself-test: {8 - len(failures)}/8 scenarios passed")
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--current-dir",
        default="build/bench",
        help="directory holding the fresh BENCH_*.json reports",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(__file__), "..", "bench", "baselines"),
        help="directory holding the committed baselines",
    )
    parser.add_argument(
        "--skip-prefix",
        action="append",
        default=None,
        metavar="PREFIX",
        help="counter prefixes to exclude from the gate "
        f"(default: {' '.join(DEFAULT_SKIP_PREFIXES)})",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines from the current reports instead of gating",
    )
    parser.add_argument(
        "--allow-new-counters",
        action="store_true",
        help="report counters and histogram event counts absent from the "
        "baseline without failing (for changes that add instrumentation — "
        "a new solver backend's counters, a newly wired latency histogram "
        "— before the baseline refresh lands)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the exit-code contract (0/1/2/3) against synthetic "
        "reports in a temp directory, then exit 0 iff every scenario "
        "produced its documented code",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()

    skip_prefixes = (
        args.skip_prefix if args.skip_prefix is not None else DEFAULT_SKIP_PREFIXES
    )
    baseline_dir = os.path.normpath(args.baseline_dir)

    report_names = sorted(
        f
        for f in os.listdir(args.current_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not report_names:
        print(f"error: no BENCH_*.json reports in {args.current_dir}", file=sys.stderr)
        return 2

    if args.update:
        os.makedirs(baseline_dir, exist_ok=True)
        for name in report_names:
            report = load_report(os.path.join(args.current_dir, name))
            out_path = os.path.join(baseline_dir, name)
            with open(out_path, "w", encoding="utf-8") as f:
                json.dump(baseline_document(report, skip_prefixes), f, indent=2)
                f.write("\n")
            print(f"baseline updated: {out_path}")
        return 0

    failures = 0
    missing = 0
    for name in report_names:
        report = load_report(os.path.join(args.current_dir, name))
        bench = report.get("bench", name)
        baseline_path = os.path.join(baseline_dir, name)
        if not os.path.exists(baseline_path):
            # Distinct from FAIL: a missing baseline is a setup problem
            # (new bench, baseline never committed), not counter drift.
            print(f"MISSING {bench}: no baseline at {baseline_path}")
            print("     run tools/bench_diff.py --update and commit the result")
            missing += 1
            continue
        baseline = load_report(baseline_path)

        notes = []
        problems = diff_counters(
            baseline.get("counters", {}),
            filtered_counters(report, skip_prefixes),
            notes,
            allow_new=args.allow_new_counters,
        )
        problems += [
            f"histogram {line}"
            for line in diff_counters(
                baseline.get("histogram_counts", {}),
                histogram_counts(report, skip_prefixes),
                notes,
                allow_new=args.allow_new_counters,
            )
        ]
        if report.get("checks_failed", 0):
            problems.append(f"{report['checks_failed']} shape check(s) failed")
        if baseline.get("experiment") != report.get("experiment"):
            problems.append(
                f"experiment renamed: {baseline.get('experiment')!r} -> "
                f"{report.get('experiment')!r} (refresh the baseline)"
            )

        wall = report.get("wall_clock_seconds", 0.0)
        if problems:
            print(f"FAIL {bench} (wall {wall:.2f}s, informational):")
            for p in problems:
                print(f"     {p}")
            failures += 1
        else:
            n = len(filtered_counters(report, skip_prefixes))
            h = len(histogram_counts(report, skip_prefixes))
            print(
                f"OK   {bench}: {n} counters + {h} histogram counts match "
                f"(wall {wall:.2f}s)"
            )
        for note in notes:
            print(f"     {note}")

    skipped = ", ".join(skip_prefixes) or "none"
    clean = len(report_names) - failures - missing
    print(
        f"\n{clean}/{len(report_names)} benches clean "
        f"(skipped prefixes: {skipped}; wall clock never gates)"
    )
    if missing:
        print(
            f"{missing} baseline(s) MISSING — not a counter regression; "
            "run tools/bench_diff.py --update and commit bench/baselines/"
        )
        return 3
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
