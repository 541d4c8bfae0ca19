#!/usr/bin/env python3
"""Compares two sets of pso_bench results against BENCHMARK.json's bounds.

    compare.py --parent p1.json p2.json ... --change c1.json c2.json ...
               [--benchmark BENCHMARK.json]
    compare.py --self-test

Each file is a results.json written by pso_bench. Runs pair up in the
order given (parent[i] with change[i]; alternate which side runs first when
producing them). For every workload and end-to-end metric it prints each
side's median and quartiles (statistics.quantiles, n=4), the share of
pairs the change wins (ties count for neither side) and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run is better than every parent run;
  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's IQR;
  unchanged   otherwise.

It also lists the deterministic outputs (accuracy, counters, refusal
share) that differ within a pair run with the same seed. The exit status
is 1 if any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(SUITE, "..", "..", "BENCHMARK.json")

# Outputs that depend only on the seed, so they must repeat exactly.
DETERMINISTIC = (
    "accuracy",
    "persons_exact_fraction",
    "failed_fraction",
    "dp.refused_fraction",
    "solver.lp.pivots",
    "solver.lp.pivot_work",
    "solver.lp.refactorizations",
    "solver.lp.eta_updates",
    "recon.lsq_query_bytes_scanned",
    "census.solutions_enumerated",
    "census.blocks_exhausted",
    "census.unique_fraction",
)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, higher_is_better):
    """Returns (verdict, win share) for one metric's two samples."""
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "regressed", win_share
    always_better = min(sign * c for c in change) > max(sign * p for p in parent)
    too_wide = (p_q3 - p_q1) > bound * abs(p_med) or (c_q3 - c_q1) > bound * abs(c_med)
    if too_wide and not always_better:
        return "unresolved", win_share
    if win_share >= 0.9 and sign * (c_med - p_med) > (p_q3 - p_q1):
        return "improved", win_share
    return "unchanged", win_share


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def values(runs, workload, section, metric):
    out = []
    for run in runs:
        entry = run.get("workloads", {}).get(workload, {}).get(section, {})
        if metric in entry:
            out.append(entry[metric]["value"])
    return out


def compare(benchmark, parent_runs, change_runs, out=sys.stdout):
    """Prints the comparison; returns {(workload, metric): verdict} and the
    list of deterministic mismatches."""
    verdicts = {}
    workloads = sorted({w for run in parent_runs + change_runs for w in run.get("workloads", {})})
    header = "%-11s %-17s %-30s %-30s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
    print(header, file=out)
    for workload in workloads:
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            parent = values(parent_runs, workload, "metrics", name)
            change = values(change_runs, workload, "metrics", name)
            if not parent or not change:
                continue
            result, win_share = verdict(parent, change, spec["bound"], spec["better"] == "higher")
            verdicts[(workload, name)] = result
            cells = []
            for sample in (parent, change):
                q1, q3 = quartiles(sample)
                cells.append("%.4g [%.4g, %.4g]" % (statistics.median(sample), q1, q3))
            print("%-11s %-17s %-30s %-30s %4.0f%%  %s" % (
                workload, name, cells[0], cells[1], 100 * win_share, result), file=out)
    mismatches = []
    for p, c in zip(parent_runs, change_runs):
        if p.get("seed") != c.get("seed"):
            continue
        for workload in workloads:
            for section in ("workload_metrics", "per_layer"):
                for name in DETERMINISTIC:
                    pv = values([p], workload, section, name)
                    cv = values([c], workload, section, name)
                    if pv and cv and pv != cv:
                        mismatches.append((p.get("seed"), workload, name, pv[0], cv[0]))
    for seed, workload, name, pv, cv in mismatches:
        print("deterministic output differs at seed %s: %s %s %r -> %r" % (seed, workload, name, pv, cv), file=out)
    return verdicts, mismatches


def self_test():
    data = os.path.join(SUITE, "testdata")
    with open(os.path.join(data, "benchmark.json")) as f:
        benchmark = json.load(f)
    parent = load([os.path.join(data, "parent_%d.json" % i) for i in range(1, 6)])
    change = load([os.path.join(data, "change_%d.json" % i) for i in range(1, 6)])
    verdicts, mismatches = compare(benchmark, parent, change)
    expected = {
        ("w", "setup_s"): "unchanged",
        ("w", "latency_p50_ms"): "improved",
        ("w", "latency_p99_ms"): "unresolved",
        ("w", "throughput_per_s"): "regressed",
        ("w", "peak_rss_mib"): "unchanged",
    }
    ok = verdicts == expected and mismatches == [(3, "w", "accuracy", 1.0, 0.9)]
    print("self-test: %s" % ("ok" if ok else "FAILED, expected %r" % expected))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("need --parent and --change result files")
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    verdicts, _ = compare(benchmark, load(args.parent), load(args.change))
    return 1 if "regressed" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
