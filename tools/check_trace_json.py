#!/usr/bin/env python3
"""Strict check of Chrome trace-event JSON files (psoctl/harness --trace).

Each file must parse as JSON with no object holding the same key twice.
Python's json module (like Perfetto's args view) silently keeps the last
of duplicate keys, so a duplicated span or instant arg would otherwise be
lost without notice.

  check_trace_json.py [--require NAME]... TRACE...

--require NAME additionally demands at least one event named NAME in every
file, so a trace that lost its events cannot pass. Exits 0 when every file
passes, 1 otherwise.
"""

import argparse
import json
import sys


class DuplicateKey(ValueError):
    pass


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise DuplicateKey(f"duplicate key {key!r} in {dict(pairs)!r}")
        seen[key] = value
    return seen


def check(path, required):
    """Returns a list of problems found in the trace at `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, object_pairs_hook=_reject_duplicates)
    except (OSError, ValueError) as e:
        return [str(e)]
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        return ["no traceEvents list"]
    names = {e.get("name") for e in events if isinstance(e, dict)}
    return [f"no {name!r} event" for name in required if name not in names]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args(argv)
    bad = 0
    for path in args.traces:
        problems = check(path, args.require)
        if problems:
            bad += 1
            print(f"FAIL {path}: {'; '.join(problems)}")
        else:
            print(f"OK   {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
