#!/usr/bin/env python
"""Validate the BENCH history and watch the perf trajectory.

Thin shim: the schema / equivalence / trajectory logic lives in
:mod:`repro.analysis.history`, shared with the ``bench-history`` lint
rule.  This entry point remains for parameterized use
(``--file`` / ``--tolerance`` / ``--strict``):

* **schema** — every line must parse and carry the required fields with
  the right types (fatal);
* **equivalence** — ``stats_identical`` must be true on every record: a
  false value means a probe run caught the engines disagreeing (fatal);
* **regression watch** — if a bench's newest ``speedup_soa`` dropped
  more than ``--tolerance`` (default 20%) below the best *comparable*
  record (equal ``bench``, ``scales`` and ``jobs``), print a loud
  warning.  This is advisory only: shared CI runners are too noisy for
  a hard perf gate (see docs/performance.md), so it never fails the
  build unless ``--strict`` is passed.

Usage::

    python scripts/check_bench_history.py                 # default file
    python scripts/check_bench_history.py --file F --tolerance 0.3
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.history import (  # noqa: E402,F401  (re-exported API)
    OPTIONAL_SCHEMA,
    SCHEMA,
    check_history,
    comparability_key,
    load_history,
    validate_record,
)

DEFAULT_FILE = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "results", "bench_history.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--file", default=DEFAULT_FILE,
                        help="history file (default: "
                             "benchmarks/results/bench_history.jsonl)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="advisory regression threshold vs the best "
                             "comparable record (default: 0.2 = 20%%)")
    parser.add_argument("--strict", action="store_true",
                        help="treat the advisory regression warning as fatal "
                             "(off by default: CI runners are noisy)")
    args = parser.parse_args(argv)

    if not os.path.exists(args.file):
        print(f"check_bench_history: no history at {args.file} "
              "(nothing to check)")
        return 0
    records = load_history(args.file)
    if not records:
        print(f"check_bench_history: {args.file} is empty (nothing to check)")
        return 0
    fatal, warnings = check_history(records, tolerance=args.tolerance)
    for message in warnings:
        print(f"WARNING: {message}", file=sys.stderr)
    for message in fatal:
        print(f"ERROR: {message}", file=sys.stderr)
    if fatal:
        return 1
    if warnings and args.strict:
        return 1
    newest = records[-1]
    # batched-era records carry ``speedup``, later ones ``speedup_soa``
    speedup = newest.get("speedup_soa", newest.get("speedup"))
    print(f"check_bench_history: {len(records)} record(s) OK — newest "
          f"{newest['utc']} {newest['bench']} speedup {speedup}x "
          f"(jobs {newest['jobs']}, stats_identical true)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
