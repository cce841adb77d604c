"""BENCH history validation: schema, equivalence gate, trajectory watch.

``benchmarks/results/bench_history.jsonl`` accumulates one JSON record
per ``scripts/perf_probe.py`` run.  The checks live here so the
``bench-history`` lint rule and the standalone
``scripts/check_bench_history.py`` gate share one implementation:

* **schema** — every line must parse and carry the required fields with
  the right types (fatal);
* **equivalence** — ``stats_identical`` must be true on every record: a
  false value means a probe run caught the engines disagreeing, and the
  history then contains evidence of a broken contract (fatal);
* **trajectory** — a newest-record ``speedup_soa`` more than
  ``tolerance`` below the best *comparable* record (equal ``bench``,
  ``scales`` and ``jobs``) is an advisory warning: shared CI runners are
  too noisy for a hard perf floor (see ``docs/performance.md``).
"""

from __future__ import annotations

import json

#: required field -> accepted types (bool checked before int: bool is a
#: subclass of int in Python, so isinstance(True, int) would pass)
SCHEMA: dict[str, tuple] = {
    "bench": (str,),
    "utc": (str,),
    "datasets": (list,),
    "algorithms": (list,),
    "scales": (dict,),
    "jobs": (int,),
    "reference_seconds": (int, float),
    "stats_identical": (bool,),
    "engine_equivalence_class": (str,),
    "python": (str,),
    "machine": (str,),
}

#: optional field -> accepted types.  Records carry the timings of the
#: engines the probe ran: ``batched_seconds``/``speedup``/
#: ``median_job_speedup`` are historical (the batched engine is retired;
#: only records up to 2026-08-08 have them), the ``soa`` fields start in
#: 2026-08 — every record has at least one of the two timings.
OPTIONAL_SCHEMA: dict[str, tuple] = {
    "batched_seconds": (int, float),
    "speedup": (int, float),
    "median_job_speedup": (int, float),
    "ffwd": (dict,),
    "soa_seconds": (int, float),
    "speedup_soa": (int, float),
    "median_job_speedup_soa": (int, float),
    "pr10_seconds": (int, float),
    "speedup_soa_pr10": (int, float),
}

#: optional numeric fields that must be positive when present
_OPTIONAL_POSITIVE = tuple(field for field, types in OPTIONAL_SCHEMA.items()
                           if types == (int, float))

#: engine timings a record must carry at least one of
_ENGINE_SECONDS = ("batched_seconds", "soa_seconds")

#: the speedup the trajectory watch compares
_TRAJECTORY_FIELD = "speedup_soa"


def validate_record(record: dict, lineno: int) -> list[str]:
    """Return schema violations for one parsed record."""
    errors = []
    for field, types in SCHEMA.items():
        if field not in record:
            errors.append(f"line {lineno}: missing field {field!r}")
        elif field != "stats_identical" and isinstance(record[field], bool) \
                and bool not in types:
            errors.append(f"line {lineno}: field {field!r} must be "
                          f"{'/'.join(t.__name__ for t in types)}, got bool")
        elif not isinstance(record[field], types):
            errors.append(
                f"line {lineno}: field {field!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(record[field]).__name__}")
    for field, types in OPTIONAL_SCHEMA.items():
        if field not in record:
            continue
        if (isinstance(record[field], bool) and bool not in types) \
                or not isinstance(record[field], types):
            errors.append(
                f"line {lineno}: field {field!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(record[field]).__name__}")
    if not errors:
        if record["jobs"] < 1:
            errors.append(f"line {lineno}: jobs must be >= 1")
        if record["reference_seconds"] <= 0:
            errors.append(f"line {lineno}: reference_seconds must be "
                          f"positive")
        if not any(field in record for field in _ENGINE_SECONDS):
            errors.append(f"line {lineno}: record carries no engine "
                          f"timing (one of {', '.join(_ENGINE_SECONDS)})")
        for field in _OPTIONAL_POSITIVE:
            if field in record and record[field] <= 0:
                errors.append(f"line {lineno}: {field} must be positive")
    return errors


def comparability_key(record: dict):
    """Records are comparable when bench, workload size and scales match.

    The probe appends more than one trajectory per run (the fig8 matrix
    and the PageRank x10 record), so the bench name keeps the
    trajectories from being compared against each other.
    """
    return (record["bench"], record["jobs"],
            tuple(sorted(record["scales"].items())))


def check_history(records: list[dict], tolerance: float = 0.2):
    """Run all checks on parsed records.

    Returns ``(fatal_errors, warnings)`` — schema problems and
    ``stats_identical`` violations are fatal, trajectory regressions
    are warnings.
    """
    fatal: list[str] = []
    warnings: list[str] = []
    for i, record in enumerate(records, 1):
        fatal.extend(validate_record(record, i))
    if fatal:
        return fatal, warnings
    for i, record in enumerate(records, 1):
        if not record["stats_identical"]:
            fatal.append(
                f"line {i}: stats_identical is false — the {record['utc']} "
                "probe run caught the engines disagreeing (equivalence "
                "contract broken)")
    if fatal or not records:
        return fatal, warnings
    # one watch per trajectory: the newest record of every bench is
    # compared against the best earlier comparable record of that bench
    # (a probe run appends both a fig8 and a pr10 record, so "the last
    # line" alone would leave the fig8 trajectory unwatched); records
    # without the trajectory field (batched-era ones) are not compared
    timed = [r for r in records if _TRAJECTORY_FIELD in r]
    newest_by_bench: dict[str, dict] = {}
    for record in timed:
        newest_by_bench[record["bench"]] = record
    for bench, newest in newest_by_bench.items():
        peers = [r for r in timed
                 if r is not newest
                 and comparability_key(r) == comparability_key(newest)]
        if not peers:
            continue
        best = max(p[_TRAJECTORY_FIELD] for p in peers)
        floor = best * (1.0 - tolerance)
        if newest[_TRAJECTORY_FIELD] < floor:
            warnings.append(
                f"trajectory regression: newest {bench} record "
                f"({newest['utc']}) {_TRAJECTORY_FIELD} "
                f"{newest[_TRAJECTORY_FIELD]:.3f}x is more than "
                f"{tolerance:.0%} below the best comparable record "
                f"({best:.3f}x over {len(peers)} peer(s))")
    return fatal, warnings


def load_history(path: str) -> list[dict]:
    """Parse one-record-per-line JSON.

    Raises ``SystemExit`` with a ``path:line`` location on malformed
    input — the historical contract of the standalone checker script
    (callers that want an exception catch ``SystemExit``; the
    ``bench-history`` lint rule does).
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"{path}:{lineno}: not valid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise SystemExit(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records
