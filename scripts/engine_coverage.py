#!/usr/bin/env python
"""Engine-package line coverage with a committed floor.

CI's ``coverage`` stage runs the differential suite and the seeded
fuzzer under a ``sys.settrace`` line tracer scoped to
``src/repro/accel/engine/`` and fails the build when total coverage
drops below the committed floor.  Deliberately stdlib-only: the repro
container carries no ``coverage``/``pytest-cov``, and the package is
small enough that a scoped tracer costs seconds, not minutes.

Semantics match conventional line coverage: the executable-line
universe is every line carrying bytecode in the compiled module
(``code.co_lines()`` over the nested code-object tree), and a line
counts as covered when the tracer sees it execute.  The tracer installs
*before* ``repro`` is imported, so module-level statements are measured
too.

Usage::

    python scripts/engine_coverage.py                # committed floor
    python scripts/engine_coverage.py --floor 0      # report only
    python scripts/engine_coverage.py -- -k fuzz     # extra pytest args
"""

from __future__ import annotations

import argparse
import os
import sys
import types

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

RELDIR = "src/repro/accel/engine"
TARGET_DIR = os.path.join(REPO, *RELDIR.split("/"))
TEST_FILES = tuple(os.path.join(REPO, "tests", name) for name in (
    "test_engine_differential.py", "test_engine_fuzz.py"))
#: Committed coverage floor (percent of executable lines, package
#: total).  Raise it when coverage improves; lowering it is a reviewed
#: decision, not a drive-by.
FLOOR_PERCENT = 95.0   # measured 97.2% (481/495)

_executed: dict[str, set[int]] = {}
_TARGET_PREFIX = TARGET_DIR + os.sep


def _local_trace(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local_trace


def _global_trace(frame, event, arg):
    if event == "call" \
            and frame.f_code.co_filename.startswith(_TARGET_PREFIX):
        _executed.setdefault(frame.f_code.co_filename, set())
        return _local_trace
    return None


def executable_lines(path: str) -> set[int]:
    """Every line carrying bytecode in the module's code-object tree."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        lines.update(line for _, _, line in obj.co_lines()
                     if line is not None)
        stack.extend(const for const in obj.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def measure(pytest_args: list[str]) -> int:
    import pytest
    sys.settrace(_global_trace)
    try:
        return pytest.main(["-q", *TEST_FILES, *pytest_args])
    finally:
        sys.settrace(None)


def _package_sources() -> list[str]:
    out: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(TARGET_DIR):
        out.extend(os.path.join(dirpath, name) for name in filenames
                   if name.endswith(".py"))
    return sorted(out)


def report(floor: float) -> int:
    total_exec = total_hit = 0
    print(f"\ncoverage of {RELDIR}/ (floor {floor:.0f}%):")
    for path in _package_sources():
        universe = executable_lines(path)
        hit = _executed.get(path, set()) & universe
        total_exec += len(universe)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(universe) if universe else 100.0
        name = os.path.relpath(path, TARGET_DIR)
        print(f"  {name:24s} {len(hit):5d}/{len(universe):5d}  {pct:6.1f}%")
    total_pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"  {'TOTAL':24s} {total_hit:5d}/{total_exec:5d}  {total_pct:6.1f}%")
    if total_pct < floor:
        print(f"FAIL: {RELDIR} coverage {total_pct:.1f}% is below "
              f"the committed floor {floor:.1f}%", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--floor", type=float, default=FLOOR_PERCENT,
                        help="override the committed floor "
                             f"(default: {FLOOR_PERCENT:.0f})")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest "
                             "(prefix with --)")
    args = parser.parse_args(argv)
    status = measure(args.pytest_args)
    if status != 0:
        print("FAIL: engine test run failed — coverage not evaluated",
              file=sys.stderr)
        return status
    return report(args.floor)


if __name__ == "__main__":
    sys.exit(main())
