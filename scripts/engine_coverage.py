#!/usr/bin/env python
"""Per-package line coverage with committed floors.

CI's ``coverage`` stage runs a package's end-to-end test files under a
``sys.settrace`` line tracer scoped to that package and fails the
build when total coverage drops below the package's committed floor.
Deliberately stdlib-only: the repro container carries no
``coverage``/``pytest-cov``, and the measured packages are small
enough that a scoped tracer costs seconds, not minutes.

Two packages are under measurement:

* ``engine``   — ``src/repro/accel/engine/`` driven by the
  differential suite and the seeded fuzzer;
* ``analysis`` — ``src/repro/analysis/`` (the ``repro lint`` layer)
  driven by its fixture, mutation and self-lint suites.

Semantics match conventional line coverage: the executable-line
universe is every line carrying bytecode in the compiled module
(``code.co_lines()`` over the nested code-object tree), and a line
counts as covered when the tracer sees it execute.  The tracer installs
*before* ``repro`` is imported, so module-level statements are measured
too.

Usage::

    python scripts/engine_coverage.py                     # engine floor
    python scripts/engine_coverage.py --package analysis  # lint layer
    python scripts/engine_coverage.py --floor 0           # report only
    python scripts/engine_coverage.py -- -k fuzz          # extra pytest args
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
import types
from dataclasses import dataclass

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))


@dataclass(frozen=True)
class Package:
    """One measured package: source dir, driving tests, floor."""

    reldir: str
    test_globs: tuple[str, ...]
    #: Committed coverage floor (percent of executable lines, package
    #: total).  Raise it when coverage improves; lowering it is a
    #: reviewed decision, not a drive-by.
    floor_percent: float

    @property
    def target_dir(self) -> str:
        return os.path.join(REPO, *self.reldir.split("/"))

    def test_files(self) -> list[str]:
        files: list[str] = []
        for pattern in self.test_globs:
            files.extend(sorted(glob.glob(os.path.join(REPO, pattern))))
        return files


PACKAGES = {
    "engine": Package(
        reldir="src/repro/accel/engine",
        test_globs=("tests/test_engine_differential.py",
                    "tests/test_engine_fuzz.py"),
        floor_percent=95.0,   # measured 97.2% (490/504)
    ),
    "analysis": Package(
        reldir="src/repro/analysis",
        test_globs=("tests/test_analysis_*.py",),
        floor_percent=88.0,   # measured 96.6% (515/533), 6 rules
    ),
}

_executed: dict[str, set[int]] = {}
_target_prefix = ""


def _local_trace(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _local_trace


def _global_trace(frame, event, arg):
    if event == "call" \
            and frame.f_code.co_filename.startswith(_target_prefix):
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


def measure(package: Package, pytest_args: list[str]) -> int:
    global _target_prefix
    _target_prefix = package.target_dir + os.sep
    import pytest
    sys.settrace(_global_trace)
    try:
        return pytest.main(["-q", *package.test_files(), *pytest_args])
    finally:
        sys.settrace(None)


def _package_sources(package: Package) -> list[str]:
    out: list[str] = []
    for dirpath, _dirnames, filenames in os.walk(package.target_dir):
        out.extend(os.path.join(dirpath, name) for name in filenames
                   if name.endswith(".py"))
    return sorted(out)


def report(package: Package, floor: float) -> int:
    total_exec = total_hit = 0
    print(f"\ncoverage of {package.reldir}/ (floor {floor:.0f}%):")
    for path in _package_sources(package):
        universe = executable_lines(path)
        hit = _executed.get(path, set()) & universe
        total_exec += len(universe)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(universe) if universe else 100.0
        name = os.path.relpath(path, package.target_dir)
        print(f"  {name:24s} {len(hit):5d}/{len(universe):5d}  {pct:6.1f}%")
    total_pct = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"  {'TOTAL':24s} {total_hit:5d}/{total_exec:5d}  {total_pct:6.1f}%")
    if total_pct < floor:
        print(f"FAIL: {package.reldir} coverage {total_pct:.1f}% is below "
              f"the committed floor {floor:.1f}%", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--package", choices=sorted(PACKAGES),
                        default="engine",
                        help="package to measure (default: engine)")
    parser.add_argument("--floor", type=float, default=None,
                        help="override the package's committed floor")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest "
                             "(prefix with --)")
    args = parser.parse_args(argv)
    package = PACKAGES[args.package]
    floor = args.floor if args.floor is not None else package.floor_percent
    status = measure(package, args.pytest_args)
    if status != 0:
        print(f"FAIL: {args.package} test run failed — coverage not "
              f"evaluated", file=sys.stderr)
        return status
    return report(package, floor)


if __name__ == "__main__":
    sys.exit(main())
