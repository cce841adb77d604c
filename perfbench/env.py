"""Process set-up shared by the benchmark's entry scripts.

:func:`prepare` must run before ``repro`` or numpy is imported: the
engine choice is read from the environment when jobs are planned, and
BLAS sizes its thread pool when numpy loads.  Child processes (the cache
fill, the serve daemon, the set-up probes) inherit the same environment.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space of all runs; each run owns one fresh subdirectory.
WORK_ROOT = ROOT / ".perfbench_work"

PINNED_ENV = {
    # selected the way the CLI does, so report() jobs, which are planned
    # inside regenerate(), run on soa too
    "REPRO_ENGINE": "soa",
    # numpy's default BLAS pool burns CPU on threads the workloads
    # never need, which inflates and jitters CPU-time set-up
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Variables that would change what the workloads simulate, or how.
CLEARED_ENV = ("REPRO_SCALE", "REPRO_SOA_KERNEL", "REPRO_SOA_RECORD",
               "REPRO_JOBS", "REPRO_CACHE_DIR", "CC")


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, no kernel, ...)."""


def prepare(work: Path) -> None:
    """Pin the environment and make ``src`` importable.

    ``work`` becomes this process tree's temp dir and holds a fresh
    compiled-kernel cache, so every run builds the kernel itself.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    os.environ["REPRO_SOA_CACHE"] = str(work / "soa")
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *(p for p in paths if p and p != str(SRC))])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def new_work_dir(label: str) -> Path:
    return WORK_ROOT / f"{label}-{os.getpid()}"


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()           # only when no other run is using it
    except OSError:
        pass
