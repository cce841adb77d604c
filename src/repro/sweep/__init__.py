"""Sweep execution subsystem: plan, shard and cache simulation matrices.

The paper's figures are matrices of independent cycle simulations;
this package turns a matrix description into :class:`SweepJob` lists
(:mod:`repro.sweep.jobs`), runs them on a thread pool with
deterministic result ordering (:mod:`repro.sweep.executor`) and
memoizes results on disk keyed by content, not by name
(:mod:`repro.sweep.cache`).  See ``docs/sweep.md``.
"""

from repro.sweep.cache import (
    CacheEntry,
    GcStats,
    ResultCache,
    code_version,
)
from repro.sweep.executor import (
    SweepOutcome,
    execute_job,
    resolve_workers,
    run_sweep,
    scheduled_order,
)
from repro.sweep.jobs import GraphSpec, SweepJob, graph_fingerprint, plan_jobs

__all__ = [
    "GraphSpec",
    "SweepJob",
    "plan_jobs",
    "graph_fingerprint",
    "CacheEntry",
    "GcStats",
    "ResultCache",
    "code_version",
    "SweepOutcome",
    "run_sweep",
    "execute_job",
    "resolve_workers",
    "scheduled_order",
]
