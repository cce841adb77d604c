"""Sweep execution: run independent simulation jobs on a thread pool.

The executor is deliberately boring: cycle simulation is deterministic,
so parallel execution only changes *when* a result is computed, never
*what* it is.  Results are re-ordered by job index before returning, so
``run_sweep(jobs, num_workers=8)`` is byte-for-byte identical to the
serial path — the property the benchmark suite asserts.

Cache protocol (when a :class:`~repro.sweep.cache.ResultCache` is
given):

1. every job's cache key is computed up front (one code-version digest,
   one config hash and one graph fingerprint per job);
2. hits are filled in immediately; identical keys inside one sweep are
   deduplicated so the simulation runs once;
3. only misses are executed: in the caller's thread when
   ``num_workers == 1``, otherwise on a pool of N threads in
   largest-job-first order (:func:`scheduled_order`) so a skewed matrix
   keeps the pool busy.  The ``soa`` kernel marches with the GIL
   released, so its jobs run in parallel; ``reference`` holds the GIL
   and runs one job at a time;
4. fresh results are written back with provenance — including the
   per-job simulation wall time — on the caller's thread, before
   returning.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass, field

from repro.accel.accelerator import AcceleratorSim
from repro.accel.stats import SimStats
from repro.errors import SweepError
from repro.sweep.cache import ResultCache, code_version
from repro.sweep.jobs import GraphSpec, SweepJob, graph_fingerprint

#: Process-wide graph memo: loading a Table 2 stand-in is R-MAT
#: generation, which costs real time; each GraphSpec is resolved once
#: and reused by every job, on any thread, that names the same spec.
_GRAPH_MEMO: dict[str, object] = {}
#: Held while a GraphSpec is resolved, so two threads missing the memo
#: for one spec do not both generate it.
_GRAPH_LOCK = threading.Lock()


def _graph(job: SweepJob):
    if not isinstance(job.graph, GraphSpec):
        return job.graph
    fp = graph_fingerprint(job.graph)
    graph = _GRAPH_MEMO.get(fp)
    if graph is not None:
        return graph
    with _GRAPH_LOCK:
        graph = _GRAPH_MEMO.get(fp)
        if graph is None:
            graph = _GRAPH_MEMO[fp] = job.resolve_graph()
    return graph


def execute_job(job: SweepJob) -> SimStats:
    """Run one job to completion in the current thread."""
    graph = _graph(job)
    if job.num_slices < 1:
        raise SweepError(f"num_slices must be >= 1, got {job.num_slices}")
    if job.num_slices > 1:
        from repro.accel.slicing import SlicedAcceleratorSim
        from repro.graph.partition import partition_by_destination
        sim = SlicedAcceleratorSim(
            job.config, graph, job.make_algorithm(),
            slices=partition_by_destination(graph, job.num_slices),
            offchip_bytes_per_cycle=job.offchip_bytes_per_cycle,
            engine=job.engine)
    else:
        sim = AcceleratorSim(job.config, graph, job.make_algorithm(),
                             engine=job.engine)
    return sim.run(source=job.source, max_iterations=job.max_iterations).stats


def timed_execute(job: SweepJob) -> tuple[SimStats, float]:
    """``(stats, wall seconds)`` of one job.  ``execute_job`` is looked
    up when called, so a replacement (a test's, a tracer's) runs every
    job, on the sweep's threads and on the serve daemon's alike."""
    t0 = time.perf_counter()
    stats = execute_job(job)
    return stats, time.perf_counter() - t0


def scheduled_order(pending: list[tuple[int, SweepJob]],
                    ) -> list[tuple[int, SweepJob]]:
    """Dispatch order for a worker pool: largest jobs first.

    Sorting by :meth:`SweepJob.cost_hint` (descending, index tie-break)
    keeps the pool busy at the tail of a skewed matrix — the big R-MAT
    jobs no longer land on one straggler worker after the small ones
    drain.  Results are re-ordered by index afterwards, so this changes
    wall-clock only, never output.
    """
    return sorted(pending, key=lambda item: (-item[1].cost_hint(), item[0]))


def resolve_workers(num_workers: int | None) -> int:
    """Normalize a ``--jobs`` request: None/0 means one per CPU."""
    if num_workers is None or num_workers == 0:
        return os.cpu_count() or 1
    if num_workers < 0:
        raise SweepError(f"num_workers must be >= 0 or None, got {num_workers}")
    return num_workers


def _run_on_threads(ordered: list[tuple[int, SweepJob]], workers: int,
                    complete) -> None:
    """Run ``(index, job)`` pairs, in order, on ``workers`` threads;
    ``complete(index, stats, seconds)`` runs on the caller's thread.

    The first job (or ``complete`` call) that raises stops the sweep:
    no job starts after it, and its exception propagates once the
    running jobs end (a thread cannot be stopped mid-job)."""
    failed = threading.Event()

    def run(job: SweepJob):
        if failed.is_set():
            return None                  # the sweep has already failed
        try:
            return timed_execute(job)
        except BaseException:
            failed.set()
            raise

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-sweep") as pool:
        futures = {pool.submit(run, job): index for index, job in ordered}
        try:
            for future in concurrent.futures.as_completed(futures):
                result = future.result()
                if result is not None:
                    complete(futures[future], *result)
        except BaseException:
            failed.set()                 # start none of the queued jobs
            raise


@dataclass
class SweepOutcome:
    """Results of one sweep, in job order, plus execution accounting."""

    jobs: list[SweepJob]
    stats: list[SimStats]
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    workers_used: int = 1
    wall_seconds: float = 0.0
    #: per-job simulation wall time, in job order; 0.0 for cache hits
    #: and duplicate-key fills (nothing was simulated for them)
    job_seconds: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def rows(self, metrics: tuple[str, ...] = ("gteps", "total_cycles")) -> list[dict]:
        """Tag dict + selected stat attributes per job, in job order."""
        out = []
        for job, stats in zip(self.jobs, self.stats):
            row = dict(job.tags)
            for metric in metrics:
                row[metric] = getattr(stats, metric)
            out.append(row)
        return out


def run_sweep(
    jobs: list[SweepJob],
    num_workers: int | None = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    progress=None,
) -> SweepOutcome:
    """Execute a job list and return its stats in job order.

    ``num_workers``: 1 runs in the caller's thread, ``None``/0 uses one
    worker thread per CPU, N > 1 runs on N threads.  ``cache`` may be a
    :class:`ResultCache` or a directory path; omit it to always
    simulate.  ``progress``, if given, is called as
    ``progress(done, total, job)`` after every completed job.
    """
    start = time.monotonic()
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    workers = resolve_workers(num_workers)

    results: list[SimStats | None] = [None] * len(jobs)
    hits = 0
    pending: list[tuple[int, SweepJob]] = []
    keys: list[str | None] = [None] * len(jobs)
    if cache is not None:
        version = code_version()
        key_owner: dict[str, int] = {}   # first pending job per duplicate key
        for i, job in enumerate(jobs):
            key = job.cache_key(version)
            keys[i] = key
            if key in key_owner:
                continue                 # resolved when the owner finishes
            stats = cache.get(key)
            if stats is not None:
                results[i] = stats
                hits += 1
            else:
                key_owner[key] = i
                pending.append((i, job))
    else:
        pending = list(enumerate(jobs))

    done = len(jobs) - len(pending)
    executed = 0
    workers_used = 1 if len(pending) <= 1 else workers
    job_seconds = [0.0] * len(jobs)

    def _complete(index: int, stats: SimStats, seconds: float) -> None:
        nonlocal done, executed
        results[index] = stats
        job_seconds[index] = seconds
        executed += 1
        done += 1
        if cache is not None:
            job = jobs[index]
            cache.put(keys[index], stats, provenance={
                "job": job.describe(),
                "tags": {k: repr(v) for k, v in job.tags.items()},
                "config": job.config.to_dict(),
                "wall_seconds": round(seconds, 6),
            })
        if progress is not None:
            progress(done, len(jobs), jobs[index])

    if workers_used > 1:
        workers_used = min(workers_used, len(pending))
        _run_on_threads(scheduled_order(pending), workers_used, _complete)
    else:
        for index, job in pending:
            _complete(index, *timed_execute(job))

    # fill duplicate-key jobs from their owner's result
    if cache is not None:
        by_key = {keys[i]: results[i] for i in range(len(jobs))
                  if results[i] is not None}
        for i in range(len(jobs)):
            if results[i] is None:
                results[i] = by_key[keys[i]]
                hits += 1

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        raise SweepError(f"jobs {missing} produced no result (executor bug)")

    return SweepOutcome(
        jobs=jobs,
        stats=results,                     # type: ignore[arg-type]
        cache_hits=hits,
        cache_misses=len(jobs) - hits,
        executed=executed,
        workers_used=workers_used,
        wall_seconds=time.monotonic() - start,
        job_seconds=job_seconds,
    )
