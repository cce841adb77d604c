"""Sweep execution: run independent simulation jobs on a thread pool.

The executor is deliberately boring: cycle simulation is deterministic,
so parallel execution only changes *when* a result is computed, never
*what* it is.  Results are re-ordered by job index before returning, so
``run_sweep(jobs, num_workers=8)`` is byte-for-byte identical to the
serial path — the property the benchmark suite asserts.

Every sweep, with or without a cache, local or on the serve daemon,
keeps its books in one :class:`SweepLedger`:

1. every job's cache key is computed up front (one code-version digest,
   one config hash and one graph fingerprint per job) and the cache
   hits are filled in;
2. each distinct missed key is simulated once; the jobs that repeat it
   are filled from its result at the end.  ``run_sweep`` simulates in
   the caller's thread when ``num_workers == 1``, otherwise on a pool of
   N threads in largest-job-first order (:func:`scheduled_order`) so a
   skewed matrix keeps the pool busy.  The ``soa`` kernel marches with
   the GIL released, so its jobs run in parallel; ``reference`` holds
   the GIL and runs one job at a time;
3. fresh results are written back with provenance — including the
   per-job simulation wall time — on the caller's thread, before
   returning.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
import time
from dataclasses import dataclass, field

from repro.accel.engine.registry import resolve_engine
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


def execute_job(job: SweepJob, engine: str | None = None) -> SimStats:
    """Run one job to completion in the current thread, on ``engine``
    (default :data:`~repro.accel.engine.DEFAULT_ENGINE`).

    The simulators are imported here, by the first job a process runs,
    so that a sweep that only reads the cache imports no numpy.
    """
    from repro.accel.accelerator import AcceleratorSim

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
            engine=engine)
    else:
        sim = AcceleratorSim(job.config, graph, job.make_algorithm(),
                             engine=engine)
    return sim.run(source=job.source, max_iterations=job.max_iterations).stats


def timed_execute(job: SweepJob,
                  engine: str | None = None) -> tuple[SimStats, float]:
    """``(stats, wall seconds)`` of one job on ``engine``.
    ``execute_job`` is looked up when called, so a replacement (a
    test's, a tracer's) runs every job, on the sweep's threads and on
    the serve daemon's alike."""
    t0 = time.perf_counter()
    stats = execute_job(job, engine)
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
                    engine: str, complete) -> None:
    """Run ``(index, job)`` pairs, in order, on ``workers`` threads and
    ``engine``; ``complete(index, stats, seconds)`` runs on the caller's
    thread.

    The first job (or ``complete`` call) that raises stops the sweep:
    no job starts after it, and its exception propagates once the
    running jobs end (a thread cannot be stopped mid-job)."""
    failed = threading.Event()

    def run(job: SweepJob):
        if failed.is_set():
            return None                  # the sweep has already failed
        try:
            return timed_execute(job, engine)
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
    #: jobs that waited for another serve request's run of their key;
    #: counted among the cache hits too (nothing was simulated for them)
    deduped: int = 0

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


class SweepLedger:
    """The books of one sweep, whoever simulates its jobs.

    :func:`run_sweep` and the serve daemon's scheduler each drive one.
    Construction keys every job under ``version`` and fills the cache
    hits; ``pending`` lists the first job of each missed key, the ones
    to simulate.  :meth:`complete` records (and stores) a result
    simulated for this sweep, :meth:`attach` one simulated for another
    request, and :meth:`outcome` fills the duplicate keys from their
    first job and builds the :class:`SweepOutcome`.

    ``progress``, if given, is called as ``progress(done, total, job)``
    once per job, ``done`` counting from 1 to ``total``: the cache hits
    first, in job order, then each job as its result arrives.
    """

    def __init__(self, jobs: list[SweepJob], cache: ResultCache | None,
                 version: str, progress=None) -> None:
        self.start = time.monotonic()
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.keys = [job.cache_key(version) for job in jobs]
        self.results: list[SimStats | None] = [None] * len(jobs)
        self.job_seconds = [0.0] * len(jobs)
        self.hits = self.executed = self.deduped = self.done = 0
        self.pending: list[tuple[int, SweepJob]] = []
        missed: set[str] = set()
        for i, (job, key) in enumerate(zip(jobs, self.keys)):
            if key in missed:
                continue                 # filled from its first job's result
            stats = cache.get(key) if cache is not None else None
            if stats is None:
                missed.add(key)
                self.pending.append((i, job))
            else:
                self.results[i] = stats
                self.hits += 1
                self._report(i)

    def _report(self, index: int) -> None:
        self.done += 1
        if self.progress is not None:
            self.progress(self.done, len(self.jobs), self.jobs[index])

    def complete(self, index: int, stats: SimStats, seconds: float) -> None:
        """Record a result simulated for this sweep and store it."""
        job = self.jobs[index]
        self.results[index] = stats
        self.job_seconds[index] = seconds
        self.executed += 1
        if self.cache is not None:
            self.cache.put(self.keys[index], stats, provenance={
                "job": job.describe(),
                "tags": {k: repr(v) for k, v in job.tags.items()},
                "config": job.config.to_dict(),
                "wall_seconds": round(seconds, 6),
            })
        self._report(index)

    def attach(self, index: int, stats: SimStats) -> None:
        """Record a result another request simulated for the same key."""
        self.results[index] = stats
        self.hits += 1
        self.deduped += 1
        self._report(index)

    def outcome(self, workers_used: int) -> SweepOutcome:
        """Fill the duplicate keys and build the outcome; every job must
        have its result by now."""
        by_key = {key: stats for key, stats in zip(self.keys, self.results)
                  if stats is not None}
        for i, stats in enumerate(self.results):
            if stats is None and self.keys[i] in by_key:
                self.results[i] = by_key[self.keys[i]]
                self.hits += 1
                self._report(i)
        missing = [i for i, r in enumerate(self.results) if r is None]
        if missing:
            raise SweepError(f"jobs {missing} produced no result (sweep bug)")
        return SweepOutcome(
            jobs=self.jobs,
            stats=self.results,            # type: ignore[arg-type]
            cache_hits=self.hits,
            cache_misses=len(self.jobs) - self.hits,
            executed=self.executed,
            workers_used=workers_used,
            wall_seconds=time.monotonic() - self.start,
            job_seconds=self.job_seconds,
            deduped=self.deduped,
        )


def run_sweep(
    jobs: list[SweepJob],
    num_workers: int | None = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    progress=None,
    engine: str | None = None,
) -> SweepOutcome:
    """Execute a job list and return its stats in job order.

    ``num_workers``: 1 runs in the caller's thread, ``None``/0 uses one
    worker thread per CPU, N > 1 runs on N threads.  ``cache`` may be a
    :class:`ResultCache` or a directory path; omit it to simulate every
    distinct job.  ``progress``, if given, is called as
    ``progress(done, total, job)`` once per job (see
    :class:`SweepLedger`).  ``engine`` runs every simulated job
    (default :data:`~repro.accel.engine.DEFAULT_ENGINE`); an unknown
    one raises :class:`~repro.errors.ConfigError` before any cache is
    read.
    """
    engine = resolve_engine(engine)
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    workers = resolve_workers(num_workers)
    ledger = SweepLedger(jobs, cache, code_version(), progress)
    pending = ledger.pending
    workers_used = min(workers, len(pending)) if len(pending) > 1 else 1
    if workers_used > 1:
        _run_on_threads(scheduled_order(pending), workers_used, engine,
                        ledger.complete)
    else:
        for index, job in pending:
            ledger.complete(index, *timed_execute(job, engine))
    return ledger.outcome(workers_used)
