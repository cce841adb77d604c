"""Sweep execution: shard independent simulation jobs across processes.

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
3. only misses are dispatched to workers, serially when
   ``num_workers == 1`` or when no usable multiprocessing context
   exists, otherwise via a process pool in largest-job-first order
   (:func:`scheduled_order`) so a skewed matrix keeps the pool busy;
4. fresh results are written back with provenance — including the
   per-job simulation wall time — before returning.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.accel.accelerator import AcceleratorSim
from repro.accel.stats import SimStats
from repro.errors import SweepError
from repro.sweep.cache import ResultCache, code_version
from repro.sweep.jobs import GraphSpec, SweepJob, graph_fingerprint

#: Per-worker-process graph memo: loading a Table 2 stand-in is R-MAT
#: generation, which costs real time; each worker resolves a GraphSpec
#: once and reuses it for every job that names the same spec.
_GRAPH_MEMO: dict[str, object] = {}


def execute_job(job: SweepJob) -> SimStats:
    """Run one job to completion in the current process."""
    fp = graph_fingerprint(job.graph)
    graph = _GRAPH_MEMO.get(fp)
    if graph is None:
        graph = job.resolve_graph()
        if isinstance(job.graph, GraphSpec):
            # Each forked worker fills its own copy of this per-process
            # memo, and a miss only costs a redundant resolve_graph():
            # results flow back through the pool, never through the dict.
            # lint: allow=fork-shared-state
            _GRAPH_MEMO[fp] = graph
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


def _execute_indexed(payload: tuple[int, SweepJob]) -> tuple[int, SimStats, float]:
    index, job = payload
    t0 = time.perf_counter()
    stats = execute_job(job)
    return index, stats, time.perf_counter() - t0


def scheduled_order(pending: list[tuple[int, SweepJob]],
                    cost_fn=None) -> list[tuple[int, SweepJob]]:
    """Dispatch order for a worker pool: largest jobs first.

    Sorting by estimated cost (descending, index tie-break) keeps the
    pool busy at the tail of a skewed matrix — the big R-MAT jobs no
    longer land on one straggler worker after the small ones drain.
    ``cost_fn`` defaults to the static :meth:`SweepJob.cost_hint`; pass
    the result of :func:`learned_cost_model` to rank by measured
    wall-seconds instead.  Results are re-ordered by index afterwards,
    so this changes wall-clock only, never output.
    """
    if cost_fn is None:
        cost_fn = SweepJob.cost_hint
    return sorted(pending, key=lambda item: (-cost_fn(item[1]), item[0]))


def learned_cost_model(cache: "ResultCache | None",
                       jobs: list[SweepJob]):
    """Cost estimator preferring cached ``wall_seconds`` provenance.

    Scans the cache's provenance records for the (graph, algorithm)
    families present in ``jobs`` and averages their recorded simulation
    wall times.  Jobs whose family has measurements are ranked by those
    seconds; the rest fall back to the static edge-count hint, rescaled
    into seconds by the median seconds-per-edge of the measured jobs so
    the two populations interleave sensibly.  Returns None when the
    cache holds no usable measurements (callers then keep the static
    ranking) — unknown families degrade to the static hint, never to an
    error.
    """
    if cache is None:
        return None
    families = {job.family() for job in jobs}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for prov in cache.iter_provenance():
        family = prov.get("family")
        seconds = prov.get("wall_seconds")
        if (family in families and isinstance(seconds, (int, float))
                and seconds > 0):
            sums[family] = sums.get(family, 0.0) + float(seconds)
            counts[family] = counts.get(family, 0) + 1
    if not sums:
        return None
    means = {family: sums[family] / counts[family] for family in sums}
    ratios = sorted(means[job.family()] / max(job.cost_hint(), 1.0)
                    for job in jobs if job.family() in means)
    seconds_per_edge = ratios[len(ratios) // 2]

    def cost(job: SweepJob) -> float:
        learned = means.get(job.family())
        if learned is not None:
            return learned
        return job.cost_hint() * seconds_per_edge

    return cost


def resolve_workers(num_workers: int | None) -> int:
    """Normalize a ``--jobs`` request: None/0 means one per CPU."""
    if num_workers is None or num_workers == 0:
        return os.cpu_count() or 1
    if num_workers < 0:
        raise SweepError(f"num_workers must be >= 0 or None, got {num_workers}")
    return num_workers


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

    ``num_workers``: 1 runs in-process (serial), ``None``/0 uses one
    worker per CPU, N > 1 shards across N processes.  ``cache`` may be a
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
                "family": job.family(),
                "tags": {k: repr(v) for k, v in job.tags.items()},
                "config": job.config.to_dict(),
                "wall_seconds": round(seconds, 6),
            })
        if progress is not None:
            progress(done, len(jobs), jobs[index])

    pool = None
    if workers_used > 1:
        workers_used = min(workers_used, len(pending))
        try:
            ctx = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")
            pool = ctx.Pool(processes=workers_used)
        except (OSError, ImportError):   # no /dev/shm, fork denied ...
            workers_used = 1
    # only pool *creation* falls back to serial; errors raised while
    # consuming results (job failures, cache writes, progress callbacks)
    # propagate instead of silently re-running everything in-process
    if pool is not None:
        # learned per-family wall times (from cache provenance) rank the
        # pending jobs better than the static edge estimate on re-runs;
        # skipped when every pending job starts immediately anyway —
        # ordering only matters once jobs outnumber the workers, and the
        # model costs a full cache scan
        cost_fn = (learned_cost_model(cache, [job for _, job in pending])
                   if len(pending) > workers_used else None)
        with pool:
            for index, stats, seconds in pool.imap_unordered(
                    _execute_indexed, scheduled_order(pending, cost_fn),
                    chunksize=1):
                _complete(index, stats, seconds)
    else:
        for index, job in pending:
            t0 = time.perf_counter()
            stats = execute_job(job)
            _complete(index, stats, time.perf_counter() - t0)

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
