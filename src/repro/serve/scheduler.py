"""The serve scheduler: one sweep's books, shared runs across requests.

Every job list the daemon runs, a served sweep or a report section,
keeps its books in a :class:`~repro.sweep.executor.SweepLedger`, as
:func:`~repro.sweep.executor.run_sweep` does: cache hits are filled,
each distinct missed key is simulated once, fresh results are stored
with their provenance.  What the scheduler adds is the second tier of
"don't simulate again": a missed key that another request is already
simulating **attaches** to that run's future, so concurrent identical
requests provably collapse to one simulation.

Nothing coordinates separate processes sharing the cache directory
(other daemons, ``repro sweep`` runs): entries are written atomically,
so a miss two of them race costs at worst one redundant simulation,
never a torn entry.

Runs go to the daemon's thread pool through
:func:`repro.sweep.executor.timed_execute`, in
:func:`repro.sweep.executor.scheduled_order` (largest first).
"""

from __future__ import annotations

import asyncio
import concurrent.futures

from repro.sweep.cache import ResultCache
from repro.sweep.executor import (
    SweepLedger,
    SweepOutcome,
    scheduled_order,
    timed_execute,
)
from repro.sweep.jobs import SweepJob


class Scheduler:
    """Runs job lists on ``pool``, a thread pool of ``workers`` threads,
    and keeps the in-flight key map."""

    def __init__(self, cache: ResultCache | None,
                 pool: concurrent.futures.ThreadPoolExecutor, workers: int,
                 version: str) -> None:
        self.cache = cache
        self.pool = pool
        self.workers = workers
        self.version = version
        #: cache key -> future of its ``(stats, seconds)``, while it runs
        self._inflight: dict[str, asyncio.Future] = {}
        self.executed_total = 0
        self.hits_total = 0
        self.deduped_total = 0

    def submit(self, key: str, job: SweepJob) -> tuple[asyncio.Future, bool]:
        """The future of ``key``'s ``(stats, seconds)``, and whether this
        call started it: a new run of ``job`` on the pool, or the run
        another request started for the same key."""
        running = self._inflight.get(key)
        if running is not None:
            return running, False
        future = asyncio.get_running_loop().run_in_executor(
            self.pool, timed_execute, job)
        self._inflight[key] = future
        return future, True

    async def run_jobs(self, jobs: list[SweepJob],
                       progress=None) -> SweepOutcome:
        """Execute a job list with dedup; stats in job order.

        Accounting matches :func:`repro.sweep.executor.run_sweep`, plus
        ``deduped``: the jobs that attached to another request's run,
        counted among the cache hits too.  ``progress`` is the ledger's
        callback.  A failed run fails every request attached to it,
        once the request's other runs have ended.
        """
        ledger = SweepLedger(jobs, self.cache, self.version, progress)

        async def settle(index: int, future: asyncio.Future,
                         started: bool) -> None:
            key = ledger.keys[index]
            try:
                # shielded: a request that goes away leaves the run to
                # the requests attached to it
                stats, seconds = await asyncio.shield(future)
            finally:
                if started:
                    self._inflight.pop(key, None)
            if started:
                ledger.complete(index, stats, seconds)
            else:
                ledger.attach(index, stats)

        runs = [(index, *self.submit(ledger.keys[index], job))
                for index, job in scheduled_order(ledger.pending)]
        results = await asyncio.gather(*(settle(*run) for run in runs),
                                       return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        outcome = ledger.outcome(self.workers)
        self.executed_total += outcome.executed
        self.hits_total += outcome.cache_hits
        self.deduped_total += outcome.deduped
        return outcome
