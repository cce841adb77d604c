"""The serve job queue: content-addressed dedup of submitted jobs.

Jobs are identified by their sweep cache key — graph fingerprint,
config hash, engine equivalence class, code version — which gives the
scheduler two tiers of "don't simulate again", checked in order:

1. **result cache** — the entry already exists: a hit, no work;
2. **in-flight dedup** — an identical job (same key) is already
   queued/running for *any* ticket in this daemon: the new job attaches
   to the existing execution's future, so concurrent identical
   submissions provably collapse to one simulation.

Nothing coordinates separate processes sharing the cache directory
(other daemons, ``repro sweep`` runs): entries are written atomically,
so a miss two of them race costs at worst one redundant simulation,
never a torn entry.

Everything else reuses the sweep layer unchanged: owned jobs run on
the daemon's thread pool through :func:`repro.sweep.executor.timed_execute`
in :func:`repro.sweep.executor.scheduled_order` (largest first), and
completed results are written back with the provenance ``run_sweep``
writes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import time
from dataclasses import dataclass, field

from repro.accel.stats import SimStats
from repro.errors import ServeError
from repro.sweep.cache import ResultCache
from repro.sweep.executor import SweepOutcome, scheduled_order, timed_execute
from repro.sweep.jobs import SweepJob


@dataclass
class Ticket:
    """One submission: jobs, live progress, and (eventually) an outcome."""

    id: str
    jobs: list[SweepJob]
    state: str = "queued"             # queued | running | done | failed
    done: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    error: str | None = None
    outcome: SweepOutcome | None = None
    #: (done, total, job description) per finished job, for streaming
    events: list[tuple[int, int, str]] = field(default_factory=list)
    changed: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def total(self) -> int:
        return len(self.jobs)

    def _mark(self) -> None:
        # wake every streamer, then re-arm for the next event
        self.changed.set()
        self.changed = asyncio.Event()


class Scheduler:
    """Owns the ticket table and the in-flight key map; runs owned jobs
    on ``pool``, a thread pool of ``workers`` threads."""

    def __init__(self, cache: ResultCache | None,
                 pool: concurrent.futures.ThreadPoolExecutor, workers: int,
                 version: str) -> None:
        self.cache = cache
        self.pool = pool
        self.workers = workers
        self.version = version
        self.tickets: dict[str, Ticket] = {}
        #: cache key -> future resolving to its SimStats (owner's run)
        self._inflight: dict[str, asyncio.Future] = {}
        self._ticket_ids = itertools.count(1)
        self.executed_total = 0
        self.hits_total = 0
        self.deduped_total = 0

    # ------------------------------------------------------------------
    def submit(self, jobs: list[SweepJob]) -> Ticket:
        """Register a submission and start it; returns immediately."""
        if not jobs:
            raise ServeError("submit requires at least one job")
        ticket = Ticket(id=f"t{next(self._ticket_ids)}", jobs=jobs)
        self.tickets[ticket.id] = ticket
        asyncio.get_running_loop().create_task(self._run_ticket(ticket))
        return ticket

    async def _run_ticket(self, ticket: Ticket) -> None:
        ticket.state = "running"
        try:
            ticket.outcome = await self.run_jobs(ticket.jobs, ticket=ticket)
            ticket.state = "done"
        except Exception as exc:
            # a ticket failure must reach its (possibly not-yet-attached)
            # fetcher as a payload, not kill the daemon loop
            ticket.state = "failed"
            ticket.error = f"{type(exc).__name__}: {exc}"
        ticket._mark()

    async def wait(self, ticket: Ticket) -> SweepOutcome:
        while ticket.state not in ("done", "failed"):
            await ticket.changed.wait()
        if ticket.state == "failed":
            raise ServeError(f"ticket {ticket.id} failed: {ticket.error}")
        assert ticket.outcome is not None
        return ticket.outcome

    # ------------------------------------------------------------------
    async def run_jobs(self, jobs: list[SweepJob],
                       ticket: Ticket | None = None) -> SweepOutcome:
        """Execute a job list with dedup; stats in job order.

        Accounting matches :func:`repro.sweep.executor.run_sweep`:
        duplicate keys inside one submission and attachments to another
        ticket's in-flight execution both count as cache hits (nothing
        was simulated for them); ``extra["deduped"]`` additionally
        reports how many attached to a concurrent execution.
        """
        start = time.monotonic()
        n = len(jobs)
        keys = [job.cache_key(self.version) for job in jobs]
        results: list[SimStats | None] = [None] * n
        job_seconds = [0.0] * n
        hits = executed = deduped = 0

        pending: list[tuple[int, SweepJob]] = []   # this ticket's own runs
        attached: list[tuple[int, asyncio.Future]] = []
        key_owner: dict[str, int] = {}
        for i, (job, key) in enumerate(zip(jobs, keys)):
            if key in key_owner:
                continue                 # filled from the owner's result
            stats = self.cache.get(key) if self.cache is not None else None
            if stats is not None:
                results[i] = stats
                hits += 1
                continue
            running = self._inflight.get(key)
            if running is not None:
                attached.append((i, running))
                deduped += 1
                continue
            key_owner[key] = i
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            pending.append((i, job))

        def _record_done(index: int) -> None:
            if ticket is not None:
                ticket.done += 1
                ticket.events.append(
                    (ticket.done, n, jobs[index].describe()))
                ticket._mark()

        # report cache hits as progress immediately, in job order
        for i in range(n):
            if results[i] is not None:
                _record_done(i)

        async def _own(index: int, job: SweepJob) -> None:
            nonlocal executed
            key = keys[index]
            future = self._inflight[key]
            try:
                stats, seconds = await self._execute_owned(key, job)
            except Exception as exc:
                # attached waiters (this ticket's and other tickets')
                # must see the failure; re-raised below via the future
                self._inflight.pop(key, None)
                if not future.done():
                    future.set_exception(exc)
                    # mark retrieved: with no attached waiters the event
                    # loop would otherwise log "exception never retrieved"
                    future.exception()
                raise
            self._inflight.pop(key, None)
            if not future.done():
                future.set_result(stats)
            results[index] = stats
            job_seconds[index] = seconds
            executed += 1
            self.executed_total += 1
            _record_done(index)

        if pending:
            await asyncio.gather(*(_own(i, job)
                                   for i, job in scheduled_order(pending)))

        for index, future in attached:
            results[index] = await asyncio.shield(future)
            hits += 1
            _record_done(index)

        # duplicate keys inside this submission fill from their owner
        by_key = {keys[i]: results[i] for i in range(n)
                  if results[i] is not None}
        for i in range(n):
            if results[i] is None:
                results[i] = by_key[keys[i]]
                hits += 1
                _record_done(i)

        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise ServeError(f"jobs {missing} produced no result "
                             "(scheduler bug)")

        self.hits_total += hits
        self.deduped_total += deduped
        if ticket is not None:
            ticket.executed = executed
            ticket.cache_hits = hits
            ticket.deduped = deduped
        return SweepOutcome(
            jobs=jobs,
            stats=results,               # type: ignore[arg-type]
            cache_hits=hits,
            cache_misses=n - hits,
            executed=executed,
            workers_used=self.workers,
            wall_seconds=time.monotonic() - start,
            job_seconds=job_seconds,
            extra={"deduped": deduped},
        )

    async def _execute_owned(self, key: str, job: SweepJob):
        """Simulate one cache-missed job on the pool and store its result;
        returns ``(stats, seconds)``."""
        stats, seconds = await asyncio.get_running_loop().run_in_executor(
            self.pool, timed_execute, job)
        if self.cache is not None:
            self.cache.put(key, stats, provenance={
                "job": job.describe(),
                "tags": {k: repr(v) for k, v in job.tags.items()},
                "config": job.config.to_dict(),
                "wall_seconds": round(seconds, 6),
            })
        return stats, seconds
