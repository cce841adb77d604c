"""The public entry point: one ``Session`` facade over simulate/sweep/report.

Everything the CLI can do is reachable through three calls on a
:class:`Session`:

* :meth:`Session.simulate` — one job → one
  :class:`~repro.accel.stats.SimStats`;
* :meth:`Session.sweep` — a job list → a
  :class:`~repro.sweep.executor.SweepOutcome` (stats in job order plus
  cache accounting);
* :meth:`Session.report` — regenerate report sections into a results
  directory → a :class:`~repro.bench.regen.RegenReport`.

Two implementations share that interface:

* :class:`LocalSession` executes in-process through
  :func:`~repro.sweep.executor.run_sweep` /
  :func:`~repro.bench.regen.regenerate` — what the CLI's ``sweep`` and
  ``report`` subcommands use;
* :class:`RemoteSession` speaks the serve protocol to a ``repro serve``
  daemon, which keeps graphs and the code-version digest warm across
  calls.

The two are differentially tested: the same jobs through either session
produce byte-identical ``SimStats``.  :func:`session` picks the right
implementation from its arguments (a ``socket_path`` means remote).

Progress callbacks are normalized across implementations:
``on_progress(done, total, description)`` with a plain-string job
description, regardless of which side executes.
"""

from __future__ import annotations

import abc
import os

from repro.accel.stats import SimStats
from repro.errors import ServeError
from repro.sweep.executor import SweepOutcome
from repro.sweep.jobs import SweepJob

__all__ = [
    "LocalSession",
    "RemoteSession",
    "Session",
    "session",
]


class Session(abc.ABC):
    """Abstract simulate/sweep/report surface; use as a context manager."""

    closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise ServeError(f"{type(self).__name__} is closed")

    # ------------------------------------------------------------------
    def simulate(self, job: SweepJob) -> SimStats:
        """Run (or fetch from cache) one job; returns its stats."""
        return self.sweep([job]).stats[0]

    @abc.abstractmethod
    def sweep(self, jobs: list[SweepJob], on_progress=None) -> SweepOutcome:
        """Execute a job list; stats in job order plus accounting.

        ``on_progress``, if given, is called as
        ``on_progress(done, total, description)`` per finished job.
        """

    @abc.abstractmethod
    def report(self, results_dir: str | os.PathLike, sections=None,
               out: str | os.PathLike | None = None, charts: bool = False,
               on_progress=None):
        """Regenerate report sections; returns a RegenReport.

        ``on_progress``, if given, is called with each finished
        section's accounting record (local execution only — a remote
        daemon does not stream report progress).
        """

    def close(self) -> None:
        """Release session resources; the session is unusable afterwards."""
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalSession(Session):
    """In-process execution: the facade over run_sweep/regenerate.

    ``cache_dir`` enables the content-addressed result cache,
    ``num_workers`` runs sweeps on that many threads (1 = the caller's
    thread, None/0 = one per CPU), ``engine`` runs every job the
    session simulates, report sections' jobs included: a report sweeps
    through :meth:`sweep`.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 num_workers: int | None = 1,
                 engine: str | None = None) -> None:
        from repro.sweep.cache import ResultCache
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.num_workers = num_workers
        self.engine = engine

    def sweep(self, jobs: list[SweepJob], on_progress=None) -> SweepOutcome:
        from repro.sweep.executor import run_sweep
        self._check_open()
        progress = None
        if on_progress is not None:
            def progress(done, total, job):
                on_progress(done, total, job.describe())
        return run_sweep(list(jobs), num_workers=self.num_workers,
                         cache=self.cache, progress=progress,
                         engine=self.engine)

    def report(self, results_dir: str | os.PathLike, sections=None,
               out: str | os.PathLike | None = None, charts: bool = False,
               on_progress=None):
        from repro.bench.regen import regenerate
        self._check_open()
        cache_dir = None if self.cache is None else str(self.cache.root)
        return regenerate(str(results_dir), sections=sections,
                          sweep=self.sweep, cache_dir=cache_dir,
                          report_path=None if out is None else str(out),
                          progress=on_progress, charts=charts)


class RemoteSession(Session):
    """Serve-protocol execution against a running ``repro serve`` daemon.

    The daemon owns the cache and the job threads; this side only ships
    jobs over the socket and rehydrates the returned stats dicts into
    :class:`SimStats` — which is why Local/Remote results can be (and
    are, in the test suite) compared for byte identity.
    """

    def __init__(self, socket_path: str | os.PathLike,
                 timeout: float | None = 300.0) -> None:
        from repro.serve.client import ServeClient
        self.client = ServeClient(socket_path, timeout=timeout)

    def ping(self):
        """Daemon liveness + identity (protocol, code version)."""
        self._check_open()
        return self.client.ping()

    def sweep(self, jobs: list[SweepJob], on_progress=None) -> SweepOutcome:
        self._check_open()
        jobs = list(jobs)
        callback = None
        if on_progress is not None:
            def callback(event):
                on_progress(event.done, event.total, event.job)
        done = self.client.run_sweep(jobs, on_progress=callback)
        return SweepOutcome(
            jobs=jobs,
            stats=[SimStats.from_dict(d) for d in done.stats],
            cache_hits=done.cache_hits,
            cache_misses=done.cache_misses,
            executed=done.executed,
            workers_used=done.workers_used,
            wall_seconds=done.wall_seconds,
            job_seconds=list(done.job_seconds),
            deduped=done.deduped,
        )

    def report(self, results_dir: str | os.PathLike, sections=None,
               out: str | os.PathLike | None = None, charts: bool = False,
               on_progress=None):
        from repro.bench.regen import RegenReport
        from repro.graph.datasets import SCALE_ENV_VAR
        self._check_open()
        # the job matrices build daemon-side; ship this side's scale so
        # a remote report matches what a local run here would produce
        reply = self.client.regen_report(results_dir, sections=sections,
                                         out=out, charts=charts,
                                         scale=os.environ.get(SCALE_ENV_VAR))
        return RegenReport(
            results_dir=reply.results_dir,
            report_path=reply.report_path,
            provenance_path=reply.provenance_path,
            cache_dir=reply.cache_dir,
            code_version=reply.code_version,
            sections=list(reply.sections),
            wall_seconds=reply.wall_seconds,
        )


def session(socket_path: str | os.PathLike | None = None, *,
            cache_dir: str | os.PathLike | None = None,
            num_workers: int | None = 1,
            engine: str | None = None,
            timeout: float | None = 300.0) -> Session:
    """Open the right session for the arguments.

    A ``socket_path`` selects :class:`RemoteSession` (the daemon owns
    cache and workers, so ``cache_dir``/``num_workers``/``engine`` must
    be left unset); otherwise a :class:`LocalSession` with the given
    execution options.
    """
    if socket_path is not None:
        if cache_dir is not None or engine is not None or num_workers != 1:
            raise ServeError(
                "remote sessions take execution options from the daemon; "
                "cache_dir/num_workers/engine apply to local sessions only")
        return RemoteSession(socket_path, timeout=timeout)
    return LocalSession(cache_dir=cache_dir, num_workers=num_workers,
                        engine=engine)
