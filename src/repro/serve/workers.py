"""The daemon's resident execution pool.

The whole point of ``repro serve`` is that workers survive across
jobs: each worker process resolves a :class:`~repro.sweep.jobs.GraphSpec`
once (the executor's per-process ``_GRAPH_MEMO``) and then reuses the
loaded CSR for every later job naming the same spec — R-MAT generation
is the dominant cold-start cost of small sweeps.

Two modes behind one interface:

* ``workers >= 1`` — a :class:`concurrent.futures.ProcessPoolExecutor`
  of N long-lived processes (fork context when available), each primed
  with the code-version digest at spawn so no worker ever hashes the
  source tree on the job path.
* ``workers == 0`` (or pool creation fails — no ``/dev/shm``, fork
  denied) — inline mode: jobs run on a single daemon-side thread.  The
  graph memo is process-global, so warmth is preserved; this is also
  the mode tests use to intercept execution deterministically.

``run(job)`` returns an :class:`asyncio.Future` resolving to
``(SimStats, wall_seconds)``; the pool never touches the cache — claim
handling and write-back belong to the scheduler.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import multiprocessing
import signal
import time

from repro.errors import ServeError
from repro.sweep.cache import code_version
from repro.sweep.jobs import SweepJob


def _prime_worker() -> None:
    """Worker-process initializer: pay one-time costs off the job path."""
    # a forked worker inherits the daemon's SIGTERM handler and asyncio
    # wakeup fd: without the default back, a SIGTERM meant for this
    # worker would stop the daemon instead
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    code_version()


def _timed_execute(job: SweepJob):
    # late import through the module (not `from ... import execute_job`)
    # so monkeypatched executors are honoured in inline/thread mode
    from repro.sweep import executor
    t0 = time.perf_counter()
    stats = executor.execute_job(job)
    return stats, time.perf_counter() - t0


class WorkerPool:
    """N resident worker processes (or one inline thread) running jobs."""

    def __init__(self, workers: int = 0) -> None:
        if workers < 0:
            raise ServeError(f"workers must be >= 0, got {workers}")
        self.requested = workers
        self._pool: concurrent.futures.Executor | None = None
        self.size = 1
        self.mode = "inline"
        self._start()

    def _start(self) -> None:
        if self.requested >= 1:
            try:
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn")
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.requested, mp_context=ctx,
                    initializer=_prime_worker)
                self.size = self.requested
                self.mode = "process"
                return
            except (OSError, ImportError):
                pass                      # fall through to inline mode
        # inline: one thread keeps the daemon loop responsive while a
        # job simulates; the graph memo lives in this process
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-worker")
        self.size = 1
        self.mode = "inline"

    def run(self, job: SweepJob,
            loop: asyncio.AbstractEventLoop) -> "asyncio.Future":
        """Dispatch one job; resolves to ``(SimStats, wall_seconds)``."""
        if self._pool is None:
            raise ServeError("worker pool is closed")
        return loop.run_in_executor(self._pool, _timed_execute, job)

    def recycle(self) -> None:
        """Tear down and respawn the workers (the ``reload`` request).

        Resident graph memos and any state spawned under the previous
        code generation die with the old processes; inline mode clears
        the in-process memo explicitly for the same effect.
        """
        self.close()
        if self.mode == "inline":
            from repro.sweep import executor
            executor._GRAPH_MEMO.clear()
        self._start()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
