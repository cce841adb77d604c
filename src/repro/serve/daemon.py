"""The ``repro serve`` daemon: an asyncio unix-socket job-queue server.

Lifecycle
---------
Startup pays every cold cost exactly once: the code-version digest
(:func:`repro.sweep.cache.code_version`), the result-cache handle and
the job thread pool.  From then on the job path touches none of them —
cache keys reuse the resident digest, jobs reuse the process's loaded
graphs.  A :class:`~repro.serve.protocol.Reload` digests the tree
again; when the digest changed, the daemon answers and stops, because
it runs the code it imported at start and must not store that code's
results under the new version's keys.  ``Shutdown`` drains and exits
cleanly.

Connections are handled concurrently; requests on one connection are
handled in order, and each is answered on its connection: a sweep with
a ``progress`` event per job, then ``sweep_done``.  A request that
fails is answered with an ``error`` and the connection stays open; a
request line longer than :data:`~repro.serve.protocol.MAX_LINE_BYTES`
is answered with a ``protocol`` error and the connection is closed.
The daemon keeps no state per request.  Blocking work (regeneration,
the reload digest) runs on a thread so the loop keeps serving;
simulation itself runs on the job pool via the scheduler.  Cache
maintenance is not the daemon's: ``repro cache info|gc --cache-dir``
works on the directory directly, and an entry it deletes is a miss on
the daemon's next lookup.

The report endpoint reuses :func:`repro.bench.regen.regenerate`
verbatim, with the scheduler as its ``sweep`` — section sweeps go
through the same dedup/job-pool path as served sweeps, and a warm cache
regenerates every section with zero simulations.  It also keeps each
section planner's job list resident for the ``$REPRO_SCALE`` in
force (the most recent scale only), so a repeated report neither plans
nor derives a cache key again: the frozen jobs keep their keys.  What changes between
requests, each result's cache entry, is still read through
:meth:`ResultCache.get <repro.sweep.cache.ResultCache.get>`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import os
import signal
import threading
import time

from repro.accel.engine.registry import resolve_engine
from repro.graph.datasets import SCALE_ENV_VAR
from repro.errors import (
    ProtocolError,
    ProtocolVersionError,
    ReproError,
    ServeError,
    SimulationError,
)
from repro.serve import protocol
from repro.serve.scheduler import Scheduler
from repro.sweep import cache as cache_module
from repro.sweep.cache import ResultCache, code_version
from repro.sweep.executor import resolve_workers


@contextlib.contextmanager
def _scoped_env(name: str, value: str | None):
    """Set ``name=value`` for the duration; ``None`` leaves it alone."""
    if value is None:
        yield
        return
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


class ServeDaemon:
    """One warm-cache simulation service bound to a unix socket."""

    def __init__(self, socket_path: str | os.PathLike,
                 cache_dir: str | os.PathLike | None = None,
                 workers: int | None = 1, engine: str | None = None) -> None:
        self.socket_path = str(socket_path)
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.cache_dir = None if self.cache is None else str(self.cache.root)
        self.version = code_version()       # the one cold digest
        #: job threads, as ``--jobs`` counts them (0/None = one per CPU)
        self.workers = resolve_workers(workers)
        self.pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self.scheduler = Scheduler(self.cache, self.pool, self.workers,
                                   self.version, resolve_engine(engine))
        self.started_at = time.monotonic()
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        # regenerations may scope a client-supplied $REPRO_SCALE into
        # the (process-global) environment; serialize them so two
        # concurrent reports cannot see each other's scale
        self._regen_lock = threading.Lock()
        #: $REPRO_SCALE -> {planner: planned jobs}, for the most
        #: recent scale only; read and replaced under _regen_lock
        self._plans: dict[str | None, dict] = {}

    # ------------------------------------------------------------------
    async def run(self, on_started=None) -> None:
        """Bind the socket and serve until a shutdown request.

        On the main thread SIGTERM is a shutdown request too, so a
        service manager's stop also closes the pool and the socket.
        """
        self.loop = asyncio.get_running_loop()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)     # stale socket from a crash
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path,
            limit=protocol.MAX_LINE_BYTES)
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            self.loop.add_signal_handler(signal.SIGTERM, self.request_stop)
        if on_started is not None:
            on_started()
        try:
            await self._stop.wait()
        finally:
            if on_main:
                self.loop.remove_signal_handler(signal.SIGTERM)
            self._server.close()
            await self._server.wait_closed()
            self.pool.shutdown(wait=True, cancel_futures=True)
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)

    def request_stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:      # over the reader's limit
                    await self._send(writer, protocol.Error(
                        code="protocol",
                        message="request line longer than "
                                f"{protocol.MAX_LINE_BYTES} bytes"))
                    break               # the rest of it is still coming
                if not line:
                    break
                try:
                    request = protocol.decode(line)
                except ProtocolVersionError as exc:
                    await self._send(writer, protocol.Error(
                        code="protocol-version", message=str(exc)))
                    break               # incompatible peer: hang up
                except ProtocolError as exc:
                    await self._send(writer, protocol.Error(
                        code="protocol", message=str(exc)))
                    continue
                try:
                    done = await self._dispatch(request, writer)
                except (ConnectionResetError, BrokenPipeError):
                    raise
                except ReproError as exc:
                    # a job that cannot simulate was still well formed
                    code = ("failed" if isinstance(exc, SimulationError)
                            else "bad-request")
                    await self._send(writer, protocol.Error(
                        code=code, message=str(exc)))
                    continue
                except Exception as exc:
                    await self._send(writer, protocol.Error(
                        code="failed",
                        message=f"{type(exc).__name__}: {exc}"))
                    continue
                if done:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass                        # client went away mid-reply
        finally:
            with contextlib.suppress(OSError):
                writer.close()

    async def _send(self, writer: asyncio.StreamWriter, msg) -> None:
        writer.write(protocol.encode(msg))
        await writer.drain()

    # ------------------------------------------------------------------
    async def _dispatch(self, request, writer) -> bool:
        """Handle one request; True means close this connection."""
        if isinstance(request, protocol.Ping):
            await self._send(writer, protocol.Pong(
                protocol=protocol.PROTOCOL_VERSION,
                code_version=self.version))

        elif isinstance(request, protocol.Sweep):
            jobs = [protocol.job_from_wire(j) for j in request.jobs]

            def progress(done, total, job):
                # not drained: the transport sends it now, or with the
                # terminal reply's drain; a gone client gets none
                if not writer.is_closing():
                    writer.write(protocol.encode(protocol.Progress(
                        done=done, total=total, job=job.describe())))

            outcome = await self.scheduler.run_jobs(jobs, progress)
            await self._send(writer, protocol.SweepDone(
                stats=[s.to_dict() for s in outcome.stats],
                cache_hits=outcome.cache_hits,
                cache_misses=outcome.cache_misses,
                executed=outcome.executed,
                deduped=outcome.deduped,
                workers_used=outcome.workers_used,
                wall_seconds=round(outcome.wall_seconds, 6),
                job_seconds=[round(s, 6) for s in outcome.job_seconds]))

        elif isinstance(request, protocol.QueryStatus):
            await self._send(writer, protocol.StatusReply(
                executed=self.scheduler.executed_total,
                cache_hits=self.scheduler.hits_total,
                deduped=self.scheduler.deduped_total,
                workers=self.workers,
                uptime_seconds=round(time.monotonic() - self.started_at, 3)))

        elif isinstance(request, protocol.RegenReport):
            reply = await self._regenerate(request)
            await self._send(writer, reply)

        elif isinstance(request, protocol.Reload):
            # digested apart from the process-wide code_version() memo,
            # which an embedding process keys its own sweeps with
            digest = await asyncio.to_thread(
                cache_module._digest_source_tree)
            changed = digest != self.version
            await self._send(writer, protocol.Reloaded(
                code_version=digest, changed=changed))
            if changed:
                # this process runs the code it imported at start: a job
                # run now would store that code's results under the new
                # digest's keys, so the daemon stops for a restart
                self.request_stop()
                return True

        elif isinstance(request, protocol.Shutdown):
            await self._send(writer, protocol.ShuttingDown())
            self.request_stop()
            return True

        else:
            # a *response* type sent as a request — valid wire, wrong turn
            raise ServeError(
                f"unexpected message type {type(request).TYPE!r}")
        return False

    # ------------------------------------------------------------------
    async def _regenerate(self, request: "protocol.RegenReport"):
        from repro.bench.regen import regenerate

        loop = asyncio.get_running_loop()

        def sweep(jobs):
            # regenerate() runs on a thread; its section sweeps hop back
            # into the loop so they share the scheduler's dedup
            return asyncio.run_coroutine_threadsafe(
                self.scheduler.run_jobs(jobs), loop).result()

        def regen():
            # the figure job matrices read $REPRO_SCALE at build time;
            # a client-supplied scale must govern this regeneration so
            # remote reports hit the cache entries local runs wrote
            with self._regen_lock, _scoped_env(SCALE_ENV_VAR,
                                               request.scale):
                scale = os.environ.get(SCALE_ENV_VAR)
                if scale not in self._plans:
                    self._plans = {scale: {}}
                return regenerate(
                    request.results_dir,
                    sections=request.sections,
                    sweep=sweep,
                    cache_dir=self.cache_dir,
                    report_path=request.out,
                    charts=request.charts,
                    plans=self._plans[scale],
                )

        report = await asyncio.to_thread(regen)
        return protocol.ReportDone(
            results_dir=report.results_dir,
            report_path=report.report_path,
            provenance_path=report.provenance_path,
            cache_dir=report.cache_dir,
            code_version=report.code_version,
            sections=report.sections,
            wall_seconds=round(report.wall_seconds, 6))


# ----------------------------------------------------------------------
# Embedding helper (tests, CI, notebooks)
# ----------------------------------------------------------------------

@contextlib.contextmanager
def serve_in_thread(socket_path: str | os.PathLike,
                    cache_dir: str | os.PathLike | None = None,
                    workers: int | None = 1, engine: str | None = None,
                    start_timeout: float = 10.0):
    """Run a daemon on a background thread; yields the daemon.

    The context manager guarantees the socket is accepting before the
    body runs and that the daemon is stopped (and its thread joined)
    on exit, however the body ends.
    """
    daemon = ServeDaemon(socket_path, cache_dir=cache_dir,
                         workers=workers, engine=engine)
    started = threading.Event()
    loop_holder: dict[str, asyncio.AbstractEventLoop] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(daemon.run(on_started=started.set))
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(start_timeout):
        raise ServeError(f"daemon failed to bind {socket_path} "
                         f"within {start_timeout}s")
    try:
        yield daemon
    finally:
        loop = loop_holder.get("loop")
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(daemon.request_stop)
        thread.join(timeout=start_timeout)
