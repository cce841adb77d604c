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
handled in order.  Blocking work (regeneration, cache GC) runs on a
thread so the loop keeps serving; simulation itself runs on the job
pool via the scheduler.

The report endpoint reuses :func:`repro.bench.regen.regenerate`
verbatim, but injects the scheduler as the sweep ``runner`` — section
sweeps go through the same dedup/claims/job-pool path as
directly submitted jobs, and a warm cache regenerates every section
with zero simulations.  It also keeps each section sweep's planned job
list resident for the ``$REPRO_SCALE`` in force (the most recent scale
only), so a repeated report neither plans nor derives a cache key
again: the frozen jobs keep their keys.  What changes between
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

from repro.accel.engine import ENGINE_ENV_VAR
from repro.graph.datasets import SCALE_ENV_VAR
from repro.errors import (
    ProtocolError,
    ProtocolVersionError,
    ReproError,
    ServeError,
)
from repro.serve import protocol
from repro.serve.scheduler import Scheduler, Ticket
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
        if engine is not None:
            # jobs and regen planners read the environment; a
            # daemon-wide engine choice travels the same way the CLI's
            # --engine does (cache keys are engine-class independent)
            os.environ[ENGINE_ENV_VAR] = engine
        self.version = code_version()       # the one cold digest
        #: job threads, as ``--jobs`` counts them (0/None = one per CPU)
        self.workers = resolve_workers(workers)
        self.pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self.scheduler = Scheduler(self.cache, self.pool, self.workers,
                                   self.version)
        self.started_at = time.monotonic()
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        # regenerations may scope a client-supplied $REPRO_SCALE into
        # the (process-global) environment; serialize them so two
        # concurrent reports cannot see each other's scale
        self._regen_lock = threading.Lock()
        #: $REPRO_SCALE -> {sweep name: planned jobs}, for the most
        #: recent scale only; read and replaced under _regen_lock
        self._plans: dict[str | None, dict[str, list]] = {}

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
            self._handle_connection, path=self.socket_path)
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
                line = await reader.readline()
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
                except ReproError as exc:
                    await self._send(writer, protocol.Error(
                        code="bad-request", message=str(exc)))
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

        elif isinstance(request, protocol.SubmitSweep):
            jobs = [protocol.job_from_wire(j) for j in request.jobs]
            ticket = self.scheduler.submit(jobs)
            await self._send(writer, protocol.Submitted(
                ticket=ticket.id, jobs=len(jobs)))

        elif isinstance(request, protocol.QueryStatus):
            await self._send(writer, self._status_reply(request.ticket))

        elif isinstance(request, protocol.FetchSweep):
            ticket = self._ticket(request.ticket)
            outcome = await self.scheduler.wait(ticket)
            await self._send(writer, self._sweep_done(ticket, outcome))

        elif isinstance(request, protocol.StreamProgress):
            ticket = self._ticket(request.ticket)
            sent = 0
            while True:
                while sent < len(ticket.events):
                    done, total, job = ticket.events[sent]
                    sent += 1
                    await self._send(writer, protocol.Progress(
                        ticket=ticket.id, done=done, total=total, job=job))
                if ticket.state in ("done", "failed"):
                    break
                await ticket.changed.wait()
            outcome = await self.scheduler.wait(ticket)
            await self._send(writer, self._sweep_done(ticket, outcome))

        elif isinstance(request, protocol.RegenReport):
            reply = await self._regenerate(request)
            await self._send(writer, reply)

        elif isinstance(request, protocol.CacheInfo):
            if self.cache is None:
                await self._send(writer, protocol.CacheInfoReply(
                    cache_dir=None, code_version=self.version))
            else:
                entries = await asyncio.to_thread(self.cache.entries)
                await self._send(writer, protocol.CacheInfoReply(
                    cache_dir=str(self.cache.root),
                    entries=len(entries),
                    total_bytes=sum(e.size_bytes for e in entries),
                    code_version=self.version,
                    hits=self.cache.hits, misses=self.cache.misses))

        elif isinstance(request, protocol.CacheGc):
            if self.cache is None:
                raise ServeError("daemon runs without a result cache")
            stats = await asyncio.to_thread(
                self.cache.gc, request.max_age_seconds, request.max_bytes,
                None, request.dry_run)
            await self._send(writer, protocol.CacheGcReply(
                scanned=stats.scanned, removed=stats.removed,
                bytes_freed=stats.bytes_freed, bytes_kept=stats.bytes_kept,
                dry_run=request.dry_run))

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
    def _ticket(self, ticket_id: str) -> Ticket:
        ticket = self.scheduler.tickets.get(ticket_id)
        if ticket is None:
            raise ServeError(f"unknown ticket {ticket_id!r}")
        return ticket

    def _status_reply(self, ticket_id: str | None) -> "protocol.StatusReply":
        if ticket_id is None:
            return protocol.StatusReply(
                state="serving",
                executed=self.scheduler.executed_total,
                cache_hits=self.scheduler.hits_total,
                deduped=self.scheduler.deduped_total,
                tickets=len(self.scheduler.tickets),
                workers=self.workers,
                uptime_seconds=round(time.monotonic() - self.started_at, 3))
        ticket = self._ticket(ticket_id)
        return protocol.StatusReply(
            state=ticket.state, done=ticket.done, total=ticket.total,
            executed=ticket.executed, cache_hits=ticket.cache_hits,
            deduped=ticket.deduped, workers=self.workers)

    def _sweep_done(self, ticket: Ticket, outcome) -> "protocol.SweepDone":
        return protocol.SweepDone(
            ticket=ticket.id,
            stats=[s.to_dict() for s in outcome.stats],
            cache_hits=outcome.cache_hits,
            cache_misses=outcome.cache_misses,
            executed=outcome.executed,
            deduped=outcome.extra.get("deduped", 0),
            workers_used=outcome.workers_used,
            wall_seconds=round(outcome.wall_seconds, 6),
            job_seconds=[round(s, 6) for s in outcome.job_seconds])

    async def _regenerate(self, request: "protocol.RegenReport"):
        from repro.bench.regen import regenerate

        loop = asyncio.get_running_loop()

        def runner(jobs, num_workers=None, cache=None, progress=None):
            # regenerate() runs on a thread; its section sweeps hop back
            # into the loop so they share the scheduler's dedup + claims
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
                    cache=self.cache,
                    report_path=request.out,
                    charts=request.charts,
                    runner=runner,
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
