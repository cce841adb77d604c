"""Blocking client for the ``repro serve`` daemon.

One short-lived connection per request keeps the client stateless: the
daemon owns every ticket, so a submit on one connection can be fetched
on another (or by another process entirely).  Streaming requests keep
their single connection open for the duration and invoke a callback
per progress event.

All methods raise :class:`~repro.errors.ServeError` when the daemon
answers with an ``error`` message, and propagate the codec's
:class:`~repro.errors.ProtocolError` / ``ProtocolVersionError`` on
malformed or incompatible replies.
"""

from __future__ import annotations

import os
import socket

from repro.errors import ServeError
from repro.serve import protocol
from repro.sweep.jobs import SweepJob


class ServeClient:
    """Talk to one daemon socket; safe to share across threads."""

    def __init__(self, socket_path: str | os.PathLike,
                 timeout: float | None = 300.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServeError(
                f"cannot reach daemon at {self.socket_path}: {exc}") from exc
        return sock

    @staticmethod
    def _read_reply(stream):
        line = stream.readline()
        if not line:
            raise ServeError("daemon closed the connection mid-request")
        reply = protocol.decode(line)
        if isinstance(reply, protocol.Error):
            raise ServeError(f"[{reply.code}] {reply.message}")
        return reply

    def _request(self, msg, expect: type):
        """Send one message, read one reply, check its type."""
        with self._connect() as sock:
            sock.sendall(protocol.encode(msg))
            with sock.makefile("rb") as stream:
                reply = self._read_reply(stream)
        if not isinstance(reply, expect):
            raise ServeError(
                f"expected {expect.TYPE!r} reply, got {type(reply).TYPE!r}")
        return reply

    # ------------------------------------------------------------------
    def ping(self) -> "protocol.Pong":
        return self._request(protocol.Ping(), protocol.Pong)

    def submit_sweep(self, jobs: list[SweepJob]) -> str:
        """Enqueue jobs; returns the ticket id immediately."""
        reply = self._request(
            protocol.SubmitSweep(jobs=[protocol.job_to_wire(j) for j in jobs]),
            protocol.Submitted)
        return reply.ticket

    def fetch(self, ticket: str) -> "protocol.SweepDone":
        """Block until a previously submitted ticket completes."""
        return self._request(protocol.FetchSweep(ticket=ticket),
                             protocol.SweepDone)

    def status(self, ticket: str | None = None) -> "protocol.StatusReply":
        return self._request(protocol.QueryStatus(ticket=ticket),
                             protocol.StatusReply)

    def stream(self, ticket: str, on_progress=None) -> "protocol.SweepDone":
        """Follow a ticket's progress events until its terminal reply.

        ``on_progress`` is called with each :class:`protocol.Progress`
        (events recorded before subscribing are replayed first).
        """
        with self._connect() as sock:
            sock.sendall(protocol.encode(
                protocol.StreamProgress(ticket=ticket)))
            with sock.makefile("rb") as stream:
                while True:
                    reply = self._read_reply(stream)
                    if isinstance(reply, protocol.SweepDone):
                        return reply
                    if isinstance(reply, protocol.Progress):
                        if on_progress is not None:
                            on_progress(reply)
                        continue
                    raise ServeError(
                        f"unexpected {type(reply).TYPE!r} in progress stream")

    def run_sweep(self, jobs: list[SweepJob],
                  on_progress=None) -> "protocol.SweepDone":
        """Submit + follow to completion; the one-call sweep path."""
        ticket = self.submit_sweep(jobs)
        if on_progress is None:
            return self.fetch(ticket)
        return self.stream(ticket, on_progress)

    def regen_report(self, results_dir: str | os.PathLike,
                     sections: list[str] | None = None,
                     out: str | os.PathLike | None = None,
                     charts: bool = False,
                     scale: str | None = None) -> "protocol.ReportDone":
        """Regenerate report sections on the daemon's warm workers.

        ``scale`` (a raw ``$REPRO_SCALE`` string) scopes the client's
        dataset scale into the daemon-side job matrices; ``None``
        leaves the daemon's own environment in charge.
        """
        return self._request(
            protocol.RegenReport(
                results_dir=str(results_dir), sections=sections,
                out=None if out is None else str(out), charts=charts,
                scale=scale),
            protocol.ReportDone)

    def reload(self) -> "protocol.Reloaded":
        """Ask the daemon to re-digest the code version (see Reload)."""
        return self._request(protocol.Reload(), protocol.Reloaded)

    def shutdown(self) -> None:
        self._request(protocol.Shutdown(), protocol.ShuttingDown)
