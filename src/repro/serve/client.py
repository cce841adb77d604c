"""Blocking client for the ``repro serve`` daemon.

One short-lived connection per request keeps the client stateless: the
request goes out, its replies come back on the same connection — for a
sweep, a ``progress`` event per job before the terminal reply, so no
read waits longer than one job — and the connection closes.

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

    def _request(self, msg, expect: type, on_progress=None):
        """Send one message and read its reply, after any progress
        events (each passed to ``on_progress``); check the reply's type."""
        with self._connect() as sock:
            try:
                sock.sendall(protocol.encode(msg))
            except (BrokenPipeError, ConnectionResetError):
                pass        # refused mid-send: its error reply says why
            with sock.makefile("rb") as stream:
                reply = self._read_reply(stream)
                while isinstance(reply, protocol.Progress):
                    if on_progress is not None:
                        on_progress(reply)
                    reply = self._read_reply(stream)
        if not isinstance(reply, expect):
            raise ServeError(
                f"expected {expect.TYPE!r} reply, got {type(reply).TYPE!r}")
        return reply

    # ------------------------------------------------------------------
    def ping(self) -> "protocol.Pong":
        return self._request(protocol.Ping(), protocol.Pong)

    def status(self) -> "protocol.StatusReply":
        """The daemon's job totals, job threads and uptime."""
        return self._request(protocol.QueryStatus(), protocol.StatusReply)

    def run_sweep(self, jobs: list[SweepJob],
                  on_progress=None) -> "protocol.SweepDone":
        """Sweep ``jobs`` on the daemon and return its terminal reply.

        ``on_progress`` is called with each :class:`protocol.Progress`,
        one per job, as the daemon sends them.
        """
        return self._request(
            protocol.Sweep(jobs=[protocol.job_to_wire(j) for j in jobs]),
            protocol.SweepDone, on_progress)

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
