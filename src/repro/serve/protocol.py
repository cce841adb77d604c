"""Serve-protocol messages: versioned JSON over a stream socket.

Wire format
-----------
One message per line: a UTF-8 JSON object terminated by ``\\n``.  Every
message carries ``{"v": <int>, "type": "<name>", ...}``; the codec
rejects unknown types and — before anything else — any ``v`` other than
:data:`PROTOCOL_VERSION`, so an old client talking to a new daemon (or
vice versa) fails with one crisp error instead of a field mismatch
three requests later.

Messages are frozen dataclasses; the registry maps ``type`` strings to
classes, and :func:`encode` / :func:`decode` are the only (de)serializers
— both the daemon and the client import them, which is what keeps the
two ends structurally incapable of drifting apart.

Each request is answered on the connection that sent it.  A ``sweep``
is answered with a ``progress`` event per job, then ``sweep_done``;
every other request with one reply.  Any request may be answered with an
``error`` instead.  A line may be up to :data:`MAX_LINE_BYTES` long.

Jobs on the wire
----------------
:func:`job_to_wire` / :func:`job_from_wire` round-trip a
:class:`~repro.sweep.jobs.SweepJob` exactly: symbolic
:class:`~repro.sweep.jobs.GraphSpec` references travel as their three
fields, inline :class:`~repro.graph.csr.CSRGraph` payloads as base64
int64 arrays, the one wire form whose codec imports numpy.  The
round-trip preserves the job's cache key (asserted by the protocol
test suite), which the scheduler's dedup relies on.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.accel.config import AcceleratorConfig
from repro.errors import ProtocolError, ProtocolVersionError
from repro.sweep.jobs import GraphSpec, SweepJob

if TYPE_CHECKING:
    import numpy as np

    from repro.graph.csr import CSRGraph

#: Bumped on any incompatible wire change.  Version negotiation is
#: deliberately absent: both ends ship in one repo, so a mismatch means
#: a stale daemon — the right fix is a reload/restart, not compat glue.
PROTOCOL_VERSION = 7

#: The longest line a daemon reads.  One job on the largest graph the
#: design holds (2**19 vertices, 2**22 edges) travels as about 95 MB of
#: base64 arrays; a longer line is refused with a ``protocol`` error.
MAX_LINE_BYTES = 128 * 1024 * 1024

_MESSAGE_TYPES: dict[str, type] = {}


def message(type_name: str):
    """Register a frozen dataclass as a wire message."""
    def register(cls):
        cls = dataclass(frozen=True)(cls)
        cls.TYPE = type_name
        cls.FIELDS = tuple(f.name for f in dataclasses.fields(cls))
        if type_name in _MESSAGE_TYPES:
            raise ProtocolError(f"duplicate message type {type_name!r}")
        _MESSAGE_TYPES[type_name] = cls
        return cls
    return register


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

@message("ping")
class Ping:
    """Liveness probe; the daemon answers :class:`Pong`."""


@message("sweep")
class Sweep:
    """Run a job list; answered with one :class:`Progress` per job (the
    cache hits first, then each job as it finishes), then
    :class:`SweepDone`.

    ``jobs`` is a list of wire-form job dicts (:func:`job_to_wire`).
    """

    jobs: list = field(default_factory=list)


@message("query_status")
class QueryStatus:
    """The daemon's lifetime totals; answered with :class:`StatusReply`."""


@message("report")
class RegenReport:
    """Regenerate report sections into ``results_dir`` on the daemon host.

    Mirrors :func:`repro.bench.regen.regenerate`, but the section
    sweeps run on the daemon's job threads against its shared
    cache — a warm cache regenerates everything without one simulation.

    ``scale`` carries the client's ``$REPRO_SCALE`` (raw string): the
    figure job matrices are built daemon-side, so without it a remote
    regeneration would silently use the daemon's ambient scale and
    miss the cache entries a local run at the client's scale wrote.
    ``None`` leaves the daemon's own environment in charge.
    """

    results_dir: str
    sections: list | None = None
    out: str | None = None
    charts: bool = False
    scale: str | None = None


@message("reload")
class Reload:
    """Re-digest the code version; stop the daemon if it changed.

    The code-version digest is computed at startup and **never** on the
    job path.  A daemon runs the code it imported at start, so when the
    tree digests differently it answers ``changed=True`` and stops:
    editing the simulator takes effect with a restart.
    """


@message("shutdown")
class Shutdown:
    """Drain and stop the daemon; answered with :class:`ShuttingDown`."""


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

@message("pong")
class Pong:
    protocol: int = PROTOCOL_VERSION
    code_version: str = ""


@message("status_reply")
class StatusReply:
    """Job totals over the daemon's life, its job threads and uptime."""

    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    workers: int = 0
    uptime_seconds: float = 0.0


@message("progress")
class Progress:
    """One finished job of a sweep: ``done`` of ``total``."""

    done: int
    total: int
    job: str = ""


@message("sweep_done")
class SweepDone:
    """Terminal reply of a sweep: stats dicts in job order + accounting."""

    stats: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    deduped: int = 0
    workers_used: int = 1
    wall_seconds: float = 0.0
    job_seconds: list = field(default_factory=list)


@message("report_done")
class ReportDone:
    """Terminal reply of a report regeneration (RegenReport fields)."""

    results_dir: str
    report_path: str
    provenance_path: str
    cache_dir: str | None = None
    code_version: str = ""
    sections: list = field(default_factory=list)
    wall_seconds: float = 0.0


@message("reloaded")
class Reloaded:
    code_version: str
    changed: bool


@message("shutting_down")
class ShuttingDown:
    pass


@message("error")
class Error:
    """Any request can be answered with this instead of its reply type."""

    code: str                       # "protocol" | "protocol-version" | "bad-request" | "failed"
    message: str


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------

def encode(msg) -> bytes:
    """One wire line (JSON + ``\\n``) for a registered message.

    Fields go out as they are, without ``dataclasses.asdict``'s deep
    copy: every message already holds JSON-ready values.
    """
    type_name = getattr(type(msg), "TYPE", None)
    if type_name not in _MESSAGE_TYPES:
        raise ProtocolError(f"not a wire message: {msg!r}")
    payload = {"v": PROTOCOL_VERSION, "type": type_name}
    for name in msg.FIELDS:
        payload[name] = getattr(msg, name)
    return (json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode(line: bytes | str):
    """Parse one wire line back into its message dataclass.

    Raises :class:`~repro.errors.ProtocolVersionError` on a version
    mismatch (checked before the type, so incompatible peers always get
    the version diagnosis) and :class:`~repro.errors.ProtocolError` on
    malformed JSON, unknown types or field mismatches.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed wire line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"wire line is not an object: {payload!r}")
    version = payload.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this end speaks {PROTOCOL_VERSION}")
    type_name = payload.pop("type", None)
    cls = _MESSAGE_TYPES.get(type_name)
    if cls is None:
        raise ProtocolError(f"unknown message type {type_name!r}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ProtocolError(
            f"bad fields for message {type_name!r}: {exc}") from exc


# ----------------------------------------------------------------------
# SweepJob wire form
# ----------------------------------------------------------------------

def _array_to_wire(arr: np.ndarray) -> str:
    import numpy as np
    return base64.b64encode(np.ascontiguousarray(arr, dtype=np.int64)
                            .tobytes()).decode("ascii")


def _array_from_wire(text: str) -> np.ndarray:
    import numpy as np
    return np.frombuffer(base64.b64decode(text), dtype=np.int64)


def job_to_wire(job: SweepJob) -> dict:
    """JSON-serializable form of one job (cache-key preserving)."""
    if isinstance(job.graph, GraphSpec):
        graph: dict[str, Any] = {"kind": "spec", "key": job.graph.key,
                                 "scale": job.graph.scale,
                                 "seed": job.graph.seed}
    else:
        graph = {"kind": "csr", "name": job.graph.name,
                 "offsets": _array_to_wire(job.graph.offsets),
                 "dst": _array_to_wire(job.graph.dst),
                 "weights": _array_to_wire(job.graph.weights)}
    return {
        "graph": graph,
        "algorithm": job.algorithm,
        "algorithm_kwargs": dict(job.algorithm_kwargs),
        "config": job.config.to_dict(),
        "source": job.source,
        "max_iterations": job.max_iterations,
        "num_slices": job.num_slices,
        "offchip_bytes_per_cycle": job.offchip_bytes_per_cycle,
        "tags": dict(job.tags),
    }


def job_from_wire(data: dict) -> SweepJob:
    """Rebuild a :class:`SweepJob` from its wire form."""
    if not isinstance(data, dict):
        raise ProtocolError(f"wire job is not an object: {data!r}")
    try:
        graph_data = data["graph"]
        kind = graph_data["kind"]
        if kind == "spec":
            graph: GraphSpec | CSRGraph = GraphSpec(
                key=graph_data["key"], scale=graph_data["scale"],
                seed=graph_data["seed"])
        elif kind == "csr":
            from repro.graph.csr import CSRGraph
            graph = CSRGraph(
                offsets=_array_from_wire(graph_data["offsets"]),
                dst=_array_from_wire(graph_data["dst"]),
                weights=_array_from_wire(graph_data["weights"]),
                name=graph_data["name"])
        else:
            raise ProtocolError(f"unknown graph kind {kind!r}")
        return SweepJob(
            graph=graph,
            algorithm=data["algorithm"],
            algorithm_kwargs=dict(data.get("algorithm_kwargs") or {}),
            config=AcceleratorConfig(**data["config"]),
            source=data.get("source", 0),
            max_iterations=data.get("max_iterations"),
            num_slices=data.get("num_slices", 1),
            offchip_bytes_per_cycle=data.get("offchip_bytes_per_cycle", 64.0),
            tags=dict(data.get("tags") or {}),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed wire job: {exc}") from exc
