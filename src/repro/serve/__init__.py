"""``repro serve`` — the long-lived warm-cache simulation service.

Every CLI invocation used to be a cold process: graphs re-loaded, CSR
re-built, the code-version digest re-computed.  This package keeps all
of that resident:

* :mod:`repro.serve.protocol` — versioned JSON-over-socket messages
  (sweep, query status, regenerate report sections, reload, shutdown)
  plus the wire codec for :class:`~repro.sweep.jobs.SweepJob`.
* :mod:`repro.serve.scheduler` — a sweep's books, kept as
  :func:`~repro.sweep.executor.run_sweep` keeps them, plus dedup of
  in-flight identical jobs across requests and largest-first dispatch
  onto the daemon's job threads, which share the process's loaded
  graphs.
* :mod:`repro.serve.daemon` — the asyncio unix-socket server tying the
  two together: it digests the code version once at start, and a
  ``reload`` that finds the digest changed stops it for a restart.
* :mod:`repro.serve.client` — the blocking client the CLI, the
  :class:`~repro.api.RemoteSession` facade and the tests all use.

See ``docs/serving.md`` for the daemon lifecycle and how the daemon
shares its cache directory with other processes.
"""

from types import MappingProxyType

from repro._lazy import lazy_exports

#: exported name -> defining module; a client that imports
#: :mod:`repro.serve.client` imports no daemon, scheduler or asyncio
_EXPORTS = MappingProxyType({
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "ServeClient": "repro.serve.client",
    "ServeDaemon": "repro.serve.daemon",
    "serve_in_thread": "repro.serve.daemon",
})

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
