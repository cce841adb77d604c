"""``repro serve`` — the long-lived warm-cache simulation service.

Every CLI invocation used to be a cold process: graphs re-loaded, CSR
re-built, the code-version digest re-computed.  This package keeps all
of that resident:

* :mod:`repro.serve.protocol` — versioned JSON-over-socket messages
  (submit sweep, query status, stream progress, regenerate report
  sections, cache info/GC, reload, shutdown) plus the wire codec for
  :class:`~repro.sweep.jobs.SweepJob`.
* :mod:`repro.serve.scheduler` — the job queue: content-addressed
  dedup of in-flight identical jobs, cache claims so many daemons can
  share one cache directory, largest-first dispatch onto the daemon's
  job threads, which share the process's loaded graphs.
* :mod:`repro.serve.daemon` — the asyncio unix-socket server tying the
  two together: it digests the code version once at start, and a
  ``reload`` that finds the digest changed stops it for a restart.
* :mod:`repro.serve.client` — the blocking client the CLI, the
  :class:`~repro.api.RemoteSession` facade and the tests all use.

See ``docs/serving.md`` for the daemon lifecycle and cache-ownership
rules.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon, serve_in_thread
from repro.serve.protocol import PROTOCOL_VERSION

__all__ = [
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeDaemon",
    "serve_in_thread",
]
