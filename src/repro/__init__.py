"""repro — reproduction of "Alleviating Datapath Conflicts and Design
Centralization in Graph Analytics Acceleration" (HiGraph / MDP-network,
DAC 2022).

Layers, bottom-up:

* :mod:`repro.graph` — CSR graphs, generators, paper Table 2 datasets,
  slicing for on-chip memory.
* :mod:`repro.algorithms` — VCPM kernels (BFS, SSSP, SSWP, PR) and the
  functional golden-model engine.
* :mod:`repro.hw` — hardware primitives: FIFOs, arbiters, crossbars,
  the calibrated timing/area/power models.
* :mod:`repro.mdp` — the paper's contribution: the MDP-network generator
  (Algorithm 1), netlist emission, and cycle-level network models
  including the Replay-Engine/range-splitting variant for Edge Array
  access.
* :mod:`repro.accel` — cycle-level simulators of HiGraph, HiGraph-mini
  and the GraphDynS baseline (Table 1 presets, Opt-O/E/D ablations).
* :mod:`repro.sweep` — sweep execution engine: plans {algorithm x
  dataset x config x axis} matrices into independent jobs, runs them
  on worker threads and caches results on disk (docs/sweep.md).
* :mod:`repro.bench` — the experiment harness regenerating every figure
  and table of the paper's evaluation, built on the sweep engine.
* :mod:`repro.serve` — the warm-cache simulation service: a resident
  daemon executing sweeps/reports over a unix socket (docs/serving.md).
* :mod:`repro.api` — the public :class:`~repro.api.Session` facade
  (local or remote) every front end goes through.

Public surface
--------------
The supported top-level names are exactly :data:`PACKAGE_EXPORTS` plus
the error types — everything else under ``repro.*`` is implementation
that may change without notice.  Exports resolve lazily (PEP 562), so
``import repro`` stays cheap.  ``tests/test_api_session.py`` holds this
module to that manifest.
"""

import importlib
from types import MappingProxyType

__version__ = "1.1.0"

from repro.errors import (
    CapacityError,
    ConfigError,
    FifoOverflowError,
    GenerationError,
    GraphFormatError,
    ProtocolError,
    ProtocolVersionError,
    ReproError,
    ServeError,
    SimulationError,
    SweepError,
)

#: The supported public surface: exported name -> defining module.
#: Frozen on purpose — growing the API is a reviewed change to this
#: manifest (and to its tests), never a side effect of an import.
PACKAGE_EXPORTS: "MappingProxyType[str, str]" = MappingProxyType({
    # the Session facade (repro.api)
    "Session": "repro.api",
    "LocalSession": "repro.api",
    "RemoteSession": "repro.api",
    "session": "repro.api",
    # the serve daemon's client (repro.serve)
    "ServeClient": "repro.serve.client",
    # job planning / results vocabulary the facade speaks
    "SweepJob": "repro.sweep.jobs",
    "GraphSpec": "repro.sweep.jobs",
    "SweepOutcome": "repro.sweep.executor",
    "AcceleratorConfig": "repro.accel.config",
    "SimStats": "repro.accel.stats",
})

__all__ = [
    "__version__",
    "PACKAGE_EXPORTS",
    "ReproError",
    "GraphFormatError",
    "GenerationError",
    "ConfigError",
    "CapacityError",
    "SimulationError",
    "FifoOverflowError",
    "SweepError",
    "ProtocolError",
    "ProtocolVersionError",
    "ServeError",
    *PACKAGE_EXPORTS,
]


def __getattr__(name: str):
    """PEP 562 lazy exports driven by the manifest above."""
    target = PACKAGE_EXPORTS.get(name)
    if target is not None:
        value = getattr(importlib.import_module(target), name)
        globals()[name] = value          # resolve once per process
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(PACKAGE_EXPORTS))
