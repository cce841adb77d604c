"""Engine registry and selection.

This module is the *only* place engine names live; every other layer
(CLI, sweep, serve, benchmarks) resolves engines through it.  The
engine implementations themselves are imported lazily by
:func:`make_engine`, so the registry never depends on them at import
time.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Engine registry, in documentation order.
ENGINES = ("reference", "soa")

#: Engine used when the caller names none.
DEFAULT_ENGINE = "soa"


def resolve_engine(name: str | None = None) -> str:
    """Normalize an engine request: the name given, else the default."""
    if name is None:
        return DEFAULT_ENGINE
    key = str(name).strip().lower()
    if key not in ENGINES:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of {ENGINES}")
    return key


def make_engine(name: str, sim):
    """Build the scatter engine ``name`` bound to one simulator.

    ``soa`` marches in the compiled kernel, or raises
    :class:`~repro.errors.SimulationError` naming why the kernel cannot
    load.  The one hand-off is decided from the algorithm alone: one
    without a closed-form Reduce and Process_Edge
    (:func:`repro.accel.engine.soa.has_closed_forms`) runs on
    ``reference``, the only engine that can run it.
    """
    if name == "soa":
        from repro.accel.engine import soa
        if soa.has_closed_forms(sim.algorithm):
            return soa.SoaEngine(sim)
    from repro.accel.engine.reference import ReferenceEngine
    return ReferenceEngine(sim)
