"""Engine registry, selection and the engine telemetry dict.

This module is the *only* place engine names, the cache-equivalence
class and the process-wide telemetry live; every other layer (CLI,
sweep, benchmarks, the perf probe) resolves engines through it.  The
engine implementations themselves are imported lazily by
:func:`make_engine`, so the registry never depends on them at import
time (no cycles: ``soa`` imports the registry for telemetry, not the
other way around).
"""

from __future__ import annotations

import os
import types

from repro.errors import ConfigError

#: Engine registry, in documentation order.
ENGINES = ("reference", "soa")

#: Engine used when neither the caller nor the environment picks one.
DEFAULT_ENGINE = "soa"

#: Environment override honoured by :func:`resolve_engine` (and hence by
#: the CLI, the benchmark suite and every sweep worker).
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Cache-sharing version: engines carrying the same class string have
#: been verified cycle-exact against each other, so their results may
#: share cache entries.  Bump on any soa-engine change that has not
#: yet been re-verified by the differential suite.
_EQUIVALENCE_CLASS = "cycle-exact-v1"

#: Process-wide engine telemetry (diagnostics only — never part of
#: :class:`~repro.accel.stats.SimStats`): ``cycles_simulated`` counts
#: the cycles the soa kernel marched, and ``prologue_reuse`` counts soa
#: phases that reused the resident identity-seeded tProperty buffer
#: instead of reseeding it.
#:
#: The dict is zeroed at the start of every :class:`SoaEngine` run
#: (engine construction), so after a run it holds exactly that run's
#: numbers and two back-to-back simulations never leak counters into
#: each other.  A :class:`SlicedAcceleratorSim` constructs all of its
#: per-slice engines before the first scatter, so one sliced run still
#: aggregates across its slices.  Callers timing *several* runs (the
#: perf probe) must snapshot and sum per run.  The ``reference`` engine
#: never touches it.
FFWD_TELEMETRY = {"cycles_simulated": 0, "prologue_reuse": 0}


def reset_ffwd_telemetry() -> dict:
    """Zero the engine telemetry and return the live dict."""
    for key in FFWD_TELEMETRY:
        FFWD_TELEMETRY[key] = 0
    return FFWD_TELEMETRY


#: Read-only: the equivalence map is consulted by every cache-key
#: computation, so mutating it at runtime would silently alias cache
#: entries across unverified engines.
_ENGINE_EQUIVALENCE = types.MappingProxyType({
    "reference": _EQUIVALENCE_CLASS,
    # soa JOINS the class: the differential suite and
    # tests/test_engine_fuzz.py hold it to byte-identical SimStats, and
    # it hands every run its kernel cannot reproduce to reference
    "soa": _EQUIVALENCE_CLASS,
})


def resolve_engine(name: str | None = None) -> str:
    """Normalize an engine request: explicit name > $REPRO_ENGINE > default."""
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    key = str(name).strip().lower()
    if key not in ENGINES:
        raise ConfigError(
            f"unknown engine {name!r}; expected one of {ENGINES} "
            f"(or unset, which means ${ENGINE_ENV_VAR} then {DEFAULT_ENGINE!r})")
    return key


def engine_cache_token(name: str | None = None) -> str:
    """Cache-key contribution of an engine choice.

    Verified-equivalent engines map to the same token, so a sweep run
    with either engine warms the cache for both.
    """
    return _ENGINE_EQUIVALENCE[resolve_engine(name)]


def make_engine(name: str, sim):
    """Build the scatter engine ``name`` bound to one simulator.

    ``soa`` runs only where its compiled kernel reproduces the run bit
    for bit (:func:`repro.accel.engine.soa.kernel_supports`); every
    other run — no compiler, ``REPRO_SOA_KERNEL=off``, no closed-form
    kernels — gets the golden ``reference`` engine.
    """
    if name == "soa":
        from repro.accel.engine import soa
        if soa.kernel_supports(sim):
            return soa.SoaEngine(sim)
    from repro.accel.engine.reference import ReferenceEngine
    return ReferenceEngine(sim)
