"""Engine registry, selection and fast-forward telemetry.

This module is the *only* place engine names, the cache-equivalence
class and the process-wide fast-forward telemetry live; every other
layer (CLI, sweep, benchmarks, the perf probe) resolves engines through
it.  The engine implementations themselves are imported lazily by
:func:`make_engine`, so the registry never depends on them at import
time (no cycles: ``reference``/``batched`` import the registry for
telemetry, not the other way around).
"""

from __future__ import annotations

import os
import types

from repro.errors import ConfigError

#: Engine registry, in documentation order.
ENGINES = ("reference", "batched", "soa")

#: Engine used when neither the caller nor the environment picks one.
DEFAULT_ENGINE = "soa"

#: Environment override honoured by :func:`resolve_engine` (and hence by
#: the CLI, the benchmark suite and every sweep worker).
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Cache-sharing version: engines carrying the same class string have
#: been verified cycle-exact against each other, so their results may
#: share cache entries.  Bump on any batched-engine change that has not
#: yet been re-verified by the differential suite.
_EQUIVALENCE_CLASS = "cycle-exact-v1"

#: Process-wide event-driven fast-forward telemetry (diagnostics only —
#: never part of :class:`~repro.accel.stats.SimStats`).  ``windows`` /
#: ``cycles_fast_forwarded`` / ``events`` count whole-phase structural
#: windows replayed in closed form and the value-plane ops that replaced
#: them; ``partial_windows`` counts phases replayed from a recorded
#: program whose *frontend* segment had to be re-simulated (per-
#: subnetwork window keys — see :mod:`repro.accel.engine.windows`), and
#: ``front_cycles_resimulated`` the frontend-only cycles that cost;
#: ``cycles_simulated`` counts cycles actually marched in full, and
#: ``prologue_reuse`` counts soa phases that reused the resident
#: identity-seeded tProperty buffer instead of reseeding it.
#:
#: The dict is zeroed at the start of every :class:`BatchedEngine`
#: run (engine construction), so after a run it holds exactly that
#: run's numbers and two back-to-back simulations never leak counters
#: into each other.  A :class:`SlicedAcceleratorSim` constructs all of
#: its per-slice engines before the first scatter, so one sliced run
#: still aggregates across its slices.  Callers timing *several* runs
#: (the perf probe) must snapshot and sum per run; callers that need
#: per-engine attribution read the engine's own ``ffwd_*`` counters.
FFWD_TELEMETRY = {"windows": 0, "cycles_fast_forwarded": 0,
                  "cycles_simulated": 0, "events": 0,
                  "partial_windows": 0, "front_cycles_resimulated": 0,
                  "prologue_reuse": 0}


def reset_ffwd_telemetry() -> dict:
    """Zero the fast-forward telemetry and return the live dict."""
    for key in FFWD_TELEMETRY:
        FFWD_TELEMETRY[key] = 0
    return FFWD_TELEMETRY


#: Read-only: the equivalence map is consulted by every cache-key
#: computation, so mutating it at runtime would silently alias cache
#: entries across unverified engines.
_ENGINE_EQUIVALENCE = types.MappingProxyType({
    "reference": _EQUIVALENCE_CLASS,
    "batched": _EQUIVALENCE_CLASS,
    # soa deliberately JOINS the class: it subclasses the batched engine
    # and swaps only the cycle marcher, and the differential suite plus
    # tests/test_engine_fuzz.py hold it to byte-identical SimStats —
    # so its results may share cache entries with the other two.
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
    """Build the scatter engine ``name`` bound to one simulator."""
    if name == "reference":
        from repro.accel.engine.reference import ReferenceEngine
        return ReferenceEngine(sim)
    if name == "soa":
        from repro.accel.engine.soa import SoaEngine
        return SoaEngine(sim)
    from repro.accel.engine.batched import BatchedEngine
    return BatchedEngine(sim)
