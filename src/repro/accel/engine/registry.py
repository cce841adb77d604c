"""Engine registry and selection.

This module is the *only* place engine names live; every other layer
(CLI, sweep, benchmarks) resolves engines through it.  The engine
implementations themselves are imported lazily by :func:`make_engine`,
so the registry never depends on them at import time.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError

#: Engine registry, in documentation order.
ENGINES = ("reference", "soa")

#: Engine used when neither the caller nor the environment picks one.
DEFAULT_ENGINE = "soa"

#: Environment override honoured by :func:`resolve_engine` (and hence by
#: the CLI, the benchmark suite and every sweep worker).
ENGINE_ENV_VAR = "REPRO_ENGINE"


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
