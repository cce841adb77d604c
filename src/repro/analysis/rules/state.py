"""``module-state``: no module-level mutable state in the simulation core.

The PR 3 bug class: ``backend.py`` once shared module-level sink lists
across every live simulator of the same back-end width, so one
simulation mutated another's state.  Cycle-exactness and cache
correctness both assume a simulator owns *all* of its state, so in the
simulation core (``accel/``, ``mdp/``, ``hw/``) any module-scope or
class-scope binding of a mutable container is a finding — even an
ALL_CAPS one, because naming a ``dict`` like a constant does not freeze
it.  Fixes, in preference order: make it per-instance; freeze it
(``tuple`` / ``frozenset`` / ``types.MappingProxyType``); or allow it
inline with a justification naming the discipline that keeps it safe.

Each finding carries *mutation-site evidence* from the dataflow layer:
which functions in the module actually write the container and how.  A
binding nothing mutates reads as "(no in-module mutation sites — "
"likely freezable)", which is the one-line triage hint: those fixes
are a type change, not a redesign.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import (
    assign_targets,
    is_mutable_container,
    module_level_statements,
)
from repro.analysis.dataflow import module_global_mutations
from repro.analysis.registry import rule

#: The simulation core: every byte of state here feeds cycle counts.
CORE_DIRS = ("src/repro/accel", "src/repro/mdp", "src/repro/hw")

#: Conventional module-level names that are written once at import time
#: and treated as frozen by the whole ecosystem.
_EXEMPT_NAMES = frozenset({"__all__"})


@rule("module-state", dirs=CORE_DIRS, description=(
    "module- or class-scope mutable container in the simulation core "
    "(shared across simulator instances — the PR 3 backend.py bug class)"))
def check(ctx):
    mutations = _mutation_sites(ctx)
    for stmt in module_level_statements(ctx.tree):
        yield from _bindings(ctx, stmt, mutations, qualifier="")
        if isinstance(stmt, ast.ClassDef):
            for class_stmt in stmt.body:
                yield from _bindings(ctx, class_stmt, mutations,
                                     qualifier=f"{stmt.name}.")


def _mutation_sites(ctx):
    """``{name: [Mutation, ...]}`` for module-level names, site order."""
    sites = {}
    for mutation in module_global_mutations(ctx):
        sites.setdefault(mutation.name, []).append(mutation)
    return sites


def _evidence(name, mutations, qualifier):
    if qualifier:
        # class attributes are written through the class or instance,
        # which the module-global pass deliberately does not model
        return ""
    sites = mutations.get(name, ())
    if not sites:
        return " (no in-module mutation sites — likely freezable)"
    shown = ", ".join(f"{m.function}() at line {m.line} [{m.how}]"
                      for m in sites[:3])
    more = f" and {len(sites) - 3} more" if len(sites) > 3 else ""
    return f" (mutated by {shown}{more})"


def _bindings(ctx, stmt, mutations, qualifier):
    for name, value, lineno in assign_targets(stmt):
        if value is None or name in _EXEMPT_NAMES:
            continue
        kind = is_mutable_container(value)
        if kind is None:
            continue
        where = "class" if qualifier else "module"
        symbol = f"{qualifier}{name}"
        yield ctx.finding(
            lineno,
            f"{where}-level mutable {kind} {symbol!r} is shared across "
            f"every simulator in the process; make it per-instance, "
            f"freeze it (tuple/frozenset/MappingProxyType), or allow "
            f"it inline with the discipline that keeps it safe"
            + _evidence(name, mutations, qualifier),
            symbol=symbol)
