"""Determinism hygiene: the byte-identical SimStats contract's enemies.

Three rules, because the fixes differ:

* ``set-iteration`` — iterating a ``set``/``frozenset`` yields an
  order that depends on insertion history and (for strings) per-process
  hash randomization.  Any such order feeding stats, counters, record
  queues or cache keys breaks run-to-run byte-identity.  Iterate a
  list, or wrap in ``sorted(...)``.  (Plain ``dict`` iteration is
  insertion-ordered since 3.7 and is *not* flagged.)
* ``id-key`` — ``id()`` values are allocation addresses: stable within
  a run, different across runs.  Keying any container or cache off
  them makes behavior replay-dependent.
* ``nondeterministic-call`` — wall-clock reads and unseeded global RNG
  draws inside the simulation core.  Timing belongs in the sweep layer
  (where ``wall_seconds`` is volatile-by-design provenance, excluded
  from cache keys); randomness belongs behind an explicit seed
  (``numpy.random.default_rng(seed)`` is fine and not flagged).
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import call_name, is_setish
from repro.analysis.registry import rule
from repro.analysis.rules.state import CORE_DIRS

#: Determinism scope for container-order hazards: the simulation core
#: plus the sweep layer (cache keys and job planning live there).
ORDER_DIRS = CORE_DIRS + ("src/repro/sweep",)

#: Wrapper callables that materialize their first argument's iteration
#: order.  ``sorted(set(...))`` is safe and never reaches this check:
#: the setish expression is ``sorted``'s argument, which is exempt.
_ORDER_SINKS = ("list", "tuple", "enumerate", "iter", "map", "filter")

#: Callee dotted-name prefixes that read the wall clock or draw from a
#: process-global RNG.  ``numpy.random.default_rng`` / ``Generator`` /
#: ``SeedSequence`` are explicitly seeded constructions and exempt.
_CLOCK_CALLS = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "datetime.now", "datetime.utcnow",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
)
_RANDOM_PREFIXES = ("random.", "secrets.", "np.random.", "numpy.random.")
_SEEDED_RANDOM = ("np.random.default_rng", "numpy.random.default_rng",
                  "np.random.Generator", "numpy.random.Generator",
                  "np.random.SeedSequence", "numpy.random.SeedSequence")


@rule("set-iteration", dirs=ORDER_DIRS, description=(
    "iteration over a set/frozenset — unordered, and hash-randomized "
    "for strings; any consumer feeding stats or cache keys loses "
    "byte-identity (iterate a list or wrap in sorted())"))
def check_set_iteration(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and is_setish(node.iter):
            yield _set_finding(ctx, node.iter, "for-loop")
        elif isinstance(node, ast.comprehension) and is_setish(node.iter):
            yield _set_finding(ctx, node.iter, "comprehension")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in _ORDER_SINKS and node.args \
                    and is_setish(node.args[0]):
                yield _set_finding(ctx, node.args[0], f"{name}()")
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "join" and node.args
                  and is_setish(node.args[0])):
                yield _set_finding(ctx, node.args[0], "str.join()")


def _set_finding(ctx, node, sink):
    return ctx.finding(
        node.lineno,
        f"set iteration order reaches a {sink}; sets are unordered "
        f"(and hash-randomized for str elements) — iterate a list or "
        f"wrap in sorted()",
        symbol=f"set-iter@{sink}")


@rule("id-key", dirs=ORDER_DIRS, description=(
    "id() call — allocation addresses differ across runs, so any "
    "container or cache keyed off them is replay-dependent"))
def check_id_key(ctx):
    for node in ast.walk(ctx.tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "id" and len(node.args) == 1):
            yield ctx.finding(
                node.lineno,
                "id() yields an allocation address (stable within a run, "
                "different across runs); key off a stable identity "
                "instead (an index, a name, a content fingerprint)",
                symbol="id-call")


@rule("nondeterministic-call", dirs=CORE_DIRS, description=(
    "wall-clock or unseeded-RNG call in the simulation core; timing "
    "belongs in the sweep layer, randomness behind an explicit seed"))
def check_nondeterministic_call(ctx):
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield ctx.finding(
                node.lineno,
                "from random import ... binds the process-global unseeded "
                "RNG; use numpy.random.default_rng(seed) or random.Random("
                "seed) instead",
                symbol="import-random")
            continue
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if not name or name in _SEEDED_RANDOM:
            continue
        if name in _CLOCK_CALLS:
            yield ctx.finding(
                node.lineno,
                f"{name}() reads the wall clock inside the simulation "
                f"core; cycle results must not depend on host time — "
                f"measure in the sweep layer (volatile provenance) instead",
                symbol=name)
        elif name.startswith(_RANDOM_PREFIXES):
            yield ctx.finding(
                node.lineno,
                f"{name}() draws from a process-global unseeded RNG; use "
                f"an explicitly seeded generator "
                f"(numpy.random.default_rng(seed), random.Random(seed))",
                symbol=name)
