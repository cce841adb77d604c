"""``telemetry-reset``: every FFWD_TELEMETRY key is zeroed at run start.

``FFWD_TELEMETRY`` is the one blessed piece of module-level mutable
state (baselined under the ``module-state`` rule): a process-wide
engine diagnostics dict.  Its discipline — the reason it is safe — is
that :class:`SoaEngine` zeroes **every** key at the start of every
run, so two back-to-back simulations never leak counters into each
other.  That leak was fixed by hand once; this rule keeps it fixed
mechanically:

* every string key written anywhere in the engine package
  (``FFWD_TELEMETRY["k"] += ...``) must appear in the initializer dict
  literal in ``registry.py`` — the reset loop iterates the live dict,
  so initializer membership *is* reset coverage;
* ``soa.py`` must actually call ``reset_ffwd_telemetry()``.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import assign_targets, call_name
from repro.analysis.registry import rule

_ENGINE_DIR = "src/repro/accel/engine"
_REGISTRY_PATH = f"{_ENGINE_DIR}/registry.py"
_SOA_PATH = f"{_ENGINE_DIR}/soa.py"
_NAME = "FFWD_TELEMETRY"


def _is_telemetry(node: ast.AST) -> bool:
    """``FFWD_TELEMETRY`` or ``<anything>.FFWD_TELEMETRY``."""
    return (isinstance(node, ast.Name) and node.id == _NAME) or \
        (isinstance(node, ast.Attribute) and node.attr == _NAME)


def _declared_keys(tree: ast.Module) -> set[str] | None:
    """Keys of the dict literal bound to FFWD_TELEMETRY, or None."""
    for stmt in tree.body:
        for name, value, _lineno in assign_targets(stmt):
            if name == _NAME and isinstance(value, ast.Dict):
                return {k.value for k in value.keys
                        if isinstance(k, ast.Constant)
                        and isinstance(k.value, str)}
    return None


def _written_keys(tree: ast.Module):
    """``(key, lineno)`` for every subscript store into FFWD_TELEMETRY."""
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.AugAssign):
            target = node.target
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        if (isinstance(target, ast.Subscript)
                and _is_telemetry(target.value)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)):
            yield target.slice.value, node.lineno


@rule("telemetry-reset", scope="project", description=(
    "every key ever written into FFWD_TELEMETRY must appear in the "
    "registry initializer (= be zeroed by the engine-run-start reset), "
    "and SoaEngine must invoke that reset"))
def check(project):
    registry = project.module(_REGISTRY_PATH)
    if registry is None:
        yield project.finding(_REGISTRY_PATH, 0,
                              "engine registry module not found",
                              symbol="missing-registry")
        return
    declared = _declared_keys(registry.tree)
    if declared is None:
        yield registry.finding(
            0, f"no dict-literal initializer for {_NAME} found in the "
               f"registry; the reset loop has nothing to zero",
            symbol="missing-initializer")
        return

    for ctx in project.modules(under=(_ENGINE_DIR,)):
        for key, lineno in _written_keys(ctx.tree):
            if key not in declared:
                yield ctx.finding(
                    lineno,
                    f"{_NAME}[{key!r}] is written here but missing from "
                    f"the registry initializer — the run-start reset "
                    f"will not zero it, so it leaks across runs "
                    f"(the PR 5 bug class)",
                    symbol=f"key.{key}")

    soa = project.module(_SOA_PATH)
    if soa is None:
        yield project.finding(_SOA_PATH, 0,
                              "soa engine module not found",
                              symbol="missing-soa")
        return
    resets = [node for node in ast.walk(soa.tree)
              if isinstance(node, ast.Call)
              and call_name(node).rsplit(".", 1)[-1] == "reset_ffwd_telemetry"]
    if not resets:
        yield soa.finding(
            0, "SoaEngine never calls reset_ffwd_telemetry(); "
               "telemetry from a previous run leaks into the next one",
            symbol="missing-reset-call")
