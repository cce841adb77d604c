"""``engine-registry``: registering an engine is a three-point contract.

Every name in the registry's ``ENGINES`` tuple must carry a
``_ENGINE_EQUIVALENCE`` entry (cache keys would ``KeyError`` without
one), at most one engine may rely on ``make_engine``'s fallback
branch, and stale equivalence entries for unregistered engines are
rejected.
"""

from __future__ import annotations

import ast

from repro.analysis.registry import rule

_REGISTRY_PATH = "src/repro/accel/engine/registry.py"


def _tuple_assignment(tree: ast.Module, name: str):
    """String elements of ``name = ("...", ...)``, with the lineno."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in stmt.targets) \
                and isinstance(stmt.value, (ast.Tuple, ast.List)):
            values = [e.value for e in stmt.value.elts
                      if isinstance(e, ast.Constant)
                      and isinstance(e.value, str)]
            return stmt.lineno, values
    return 0, None


def _equivalence_keys(tree: ast.Module):
    """String keys of the ``_ENGINE_EQUIVALENCE`` mapping literal
    (written as ``types.MappingProxyType({...})``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name)
                        and t.id == "_ENGINE_EQUIVALENCE"
                        for t in node.targets):
            for inner in ast.walk(node.value):
                if isinstance(inner, ast.Dict):
                    return node.lineno, [k.value for k in inner.keys
                                         if isinstance(k, ast.Constant)
                                         and isinstance(k.value, str)]
            return node.lineno, []
    return 0, None


def _make_engine_branches(tree: ast.Module):
    """String constants ``make_engine`` compares its argument against."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "make_engine":
            return stmt.lineno, sorted({
                node.value for compare in ast.walk(stmt)
                if isinstance(compare, ast.Compare)
                for node in [compare.left, *compare.comparators]
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)})
    return 0, None


@rule("engine-registry", scope="project", description=(
    "every engine in the registry's ENGINES tuple must carry a "
    "cache-equivalence entry and (all but one fallback) a make_engine "
    "branch; stale equivalence entries are rejected"))
def check_registry(project):
    ctx = project.module(_REGISTRY_PATH)
    if ctx is None:
        yield project.finding(_REGISTRY_PATH, 0,
                              "engine registry module not found",
                              symbol="missing-registry")
        return
    eng_line, engines = _tuple_assignment(ctx.tree, "ENGINES")
    if engines is None:
        yield ctx.finding(0, "registry does not bind an ENGINES tuple "
                             "of string literals", symbol="no-engines")
        return
    equiv_line, equivalence = _equivalence_keys(ctx.tree)
    if equivalence is None:
        yield ctx.finding(0, "registry does not bind _ENGINE_EQUIVALENCE",
                          symbol="no-equivalence")
        return
    for engine in engines:
        if engine not in equivalence:
            yield ctx.finding(
                equiv_line,
                f"engine {engine!r} is registered but has no "
                f"_ENGINE_EQUIVALENCE entry — engine_cache_token() "
                f"would raise for it",
                symbol=f"no-class.{engine}")
    for engine in equivalence:
        if engine not in engines:
            yield ctx.finding(
                equiv_line,
                f"_ENGINE_EQUIVALENCE names unregistered engine "
                f"{engine!r} — stale entry, or the ENGINES tuple "
                f"was not updated",
                symbol=f"stale-class.{engine}")
    make_line, branches = _make_engine_branches(ctx.tree)
    if branches is None:
        yield ctx.finding(0, "registry does not define make_engine()",
                          symbol="no-make-engine")
        return
    unmatched = [e for e in engines if e not in branches]
    if len(unmatched) > 1:
        yield ctx.finding(
            make_line,
            f"make_engine() has no branch for engines {unmatched!r} — "
            f"at most one engine may rely on the fallback return",
            symbol="fallback." + ".".join(unmatched))
