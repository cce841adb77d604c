"""Module-global mutation sites, the evidence of the state rule.

:func:`module_global_mutations` finds every site in a module that
mutates module-level state (``global`` rebinding, augmented
assignment, mutating method calls, subscript stores and deletes on
module names) and attributes it to the enclosing function.  The
``module-state`` rule quotes these sites in its findings.

The pass under-approximates: a write it cannot pin to a module name
contributes nothing, so every reported site is a real one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.astutils import dotted_name, module_bound_names
from repro.analysis.context import ModuleContext

__all__ = ["Mutation", "module_global_mutations", "MUTATING_METHODS"]

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "appendleft", "extendleft", "popleft", "__setitem__", "__delitem__",
})


@dataclass(frozen=True)
class Mutation:
    """One site that mutates module-level state."""

    name: str                   # the module-level binding mutated
    line: int
    function: str               # enclosing function qualname, "" = top level
    how: str                    # "rebind" | "augment" | ".append(...)" | ...


def _own_nodes(body_owner: ast.AST):
    """Walk a function body without descending into nested defs (those
    are attributed to their own qualname by the caller)."""
    stack = list(ast.iter_child_nodes(body_owner))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _mutations_in(body_owner: ast.AST, qualname: str,
                  module_names: set[str]) -> list[Mutation]:
    out: list[Mutation] = []
    declared_global: set[str] = set()
    for sub in _own_nodes(body_owner):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)
    for sub in _own_nodes(body_owner):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            parts = name.split(".")
            if len(parts) == 2 and parts[0] in module_names \
                    and parts[1] in MUTATING_METHODS:
                out.append(Mutation(name=parts[0], line=sub.lineno,
                                    function=qualname,
                                    how=f".{parts[1]}(...)"))
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) \
                else [sub.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    base = dotted_name(target.value)
                    if base in module_names:
                        out.append(Mutation(
                            name=base, line=sub.lineno, function=qualname,
                            how="[...] = ..."))
                elif isinstance(target, ast.Name) and qualname \
                        and target.id in declared_global \
                        and target.id in module_names:
                    out.append(Mutation(
                        name=target.id, line=sub.lineno, function=qualname,
                        how=("augment" if isinstance(sub, ast.AugAssign)
                             else "rebind")))
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                if isinstance(target, ast.Subscript):
                    base = dotted_name(target.value)
                    if base in module_names:
                        out.append(Mutation(
                            name=base, line=sub.lineno, function=qualname,
                            how="del [...]"))
    return out


def _functions_with_qualnames(tree: ast.Module,
                              ) -> list[tuple[ast.AST, str]]:
    out: list[tuple[ast.AST, str]] = []

    def walk(body, prefix):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((stmt, prefix + stmt.name))
                walk(stmt.body, prefix + stmt.name + ".")
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, prefix + stmt.name + ".")
            elif isinstance(stmt, (ast.If, ast.Try)):
                walk(list(ast.iter_child_nodes(stmt)), prefix)

    walk(tree.body, "")
    return out


def module_global_mutations(ctx: ModuleContext) -> list[Mutation]:
    """Every mutation of module-level state inside functions of ``ctx``
    (top-level statements are initialization, not shared-state
    mutation, and are not reported)."""
    module_names = module_bound_names(ctx.tree)
    out: list[Mutation] = []
    for node, qualname in _functions_with_qualnames(ctx.tree):
        out.extend(_mutations_in(node, qualname, module_names))
    out.sort(key=lambda m: m.line)
    return out
