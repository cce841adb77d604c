"""Interprocedural dataflow passes layered on the call graph.

Two reusable analyses power the state and fork-safety rules:

* :func:`module_global_mutations` — every site in a module that mutates
  module-level state (``global`` rebinding, augmented assignment,
  mutating method calls, subscript/attribute stores on module names),
  attributed to the enclosing function.  Powers the module-state rule's
  mutation-site evidence and the fork-shared-state rule.
* :func:`fork_entry_points` — callables a module hands to worker pools
  (``pool.imap_unordered(f, ...)``, ``Process(target=f)``,
  ``executor.submit(f, ...)``): the roots from which fork-safety
  reachability starts.

All passes under-approximate: a call that cannot be pinned to a
definition contributes nothing, so every reported flow is a real flow
in the source (no speculative edges).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.astutils import dotted_name, module_bound_names
from repro.analysis.callgraph import CallGraph, Key
from repro.analysis.context import ModuleContext

__all__ = [
    "Mutation", "module_global_mutations",
    "ForkEntry", "fork_entry_points",
    "MUTATING_METHODS",
]

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "appendleft", "extendleft", "popleft", "__setitem__", "__delitem__",
})

#: Pool/executor methods whose first positional argument is a worker
#: callable executed in another process (or thread).
_POOL_DISPATCH = frozenset({
    "imap", "imap_unordered", "map", "map_async", "starmap",
    "starmap_async", "apply", "apply_async", "submit",
})

#: Constructors that take the worker callable as ``target=``.
_TARGET_CTORS = frozenset({"Process", "Thread"})


# ----------------------------------------------------------------------
# module-global mutation sites
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# fork entry points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ForkEntry:
    """One callable handed to a worker pool."""

    worker: Key                 # the function that runs in the worker
    line: int                   # dispatch site
    dispatcher: str             # e.g. "pool.imap_unordered"
    caller: Key                 # function containing the dispatch


def fork_entry_points(graph: CallGraph, ctx: ModuleContext,
                      ) -> list[ForkEntry]:
    """Worker callables dispatched to pools from functions in ``ctx``."""
    entries: list[ForkEntry] = []
    for info in graph.functions.values():
        if info.relpath != ctx.relpath:
            continue
        for sub in ast.walk(info.node):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            tail = name.rsplit(".", 1)[-1]
            candidates: list[ast.expr] = []
            if tail in _POOL_DISPATCH and sub.args:
                candidates.append(sub.args[0])
            if tail in _TARGET_CTORS:
                candidates.extend(kw.value for kw in sub.keywords
                                  if kw.arg == "target")
            for candidate in candidates:
                worker = graph._resolve(ctx, info, dotted_name(candidate))
                if worker is not None:
                    entries.append(ForkEntry(
                        worker=worker, line=sub.lineno, dispatcher=name,
                        caller=info.key))
    entries.sort(key=lambda e: e.line)
    return entries
