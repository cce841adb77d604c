"""Shared AST helpers for the rule catalog."""

from __future__ import annotations

import ast
from typing import Iterator

#: Constructor names whose result is a mutable container.
MUTABLE_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict", "ChainMap",
})


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, '' for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee ('' when not a plain name chain)."""
    return dotted_name(node.func)


def is_mutable_container(value: ast.AST) -> str | None:
    """Classify a value expression as a mutable container.

    Returns the container kind (``"list"``/``"dict"``/``"set"``/the
    constructor name) or None.  Immutable wrappers — ``tuple(...)``,
    ``frozenset(...)``, ``MappingProxyType(...)`` — are None by
    construction: their names are simply not in :data:`MUTABLE_CALLS`.
    """
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = call_name(value).rsplit(".", 1)[-1]
        if name in MUTABLE_CALLS:
            return name
    return None


def is_setish(node: ast.AST) -> bool:
    """True when the expression is syntactically a set (unordered)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return call_name(node) in ("set", "frozenset")
    return False


def assign_targets(stmt: ast.stmt) -> list[tuple[str, ast.AST | None, int]]:
    """``(name, value, lineno)`` for simple Assign/AnnAssign targets."""
    out: list[tuple[str, ast.AST | None, int]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                out.append((target.id, stmt.value, stmt.lineno))
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        out.append((stmt.target.id, stmt.value, stmt.lineno))
    return out


def module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level statements, descending into top-level ``if``/``try``
    bodies (version guards, optional-import guards) but never into
    function or class definitions."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body + stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body + stmt.orelse + stmt.finalbody)
            for handler in stmt.handlers:
                stack.extend(handler.body)


def module_bound_names(tree: ast.Module) -> set[str]:
    """Names bound at module level: imports, assignments, defs."""
    names: set[str] = set()
    for stmt in module_level_statements(tree):
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(stmt.name)
        else:
            for name, _value, _lineno in assign_targets(stmt):
                names.add(name)
    return names
