"""Project call graph for the interprocedural rules.

Builds one static call graph over every module under ``src/repro``:
nodes are functions and methods keyed ``(relpath, qualname)``, edges are
the calls (and bare callable *references* — callbacks handed to pools)
that a shallow but honest resolver can pin to a definition.  Resolution
covers the idioms this codebase actually uses:

* bare calls to module-level functions, same module or imported
  (``from repro.x import f`` / ``import repro.x as m; m.f()``);
* ``self.method()`` inside a class body;
* ``Class.method()`` where ``Class`` is defined or imported;
* a function *named* without being called (``pool.imap_unordered(f,
  jobs)``, ``Process(target=f)``) — recorded in :attr:`CallGraph.refs`
  so fork-reachability can follow worker callbacks.

Anything dynamic (``getattr``, dict-of-callables dispatch, methods on
unknown objects) is deliberately unresolved: the interprocedural rules
under-approximate rather than guess.  The graph is memoized on the
:class:`~repro.analysis.context.Project` (see ``Project.callgraph``
users) so every project-scope rule shares one build per lint run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutils import dotted_name
from repro.analysis.context import ModuleContext, Project, SOURCE_ROOT

#: Node key: (repo-relative path, dotted qualname inside the module).
Key = tuple[str, str]


@dataclass(eq=False)
class FunctionInfo:
    """One function or method definition in the graph."""

    relpath: str
    qualname: str               # "func", "Class.method", "outer.inner"
    node: ast.AST               # FunctionDef | AsyncFunctionDef
    line: int

    @property
    def key(self) -> Key:
        return (self.relpath, self.qualname)

    @property
    def class_name(self) -> str | None:
        return self.qualname.rsplit(".", 1)[0] if "." in self.qualname \
            else None


@dataclass(eq=False)
class ModuleSymbols:
    """What one module binds at top level, for callee resolution."""

    functions: set[str] = field(default_factory=set)
    classes: set[str] = field(default_factory=set)
    #: local name -> module relpath (``import repro.x as m``)
    module_imports: dict[str, str] = field(default_factory=dict)
    #: local name -> (module relpath, symbol) (``from repro.x import f``)
    symbol_imports: dict[str, Key] = field(default_factory=dict)


def _module_relpath(project: Project, dotted: str) -> str | None:
    """``repro.sweep.jobs`` -> ``src/repro/sweep/jobs.py`` (or the
    package ``__init__.py``), None when not a repo module."""
    if not dotted.startswith("repro"):
        return None
    tail = dotted.split(".")[1:]
    base = SOURCE_ROOT + ("/" + "/".join(tail) if tail else "")
    for candidate in (base + ".py", base + "/__init__.py"):
        if (project.root / candidate).is_file():
            return candidate
    return None


def _resolve_relative(ctx: ModuleContext, level: int, module: str) -> str:
    """Absolute dotted path of a ``from ...x import y`` source."""
    # repro/a/b.py and repro/a/__init__.py both live in package repro.a
    package = ctx.relpath[len("src/"):].split("/")[:-1]
    base = package[:len(package) - (level - 1)] if level > 1 else package
    return ".".join(base + ([module] if module else []))


class CallGraph:
    """Static call graph over the project's ``src/repro`` tree."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: dict[Key, FunctionInfo] = {}
        self.calls: dict[Key, set[Key]] = {}
        self.refs: dict[Key, set[Key]] = {}
        self._symbols: dict[str, ModuleSymbols] = {}
        modules = []
        for ctx in project.modules():
            try:
                ctx.tree
            except SyntaxError:
                continue                    # the syntax rule reports it
            modules.append(ctx)
            self._collect_definitions(ctx)
        for ctx in modules:
            self._collect_edges(ctx)

    # ------------------------------------------------------------------
    def _collect_definitions(self, ctx: ModuleContext) -> None:
        symbols = ModuleSymbols()
        self._symbols[ctx.relpath] = symbols
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    target = _module_relpath(self.project, alias.name)
                    if target:
                        local = alias.asname or alias.name.split(".")[0]
                        # ``import repro.sweep.jobs`` binds ``repro``;
                        # only an asname gives a usable direct handle
                        if alias.asname or "." not in alias.name:
                            symbols.module_imports[local] = target
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level:
                    dotted = _resolve_relative(ctx, stmt.level,
                                               stmt.module or "")
                else:
                    dotted = stmt.module or ""
                source = _module_relpath(self.project, dotted)
                if source is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    submodule = _module_relpath(
                        self.project, f"{dotted}.{alias.name}")
                    if submodule:
                        symbols.module_imports[local] = submodule
                    else:
                        symbols.symbol_imports[local] = (source, alias.name)
        self._walk_definitions(ctx, ctx.tree.body, prefix="",
                               symbols=symbols)

    def _walk_definitions(self, ctx: ModuleContext, body: list[ast.stmt],
                          prefix: str, symbols: ModuleSymbols) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                info = FunctionInfo(relpath=ctx.relpath, qualname=qualname,
                                    node=stmt, line=stmt.lineno)
                self.functions[info.key] = info
                if not prefix:
                    symbols.functions.add(stmt.name)
                self._walk_definitions(ctx, stmt.body, qualname + ".",
                                       symbols)
            elif isinstance(stmt, ast.ClassDef):
                if not prefix:
                    symbols.classes.add(stmt.name)
                self._walk_definitions(ctx, stmt.body, prefix + stmt.name
                                       + ".", symbols)
            elif isinstance(stmt, (ast.If, ast.Try)):
                self._walk_definitions(ctx, list(ast.iter_child_nodes(stmt)),
                                       prefix, symbols)

    # ------------------------------------------------------------------
    def _collect_edges(self, ctx: ModuleContext) -> None:
        for info in list(self.functions.values()):
            if info.relpath != ctx.relpath:
                continue
            calls = self.calls.setdefault(info.key, set())
            refs = self.refs.setdefault(info.key, set())
            callee_nodes = set()
            for sub in ast.walk(info.node):
                if isinstance(sub, ast.Call):
                    callee_nodes.add(id(sub.func))
                    target = self._resolve(ctx, info, dotted_name(sub.func))
                    if target is not None:
                        calls.add(target)
            # bare references to known functions (callbacks): any name
            # chain that resolves but is not itself a call's callee
            for sub in ast.walk(info.node):
                if isinstance(sub, (ast.Name, ast.Attribute)) \
                        and id(sub) not in callee_nodes \
                        and isinstance(getattr(sub, "ctx", None), ast.Load):
                    target = self._resolve(ctx, info, dotted_name(sub))
                    if target is not None:
                        refs.add(target)

    def _resolve(self, ctx: ModuleContext, caller: FunctionInfo,
                 name: str) -> Key | None:
        """Pin a dotted callee name to a function key, or give up."""
        if not name:
            return None
        symbols = self._symbols[ctx.relpath]
        parts = name.split(".")
        if parts[0] == "self" and caller.class_name is not None:
            if len(parts) == 2:
                key = (ctx.relpath, f"{caller.class_name}.{parts[1]}")
                return key if key in self.functions else None
            return None
        if len(parts) == 1:
            if parts[0] in symbols.functions:
                key = (ctx.relpath, parts[0])
                return key if key in self.functions else None
            target = symbols.symbol_imports.get(parts[0])
            if target is not None and target in self.functions:
                return target
            return None
        if len(parts) == 2:
            first, second = parts
            if first in symbols.classes:
                key = (ctx.relpath, f"{first}.{second}")
                return key if key in self.functions else None
            module = symbols.module_imports.get(first)
            if module is not None:
                key = (module, second)
                return key if key in self.functions else None
            target = symbols.symbol_imports.get(first)
            if target is not None:
                # imported class: Class.method
                key = (target[0], f"{target[1]}.{second}")
                return key if key in self.functions else None
        return None

    # ------------------------------------------------------------------
    def reachable(self, roots) -> set[Key]:
        """Every function key reachable from ``roots`` over call and
        callable-reference edges."""
        seen: set[Key] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(self.calls.get(key, ()))
            stack.extend(self.refs.get(key, ()))
        return seen
