"""Parsed-source contexts handed to rule checks.

:class:`ModuleContext` wraps one source file (text, line table, parsed
AST); :class:`Project` wraps a repository root and memoizes module
contexts so every rule shares one parse per file.  A module context's
``finding(...)`` helper keeps rule bodies off the
:class:`~repro.analysis.findings.Finding` constructor.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.findings import Finding

#: Inline suppression: ``# lint: allow=<rule-id>[,<rule-id>...]`` on the
#: flagged line or the line directly above it.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow=([A-Za-z0-9_,-]+)")

#: Source tree that module-scope rules walk, relative to the root.
SOURCE_ROOT = "src/repro"


class ModuleContext:
    """One parsed source file."""

    def __init__(self, root: Path, path: Path) -> None:
        self.root = root
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self._tree: ast.Module | None = None

    @property
    def tree(self) -> ast.Module:
        """The parsed AST (raises ``SyntaxError``; the runner reports it)."""
        if self._tree is None:
            self._tree = ast.parse(self.source, filename=self.relpath)
        return self._tree

    def finding(self, line: int, message: str, symbol: str = "") -> Finding:
        return Finding(path=self.relpath, line=line, message=message,
                       symbol=symbol)

    def allowed_rules(self, line: int) -> set[str]:
        """Rule ids suppressed at ``line`` by an inline allow comment."""
        allowed: set[str] = set()
        for lineno in (line, line - 1):
            if 1 <= lineno <= len(self.lines):
                match = _ALLOW_RE.search(self.lines[lineno - 1])
                if match:
                    allowed.update(
                        part.strip() for part in match.group(1).split(","))
        return allowed


class Project:
    """A repository root plus memoized module contexts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        self._modules: dict[str, ModuleContext | None] = {}
        self._callgraph = None

    # ------------------------------------------------------------------
    def module(self, relpath: str) -> ModuleContext | None:
        """The context for one repo-relative file (None if unreadable)."""
        if relpath not in self._modules:
            path = self.root / relpath
            try:
                self._modules[relpath] = ModuleContext(self.root, path)
            except (OSError, UnicodeDecodeError):
                self._modules[relpath] = None
        return self._modules[relpath]

    def modules(self, under: tuple[str, ...] = ()) -> list[ModuleContext]:
        """Every ``.py`` module under ``src/repro`` (sorted, memoized),
        optionally filtered to repo-relative directory prefixes."""
        source_root = self.root / SOURCE_ROOT
        if not source_root.is_dir():
            return []
        contexts = []
        for path in sorted(source_root.rglob("*.py")):
            ctx = self.module(path.relative_to(self.root).as_posix())
            if ctx is None:
                continue
            if under and not ctx.relpath.startswith(under):
                continue
            contexts.append(ctx)
        return contexts

    def callgraph(self):
        """The project call graph, built once per lint run and shared
        by every interprocedural rule (import is lazy: module-only
        lints never pay for the build)."""
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph
            self._callgraph = CallGraph(self)
        return self._callgraph

    def allowed_rules(self, relpath: str, line: int) -> set[str]:
        """Inline-allow lookup for any repo file (module cache reused)."""
        if line < 1 or not relpath.endswith(".py"):
            return set()
        ctx = self.module(relpath)
        return ctx.allowed_rules(line) if ctx is not None else set()
