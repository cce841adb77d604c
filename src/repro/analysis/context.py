"""Parsed-source contexts handed to rule checks.

:class:`ModuleContext` wraps one source file (text and parsed AST);
:class:`Project` wraps a repository root and memoizes module contexts
so every rule shares one parse per file.  A module context's
``finding(...)`` helper keeps rule bodies off the
:class:`~repro.analysis.findings.Finding` constructor.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.findings import Finding

#: Source tree that rules walk, relative to the root.
SOURCE_ROOT = "src/repro"


class ModuleContext:
    """One source file, read and parsed on first use."""

    def __init__(self, root: Path, path: Path) -> None:
        self.root = root
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self._tree: ast.Module | None = None

    @property
    def tree(self) -> ast.Module:
        """The parsed AST.  Raises ``SyntaxError``, ``UnicodeDecodeError``
        (sources are UTF-8) or ``OSError``; the runner reports each as a
        finding."""
        if self._tree is None:
            source = self.path.read_text(encoding="utf-8")
            self._tree = ast.parse(source, filename=self.relpath)
        return self._tree

    def finding(self, line: int, message: str, symbol: str = "") -> Finding:
        return Finding(path=self.relpath, line=line, message=message,
                       symbol=symbol)


class Project:
    """A repository root plus memoized module contexts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        self._modules: dict[str, ModuleContext] = {}

    # ------------------------------------------------------------------
    def module(self, relpath: str) -> ModuleContext:
        """The context for one repo-relative file."""
        if relpath not in self._modules:
            self._modules[relpath] = ModuleContext(self.root,
                                                   self.root / relpath)
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
            if under and not ctx.relpath.startswith(under):
                continue
            contexts.append(ctx)
        return contexts
