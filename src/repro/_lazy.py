"""Package exports that resolve on first access (PEP 562).

A package ``__init__`` that imports the names it re-exports imports
every module behind them, numpy included, whenever any one of its
modules is imported.  :func:`lazy_exports` gives a package the
``__getattr__`` and ``__dir__`` hooks that import a name's module only
when the name is first read, so a warm ``repro report``, which
simulates nothing and generates no graph, never imports numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Mapping


def lazy_exports(package: str, exports: Mapping[str, str]):
    """``(__getattr__, __dir__)`` for ``package``, whose ``exports`` map
    each exported name to its defining module.  A name is imported on
    first access and bound on the package, so later reads are plain
    attribute lookups."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
