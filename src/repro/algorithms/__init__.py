"""VCPM algorithm layer: kernels (Fig. 2) and the functional golden model.

Exports resolve on first access (:mod:`repro._lazy`), so the roster
below imports no numpy; the algorithm classes do.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.algorithms.base import Algorithm

#: Algorithm roster of the paper's evaluation, in figure order.
PAPER_ALGORITHMS = ("BFS", "SSSP", "SSWP", "PR")

#: exported name -> defining module
_EXPORTS = MappingProxyType({
    "Algorithm": "repro.algorithms.base",
    "BFS": "repro.algorithms.bfs",
    "SSSP": "repro.algorithms.sssp",
    "SSWP": "repro.algorithms.sswp",
    "PageRank": "repro.algorithms.pagerank",
    "ConnectedComponents": "repro.algorithms.components",
    "Reachability": "repro.algorithms.components",
    "run_reference": "repro.algorithms.reference",
    "ReferenceResult": "repro.algorithms.reference",
    "IterationTrace": "repro.algorithms.reference",
})

__all__ = [*_EXPORTS, "PAPER_ALGORITHMS", "make_algorithm"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

#: Table/Figure abbreviation -> exported class
_BY_ABBREVIATION = MappingProxyType({
    "BFS": "BFS",
    "SSSP": "SSSP",
    "SSWP": "SSWP",
    "PR": "PageRank",
    "PAGERANK": "PageRank",
    "CC": "ConnectedComponents",
    "REACH": "Reachability",
})


def make_algorithm(name: str, **kwargs) -> Algorithm:
    """Instantiate a paper algorithm by its Table/Figure abbreviation;
    ``kwargs`` go to PageRank, the one algorithm with parameters."""
    class_name = _BY_ABBREVIATION.get(name.upper())
    if class_name is None:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {PAPER_ALGORITHMS} "
            "or CC / REACH")
    cls = __getattr__(class_name)          # imports the class's module
    return cls(**kwargs) if class_name == "PageRank" else cls()
