"""VCPM algorithm layer: kernels (Fig. 2) and the functional golden model."""

from repro.algorithms.base import Algorithm
from repro.algorithms.bfs import BFS
from repro.algorithms.components import ConnectedComponents, Reachability
from repro.algorithms.pagerank import PageRank
from repro.algorithms.reference import (
    IterationTrace,
    ReferenceResult,
    run_reference,
)
from repro.algorithms.sssp import SSSP
from repro.algorithms.sswp import SSWP

#: Algorithm roster of the paper's evaluation, in figure order.
PAPER_ALGORITHMS = ("BFS", "SSSP", "SSWP", "PR")


def make_algorithm(name: str, **kwargs) -> Algorithm:
    """Instantiate a paper algorithm by its Table/Figure abbreviation."""
    key = name.upper()
    if key == "BFS":
        return BFS()
    if key == "SSSP":
        return SSSP()
    if key == "SSWP":
        return SSWP()
    if key in ("PR", "PAGERANK"):
        return PageRank(**kwargs)
    if key == "CC":
        return ConnectedComponents()
    if key == "REACH":
        return Reachability()
    raise ValueError(
        f"unknown algorithm {name!r}; expected one of {PAPER_ALGORITHMS} "
        "or CC / REACH")


__all__ = [
    "Algorithm",
    "BFS",
    "SSSP",
    "SSWP",
    "PageRank",
    "ConnectedComponents",
    "Reachability",
    "PAPER_ALGORITHMS",
    "make_algorithm",
    "run_reference",
    "ReferenceResult",
    "IterationTrace",
]
