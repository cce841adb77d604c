"""PageRank as a VCPM algorithm.

Property = rank.  The scatter value is ``rank / out_degree`` (computed
once per iteration when the ActiveVertex Array is rebuilt); ``Reduce``
sums the incoming contributions; ``Apply`` is the damped update
``(1 - d)/V + d * tProp``.  Every vertex is active every iteration and
the run is bounded by a fixed iteration count, matching how accelerator
papers evaluate PR (the paper notes the Offset/Edge arrays are "read in
order on the PR algorithm").

Dangling vertices (out-degree 0) simply contribute nothing; their rank
mass is not redistributed, which matches the plain VCPM formulation the
paper's Fig. 2 expresses.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.graph.csr import CSRGraph


class PageRank(Algorithm):
    name = "PR"
    all_active = True
    reduce_op = "add"
    process_op = "identity"

    def __init__(self, damping: float = 0.85, iterations: int = 10) -> None:
        self.damping = damping
        self.default_iterations = iterations

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        v = max(1, graph.num_vertices)
        return np.full(graph.num_vertices, 1.0 / v, dtype=np.float64)

    def scatter_value(self, prop: np.ndarray, out_degree: np.ndarray) -> np.ndarray:
        safe_degree = np.maximum(out_degree, 1)
        return prop / safe_degree

    def apply(self, prop: np.ndarray, tprop: np.ndarray, graph: CSRGraph) -> np.ndarray:
        v = max(1, graph.num_vertices)
        return (1.0 - self.damping) / v + self.damping * tprop

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PageRank(damping={self.damping}, iterations={self.default_iterations})"
