"""Breadth-First Search as a VCPM algorithm.

Property = hop distance from the source; ``Process_Edge`` adds one hop,
``Reduce`` keeps the minimum, ``Apply`` keeps the smaller of old and new.
Unreached vertices hold ``inf``.  Weights are ignored.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.graph.csr import CSRGraph


class BFS(Algorithm):
    name = "BFS"
    reduce_op = "min"
    process_op = "const"
    process_const = 1.0

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        prop = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        prop[source] = 0.0
        return prop
