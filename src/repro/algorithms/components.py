"""Connected components via min-label propagation.

Not part of the paper's evaluation roster, but a standard VCPM workload
(Graphicionado and GraphDynS both evaluate it) and a useful stress case:
*every* vertex is active in the first iteration, and labels flow along
edges until a fixpoint.  On a directed graph the result is the smallest
label reachable backwards along edge direction; symmetrize the graph
(``CSRGraph`` + reversed edges) for weakly connected components.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.graph.csr import CSRGraph


class ConnectedComponents(Algorithm):
    """prop = smallest vertex id propagated so far (min-reduce)."""

    name = "CC"
    reduce_op = "min"
    process_op = "identity"

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    def initial_active(self, graph: CSRGraph, source: int) -> np.ndarray:
        # every vertex broadcasts its own label initially
        return np.arange(graph.num_vertices, dtype=np.int64)


class Reachability(Algorithm):
    """Single-source reachability: prop = 1.0 when reachable (max-reduce).

    The boolean cousin of BFS — useful when only membership matters and
    properties must stay 1-bit-narrow in hardware.
    """

    name = "REACH"
    reduce_op = "max"
    process_op = "identity"

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        prop = np.zeros(graph.num_vertices, dtype=np.float64)
        prop[source] = 1.0
        return prop
