"""Single-Source Shortest Path (Bellman-Ford style) as a VCPM algorithm.

Property = path length; ``Process_Edge`` adds the edge weight,
``Reduce``/``Apply`` keep the minimum.  Weights must be non-negative.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph


class SSSP(Algorithm):
    name = "SSSP"
    reduce_op = "min"
    process_op = "add"

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        prop = np.full(graph.num_vertices, np.inf, dtype=np.float64)
        prop[source] = 0.0
        return prop

    def validate_graph(self, graph: CSRGraph) -> None:
        if graph.num_edges and graph.weights.min() < 0:
            raise ConfigError("SSSP requires non-negative edge weights")
