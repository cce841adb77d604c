"""Single-Source Widest Path as a VCPM algorithm.

Property = widest-path bottleneck from the source (maximin).  The source
has infinite width; ``Process_Edge`` narrows the path by the edge weight
(``min``), ``Reduce``/``Apply`` keep the widest (``max``).  Unreached
vertices hold width 0, so weights must be positive: a path of width 0
could not be told from no path.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import Algorithm
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph


class SSWP(Algorithm):
    name = "SSWP"
    reduce_op = "max"
    process_op = "min"

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        prop = np.zeros(graph.num_vertices, dtype=np.float64)
        prop[source] = np.inf
        return prop

    def validate_graph(self, graph: CSRGraph) -> None:
        if graph.num_edges and graph.weights.min() <= 0:
            raise ConfigError("SSWP requires strictly positive edge weights")
