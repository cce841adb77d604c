#!/usr/bin/env python3
"""Define a new VCPM algorithm and run it on the simulated hardware.

The accelerator executes any algorithm expressible as
Process_Edge / Reduce / Apply (paper Fig. 2).  This example adds
**connected-component labelling** (label propagation: every vertex
adopts the smallest id it has heard of) — an algorithm the paper does
not evaluate — and runs it unmodified on all three designs.

Declare or override.  When a kernel is one of the closed forms in
``repro.algorithms.base`` (Reduce ``min``/``max``/``add``, Process_Edge
``identity``/``add``/``min``/``const``), declare it, as the shipped
algorithms do: ``reduce_op = "min"`` and ``process_op = "identity"``
would give this class every kernel method, and its runs would march in
the compiled ``soa`` kernel.  Override the methods instead only when a
kernel is none of those forms.  This class writes them out to show how:
it declares no form, so it runs on the golden ``reference`` engine,
which calls its methods per datum.
"""

import numpy as np

from repro.accel import graphdyns, higraph, simulate
from repro.algorithms import run_reference
from repro.algorithms.base import Algorithm
from repro.graph import CSRGraph, erdos_renyi


class ConnectedComponents(Algorithm):
    """Label propagation: prop = smallest vertex id seen (min-reduce).

    On a directed graph this computes reachability-closed labels along
    edge direction; run it on a symmetrized graph for true weakly
    connected components.
    """

    name = "CC"

    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        return np.arange(graph.num_vertices, dtype=np.float64)

    def initial_active(self, graph: CSRGraph, source: int) -> np.ndarray:
        # every vertex broadcasts its own label in the first iteration
        return np.arange(graph.num_vertices, dtype=np.int64)

    def identity(self) -> float:
        return np.inf

    def process_edge(self, sprop: float, weight: int) -> float:
        return sprop

    def process_edge_vec(self, sprop, weight):
        return sprop

    def reduce(self, acc: float, imm: float) -> float:
        return imm if imm < acc else acc

    def reduce_at(self, tprop, dst, imm) -> None:
        np.minimum.at(tprop, dst, imm)

    def apply(self, prop, tprop, graph) -> np.ndarray:
        return np.minimum(prop, tprop)


def symmetrize(graph: CSRGraph) -> CSRGraph:
    src = graph.edge_sources()
    both = np.concatenate([np.stack([src, graph.dst], axis=1),
                           np.stack([graph.dst, src], axis=1)])
    return CSRGraph.from_edges(graph.num_vertices, both, name=f"{graph.name}-sym")


def main() -> None:
    graph = symmetrize(erdos_renyi(600, 900, seed=42))
    algorithm = ConnectedComponents()
    print(f"workload: {algorithm.name} on {graph}")

    reference = run_reference(graph, algorithm, source=0)
    labels = reference.properties
    num_components = len(np.unique(labels))
    print(f"components found (golden model): {num_components}")

    for config in (higraph(), graphdyns()):
        result = simulate(config, graph, algorithm)
        assert np.array_equal(result.properties, labels)
        print(f"{config.name:10s}: {result.stats.total_cycles:7d} cycles, "
              f"{result.gteps:5.2f} GTEPS, "
              f"{result.stats.iterations} iterations — matches golden model")

    print("\ncustom algorithms run on the simulated hardware unchanged;")
    print("anything expressible as Process_Edge/Reduce/Apply works.")


if __name__ == "__main__":
    main()
