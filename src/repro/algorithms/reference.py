"""Functional VCPM reference engine (golden model).

Executes paper Fig. 2 exactly — scatter over the active list, then apply
over every vertex — with fully vectorized numpy kernels.  It defines the
*semantics* the cycle simulators must reproduce: the per-iteration active
lists, the number of edges traversed, and the final Property Array.  The
accelerator integration tests assert bit-identical agreement (tolerance
only for PageRank's floating-point sums, whose reduction order differs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import Algorithm
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class IterationTrace:
    """What one scatter+apply iteration did."""

    index: int
    active_vertices: np.ndarray      # ids, ascending
    edges_traversed: int


@dataclass
class ReferenceResult:
    """Final state plus per-iteration trace of a reference run."""

    algorithm: str
    properties: np.ndarray
    iterations: list[IterationTrace] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_edges(self) -> int:
        return sum(t.edges_traversed for t in self.iterations)


def _gather_edge_indices(offsets: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Concatenated edge indices of all active vertices, CSR order.

    Standard repeat/arange trick: for active vertex ``u`` with extent
    ``[offsets[u], offsets[u+1])`` emit that range, all vectorized.
    """
    starts = offsets[active]
    lens = offsets[active + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts, lens)
    prefix = np.concatenate(([0], np.cumsum(lens)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(prefix, lens)
    return base + within


def run_reference(
    graph: CSRGraph,
    algorithm: Algorithm,
    source: int = 0,
    max_iterations: int | None = None,
    trace: bool = True,
) -> ReferenceResult:
    """Run ``algorithm`` on ``graph`` to convergence (or the iteration bound).

    ``max_iterations`` overrides the algorithm's own bound; convergent
    algorithms (BFS/SSSP/SSWP) stop when the active list empties, with a
    ``V + 1`` safety net against non-converging inputs.
    """
    algorithm.validate_graph(graph)
    if graph.num_vertices == 0:
        return ReferenceResult(algorithm.name, np.empty(0, dtype=np.float64))
    if not 0 <= source < graph.num_vertices:
        raise ConfigError(f"source {source} out of range [0, {graph.num_vertices})")

    out_degree = graph.out_degree()
    prop = algorithm.init_prop(graph, source)
    active = algorithm.initial_active(graph, source)

    if max_iterations is None:
        max_iterations = (algorithm.default_iterations if algorithm.all_active
                          else graph.num_vertices + 1)

    result = ReferenceResult(algorithm.name, prop)
    identity = algorithm.identity()

    for it in range(max_iterations):
        if active.size == 0:
            break
        # --- Scatter phase -------------------------------------------
        sprop_all = algorithm.scatter_value(prop, out_degree)
        eidx = _gather_edge_indices(graph.offsets, active)
        tprop = np.full(graph.num_vertices, identity, dtype=np.float64)
        if eidx.size:
            lens = out_degree[active]
            sprop_per_edge = np.repeat(sprop_all[active], lens)
            dsts = graph.dst[eidx]
            imm = algorithm.process_edge_vec(sprop_per_edge, graph.weights[eidx])
            algorithm.reduce_at(tprop, dsts, imm)
        # --- Apply phase ---------------------------------------------
        new_prop = algorithm.apply(prop, tprop, graph)
        changed = algorithm.activation_mask(prop, new_prop)
        if trace:
            result.iterations.append(IterationTrace(it, active, int(eidx.size)))
        prop = new_prop
        active = np.nonzero(changed)[0].astype(np.int64)
        if algorithm.all_active and it + 1 >= max_iterations:
            active = np.empty(0, dtype=np.int64)

    result.properties = prop
    return result

