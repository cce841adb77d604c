"""Graph slicing for on-chip memory (paper §5.3 Discussion).

"For the large graph processing, the graph can be partitioned into small
slices, so that each slice is processed on chip [Graphicionado].  ...
the time consumed in the replacement of slices can be overlapped using
double buffer design."

We implement the interval-shard scheme the cited works use: slice ``k``
owns a contiguous **destination-vertex interval** and contains every
edge pointing into it.  One scatter iteration processes slices
sequentially; tProperty for a slice fits on chip by construction.  The
double-buffer overlap model is in :mod:`repro.accel.accelerator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CapacityError
from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphSlice:
    """One destination interval of a sliced graph."""

    index: int
    dst_lo: int
    dst_hi: int
    graph: CSRGraph              # edges into [dst_lo, dst_hi), source ids preserved

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


def slice_count_for_budget(graph: CSRGraph, budget_bytes: int,
                           id_bits: int = 19) -> int:
    """Smallest slice count whose worst-case slice footprint fits the budget.

    The offset/property/active arrays are shared across slices; the edge
    arrays shrink proportionally with slicing.  A uniform-edge split is
    assumed for sizing (the partitioner then balances by construction of
    equal destination intervals; skew is tolerated via the ``safety``
    margin below).
    """
    fp = graph.memory_footprint(id_bits=id_bits)
    fixed = fp.offset_bytes + fp.property_bytes + fp.active_and_tproperty_bytes
    per_edge = fp.edge_bytes + fp.edge_info_bytes
    if fixed > budget_bytes:
        raise CapacityError(
            f"vertex-indexed arrays alone ({fixed} B) exceed the on-chip budget "
            f"({budget_bytes} B); graph {graph.name} cannot be sliced by edges only"
        )
    remaining = budget_bytes - fixed
    if remaining <= 0:
        raise CapacityError("no on-chip capacity left for edge data")
    slices = max(1, -(-per_edge // remaining))  # ceil division
    return int(slices)


def _destination_bounds(num_vertices: int, num_slices: int) -> np.ndarray:
    """``num_slices + 1`` boundaries of equal destination intervals."""
    if num_slices < 1:
        raise CapacityError(f"num_slices must be >= 1, got {num_slices}")
    return np.linspace(0, num_vertices, num_slices + 1).astype(np.int64)


def partition_by_destination(graph: CSRGraph, num_slices: int) -> list[GraphSlice]:
    """Split into ``num_slices`` equal destination intervals."""
    bounds = _destination_bounds(graph.num_vertices, num_slices)
    slices = []
    for k in range(num_slices):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        slices.append(GraphSlice(k, lo, hi, graph.subgraph_by_destination(lo, hi)))
    return slices


def destination_slice_edges(graph: CSRGraph, num_slices: int) -> list[int]:
    """Edge count of each :func:`partition_by_destination` slice, without
    building the slices: one in-degree histogram, summed per interval."""
    bounds = _destination_bounds(graph.num_vertices, num_slices)
    in_edges = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.dst, minlength=graph.num_vertices),
              out=in_edges[1:])
    return np.diff(in_edges[bounds]).tolist()


def partition_for_budget(graph: CSRGraph, budget_bytes: int,
                         id_bits: int = 19) -> list[GraphSlice]:
    """Partition so every slice fits ``budget_bytes`` of on-chip memory.

    Starts from the uniform-split estimate and doubles the slice count
    until every produced slice fits (destination skew can make one
    interval heavier than the uniform estimate assumes).  Terminates
    because intervals eventually hold a single vertex.
    """
    count = slice_count_for_budget(graph, budget_bytes, id_bits)
    while True:
        slices = partition_by_destination(graph, count)
        if all(_slice_fits(s, graph, budget_bytes, id_bits) for s in slices):
            return slices
        if count >= graph.num_vertices:
            raise CapacityError(
                f"graph {graph.name} has a single destination interval that "
                f"exceeds the on-chip budget even fully sliced")
        count = min(count * 2, graph.num_vertices)


def _slice_fits(s: GraphSlice, graph: CSRGraph, budget_bytes: int,
                id_bits: int) -> bool:
    fp = graph.memory_footprint(id_bits=id_bits)
    per_edge_bits = (fp.edge_bytes + fp.edge_info_bytes) * 8 / max(1, graph.num_edges)
    slice_edge_bytes = int(s.num_edges * per_edge_bits / 8)
    fixed = fp.offset_bytes + fp.property_bytes + fp.active_and_tproperty_bytes
    return fixed + slice_edge_bytes <= budget_bytes
