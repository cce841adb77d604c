"""Compressed Sparse Row graph container (paper Fig. 1).

A graph is encoded with three arrays, exactly as in the paper:

* ``offsets`` — indexed by vertex id; entry ``u`` stores the position of
  ``u``'s first outgoing edge inside ``dst``/``weights``.  Length ``V + 1``
  so that ``offsets[u + 1] - offsets[u]`` is the out-degree.
* ``dst`` — destination vertex id of every outgoing edge (the paper's
  Edge Array, which "maintains destination vertex ID and weight").
* ``weights`` — edge weight of every outgoing edge.

The Property Array of the paper (current per-vertex value) lives with the
algorithm state, not the topology, so it is not stored here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError

#: Bit width the paper quantizes vertex ids and property values to
#: ("The ID and property data of each vertex are quantified to 19 bits
#: to fully use on-chip memory capacity", Section 5.1).
PAPER_ID_BITS = 19
#: Edge weights also travel through the datapath; the RTL uses the same
#: quantization for the values carried per edge.
PAPER_WEIGHT_BITS = 19


@dataclass(frozen=True)
class MemoryFootprint:
    """On-chip buffer footprint of one graph, in bytes, per data array.

    Mirrors the arrays of the paper's Fig. 7 layout: Offset Array,
    Edge Array (destination ids), Edge Info Array (weights), Property
    Array, and the combined ActiveVertex + tProperty Array.
    """

    offset_bytes: int
    edge_bytes: int
    edge_info_bytes: int
    property_bytes: int
    active_and_tproperty_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.offset_bytes
            + self.edge_bytes
            + self.edge_info_bytes
            + self.property_bytes
            + self.active_and_tproperty_bytes
        )


class CSRGraph:
    """Directed graph in CSR form with integer weights.

    Parameters
    ----------
    offsets:
        int64 array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``offsets[0] == 0`` and ``offsets[-1] == num_edges``.
    dst:
        int64 array of destination vertex ids, one per edge.
    weights:
        int64 array of edge weights, one per edge.  The paper assigns
        random integer weights to unweighted graphs (Section 5.1).
    name:
        Optional human-readable name (dataset registry fills this in).
    """

    def __init__(
        self,
        offsets: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
        name: str = "graph",
    ) -> None:
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.int64)
        self.name = name
        self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges,
        weights=None,
        name: str = "graph",
        dedup: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from an iterable of ``(src, dst)`` pairs.

        Edges are sorted by source (stable, so the relative order of one
        vertex's out-edges is preserved).  ``weights`` defaults to all
        ones; pass ``dedup=True`` to drop duplicate ``(src, dst)`` pairs
        (the first occurrence wins).
        """
        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                              dtype=np.int64)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphFormatError(
                f"edges must be an (E, 2) array, got shape {edge_arr.shape}"
            )
        if weights is None:
            weight_arr = np.ones(len(edge_arr), dtype=np.int64)
        else:
            weight_arr = np.asarray(weights, dtype=np.int64)
            if weight_arr.shape != (len(edge_arr),):
                raise GraphFormatError(
                    "weights must have one entry per edge: "
                    f"{weight_arr.shape} vs {len(edge_arr)} edges"
                )

        bad = (edge_arr[:, 0] < 0) | (edge_arr[:, 0] >= num_vertices)
        if bad.any():
            raise GraphFormatError(
                f"edge source {edge_arr[bad.argmax(), 0]} out of range "
                f"[0, {num_vertices})")

        if dedup and len(edge_arr):
            _, keep = np.unique(edge_arr[:, 0] * (edge_arr[:, 1].max() + 1)
                                + edge_arr[:, 1], return_index=True)
            keep.sort()
            edge_arr = edge_arr[keep]
            weight_arr = weight_arr[keep]

        offsets = np.zeros(num_vertices + 1, dtype=np.int64)
        if num_vertices:
            np.cumsum(np.bincount(edge_arr[:, 0], minlength=num_vertices),
                      out=offsets[1:])
        order = np.argsort(edge_arr[:, 0], kind="stable")
        return cls(offsets, edge_arr[order, 1], weight_arr[order], name=name)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.dst)

    @property
    def mean_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def out_degree(self, u: int | None = None):
        """Out-degree of vertex ``u``, or the full degree array if omitted."""
        if u is None:
            return np.diff(self.offsets)
        return int(self.offsets[u + 1] - self.offsets[u])

    def edges(self):
        """Iterate ``(src, dst, weight)`` triples in CSR order."""
        for u in range(self.num_vertices):
            for e in range(self.offsets[u], self.offsets[u + 1]):
                yield u, int(self.dst[e]), int(self.weights[e])

    def edge_sources(self) -> np.ndarray:
        """Per-edge source vertex ids (expanded from the offset array)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                         np.diff(self.offsets))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def subgraph_by_destination(self, lo: int, hi: int) -> "CSRGraph":
        """Keep only edges whose destination lies in ``[lo, hi)``.

        Vertex ids are preserved (not compacted): this is the slicing
        primitive used by interval-shard partitioning, where each slice
        owns a destination interval but all sources remain visible.
        """
        mask = (self.dst >= lo) & (self.dst < hi)
        srcs = self.edge_sources()[mask]
        pairs = np.stack([srcs, self.dst[mask]], axis=1)
        return CSRGraph.from_edges(self.num_vertices, pairs, self.weights[mask],
                                   name=f"{self.name}[{lo}:{hi})")

    # ------------------------------------------------------------------
    # Validation and accounting
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`GraphFormatError` on any structural inconsistency."""
        if self.offsets.ndim != 1 or len(self.offsets) < 1:
            raise GraphFormatError("offsets must be a 1-D array of length >= 1")
        if self.offsets[0] != 0:
            raise GraphFormatError(f"offsets[0] must be 0, got {self.offsets[0]}")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphFormatError("offsets must be monotonically non-decreasing")
        if self.offsets[-1] != len(self.dst):
            raise GraphFormatError(
                f"offsets[-1]={self.offsets[-1]} does not match edge count {len(self.dst)}"
            )
        if len(self.weights) != len(self.dst):
            raise GraphFormatError(
                f"weights length {len(self.weights)} != edge count {len(self.dst)}"
            )
        if len(self.dst) and (self.dst.min() < 0 or self.dst.max() >= self.num_vertices):
            raise GraphFormatError("edge destination out of range")

    def memory_footprint(
        self,
        id_bits: int = PAPER_ID_BITS,
        property_bits: int = PAPER_ID_BITS,
        weight_bits: int = PAPER_WEIGHT_BITS,
        offset_bits: int = 32,
    ) -> MemoryFootprint:
        """On-chip buffer bytes needed for this graph (paper Fig. 7 layout).

        The paper quantizes vertex id and property data to 19 bits.  Bits
        are converted to bytes at the array level (total bits / 8) because
        on-chip SRAM macros pack entries tightly.
        """
        v, e = self.num_vertices, self.num_edges

        def _bytes(count: int, bits: int) -> int:
            return (count * bits + 7) // 8

        return MemoryFootprint(
            offset_bytes=_bytes(v + 1, offset_bits),
            edge_bytes=_bytes(e, id_bits),
            edge_info_bytes=_bytes(e, weight_bits),
            property_bytes=_bytes(v, property_bits),
            # ActiveVertex Array (id + property per active vertex, worst
            # case all vertices) plus tProperty Array (one slot/vertex).
            active_and_tproperty_bytes=_bytes(v, id_bits + property_bits)
            + _bytes(v, property_bits),
        )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRGraph(name={self.name!r}, V={self.num_vertices}, "
                f"E={self.num_edges}, mean_degree={self.mean_degree:.1f})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.weights, other.weights))

    __hash__ = None  # mutable arrays: not hashable
