"""Vertex-Centric Programming Model algorithm interface (paper Fig. 2).

VCPM expresses an iterative graph algorithm with three user-defined
functions plus activation semantics:

* ``Process_Edge(u.prop, e.weight) -> Imm`` — run per edge in the
  scatter phase (the accelerator's ePE).
* ``Reduce(v.tProp, Imm) -> v.tProp`` — commutative/associative merge
  into the temporary property array (the accelerator's vPE).
* ``Apply(v.prop, v.tProp) -> prop'`` — per-vertex synchronization at
  the end of an iteration; vertices whose property changed are activated
  for the next iteration.

Each algorithm provides the kernels twice: **scalar** (used per-datum by
the cycle simulator) and **vectorized** (used by the functional golden
model).  Both must agree — tests enforce it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graph.csr import CSRGraph


class Algorithm(ABC):
    """One VCPM algorithm: kernels + activation semantics."""

    #: short identifier used in benchmark tables ("BFS", "SSSP", ...)
    name: str = "?"
    #: True when every vertex is active every iteration (PageRank-style);
    #: iteration count is then bounded by ``default_iterations``.
    all_active: bool = False
    #: iteration bound for ``all_active`` algorithms (ignored otherwise).
    default_iterations: int = 10
    #: True when Process_Edge reads the edge weight (BFS does not).
    uses_weights: bool = True
    #: True when ``process_edge(sprop, weight) == sprop`` for all inputs
    #: (PageRank, label propagation).  Lets cycle engines skip the
    #: per-edge kernel call without changing a single produced value.
    process_is_identity: bool = False
    #: Declares ``reduce`` as one of the closed forms "min" / "max" /
    #: "add" (ties resolve to the accumulator, exactly like the
    #: ``imm if imm < acc else acc`` implementations), or ``None`` for
    #: an arbitrary reduction.  Lets the compiled engine substitute its
    #: closed form without changing a single produced bit.
    reduce_op: str | None = None
    #: Declares ``process_edge`` as "add" (``sprop + weight``) or
    #: "min" (``min(sprop, weight)``, ties to ``sprop``) so cycle
    #: engines can inline the per-edge kernel; ``None`` keeps the
    #: method call.  Ignored when ``process_is_identity`` is set, and
    #: irrelevant when ``uses_weights`` is False (the kernel is then a
    #: per-request constant engines may hoist out of the edge loop).
    process_op: str | None = None
    #: For weight-independent kernels (``uses_weights`` False, not
    #: identity): declares ``process_edge(sprop, w) == sprop + C`` so
    #: compiled engines can run the kernel without calling back into
    #: Python; ``None`` keeps the method call (those engines fall back).
    process_const: float | None = None

    # ------------------------------------------------------------------
    # State initialisation
    # ------------------------------------------------------------------
    @abstractmethod
    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        """Initial Property Array (float64, one entry per vertex)."""

    @abstractmethod
    def identity(self) -> float:
        """Reset value of the tProperty Array (identity of Reduce)."""

    def initial_active(self, graph: CSRGraph, source: int) -> np.ndarray:
        """Vertex ids active in the first scatter iteration."""
        if self.all_active:
            return np.arange(graph.num_vertices, dtype=np.int64)
        return np.array([source], dtype=np.int64)

    # ------------------------------------------------------------------
    # Scatter-side kernels
    # ------------------------------------------------------------------
    def scatter_value(self, prop: np.ndarray, out_degree: np.ndarray) -> np.ndarray:
        """Per-vertex value broadcast along out-edges in the scatter phase.

        Identity for path-style algorithms; PageRank divides the rank by
        the out-degree here (the value the ActiveVertex Array carries).
        """
        return prop

    @abstractmethod
    def process_edge(self, sprop: float, weight: int) -> float:
        """Scalar Process_Edge (cycle-simulator ePE kernel)."""

    @abstractmethod
    def process_edge_vec(self, sprop: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Vectorized Process_Edge (golden model)."""

    @abstractmethod
    def reduce(self, acc: float, imm: float) -> float:
        """Scalar Reduce (cycle-simulator vPE kernel)."""

    @abstractmethod
    def reduce_at(self, tprop: np.ndarray, dst: np.ndarray, imm: np.ndarray) -> None:
        """Vectorized in-place Reduce: fold ``imm`` into ``tprop[dst]``."""

    # ------------------------------------------------------------------
    # Apply-side kernels
    # ------------------------------------------------------------------
    @abstractmethod
    def apply(self, prop: np.ndarray, tprop: np.ndarray, graph: CSRGraph) -> np.ndarray:
        """Vectorized Apply over the whole Property Array."""

    def activation_mask(self, old_prop: np.ndarray, new_prop: np.ndarray) -> np.ndarray:
        """Vertices to activate for the next iteration (Fig. 2 line 12:
        "if v.prop != applyRes")."""
        if self.all_active:
            return np.ones(len(old_prop), dtype=bool)
        return new_prop != old_prop

    # ------------------------------------------------------------------
    def validate_graph(self, graph: CSRGraph) -> None:
        """Reject graphs this algorithm is undefined on (override as needed)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
