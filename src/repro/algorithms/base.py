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

An algorithm declares its Reduce and Process_Edge as closed forms, each
written once, in :data:`REDUCE_FORMS` and :data:`PROCESS_FORMS`, as a
scalar and a vectorized kernel.  A class whose kernel is none of the
forms declares ``None`` and writes those methods; it runs on ``reference``.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections import namedtuple
from types import MappingProxyType

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

#: a closed-form Reduce: a scalar kernel (ties go to the accumulator, as
#: in the C kernel's ``red()``), a numpy ufunc (``.at`` is ``reduce_at``,
#: a plain call the default ``apply``) and an identity
ReduceForm = namedtuple("ReduceForm", "scalar ufunc identity")
#: a closed-form Process_Edge: its scalar and vectorized kernels, each
#: called with ``(sprop, weight, process_const)``
ProcessForm = namedtuple("ProcessForm", "scalar vector")

#: Reduce form -> its kernels; ``soa._RED_CODES`` names each one's C code
REDUCE_FORMS = MappingProxyType({
    "min": ReduceForm(min, np.minimum, np.inf),
    "max": ReduceForm(max, np.maximum, -np.inf),
    "add": ReduceForm(operator.add, np.add, 0.0),
})

#: Process_Edge form -> its kernels; ``soa._PROC_CODES`` names each
#: one's C code
PROCESS_FORMS = MappingProxyType({
    "identity": ProcessForm(lambda sprop, weight, const: sprop,
                            lambda sprop, weight, const: sprop),
    "add": ProcessForm(lambda sprop, weight, const: sprop + weight,
                       lambda sprop, weight, const: sprop + weight),
    "min": ProcessForm(lambda sprop, weight, const: min(float(weight), sprop),
                       lambda sprop, weight, const: np.minimum(sprop, weight)),
    "const": ProcessForm(lambda sprop, weight, const: sprop + const,
                         lambda sprop, weight, const: sprop + const),
})

#: declaration -> its forms and the methods derived from it
_DERIVED = (
    ("reduce_op", REDUCE_FORMS, ("reduce", "reduce_at", "identity", "apply")),
    ("process_op", PROCESS_FORMS, ("process_edge", "process_edge_vec")),
)


class Algorithm(ABC):
    """One VCPM algorithm: kernels + activation semantics."""

    #: short identifier used in benchmark tables ("BFS", "SSSP", ...)
    name: str = "?"
    #: True when every vertex is active every iteration (PageRank-style);
    #: iteration count is then bounded by ``default_iterations``.
    all_active: bool = False
    #: iteration bound for ``all_active`` algorithms (ignored otherwise).
    default_iterations: int = 10
    #: Reduce's closed form; ``None`` for a class that writes ``reduce``,
    #: ``reduce_at``, ``identity`` and ``apply`` itself.
    reduce_op: str | None = None
    #: Process_Edge's closed form; ``None`` for a class that writes
    #: ``process_edge`` and ``process_edge_vec`` itself.
    process_op: str | None = None
    #: what the ``const`` Process_Edge form adds (BFS's hop).
    process_const: float = 0.0

    def __init_subclass__(cls, **kwargs) -> None:
        """Refuse a class that leaves a kernel method neither derived
        from a declared form nor written, as ``abstractmethod`` would."""
        super().__init_subclass__(**kwargs)
        for declaration, forms, names in _DERIVED:
            missing = [name for name in names
                       if getattr(cls, name) is getattr(Algorithm, name)]
            if getattr(cls, declaration) not in forms and missing:
                raise AlgorithmError(
                    f"{cls.__name__} declares no {declaration} in "
                    f"{sorted(forms)} and does not write {', '.join(missing)}")

    # ------------------------------------------------------------------
    # State initialisation
    # ------------------------------------------------------------------
    @abstractmethod
    def init_prop(self, graph: CSRGraph, source: int) -> np.ndarray:
        """Initial Property Array (float64, one entry per vertex)."""

    def identity(self) -> float:
        """Reset value of the tProperty Array (identity of Reduce)."""
        return REDUCE_FORMS[self.reduce_op].identity

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

    def process_edge(self, sprop: float, weight: int) -> float:
        """Scalar Process_Edge (cycle-simulator ePE kernel)."""
        return PROCESS_FORMS[self.process_op].scalar(
            sprop, weight, self.process_const)

    def process_edge_vec(self, sprop: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Vectorized Process_Edge (golden model)."""
        return PROCESS_FORMS[self.process_op].vector(
            sprop, weight, self.process_const)

    def reduce(self, acc: float, imm: float) -> float:
        """Scalar Reduce (cycle-simulator vPE kernel)."""
        return REDUCE_FORMS[self.reduce_op].scalar(acc, imm)

    def reduce_at(self, tprop: np.ndarray, dst: np.ndarray, imm: np.ndarray) -> None:
        """Vectorized in-place Reduce: fold ``imm`` into ``tprop[dst]``."""
        REDUCE_FORMS[self.reduce_op].ufunc.at(tprop, dst, imm)

    # ------------------------------------------------------------------
    # Apply-side kernels
    # ------------------------------------------------------------------
    def apply(self, prop: np.ndarray, tprop: np.ndarray, graph: CSRGraph) -> np.ndarray:
        """Vectorized Apply over the whole Property Array: by default
        Reduce's own ufunc of the old and the reduced property."""
        return REDUCE_FORMS[self.reduce_op].ufunc(prop, tprop)

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
