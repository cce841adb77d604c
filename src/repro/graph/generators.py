"""Seeded synthetic graph generators.

The paper evaluates on two R-MAT graphs (Graph500 parameters) and four
SNAP social networks.  The SNAP downloads are unavailable offline, so the
dataset registry (:mod:`repro.graph.datasets`) instantiates skewed R-MAT
stand-ins with matching vertex/edge counts; this module provides the
generators themselves plus small deterministic fixtures used by tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GenerationError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import rmat_shape

#: Graph500 R-MAT partition probabilities (Ang et al. 2010), used for the
#: paper's RMAT14 / RMAT16 datasets.
GRAPH500_A = 0.57
GRAPH500_B = 0.19
GRAPH500_C = 0.19

#: The paper assigns "random integer weights" to unweighted graphs.  We
#: draw uniformly from [1, DEFAULT_MAX_WEIGHT]; any positive bound works
#: for SSSP/SSWP since only relative order matters.
DEFAULT_MAX_WEIGHT = 63


def random_weights(num_edges: int, rng: np.random.Generator,
                   max_weight: int = DEFAULT_MAX_WEIGHT) -> np.ndarray:
    """Random integer weights in ``[1, max_weight]`` (paper Section 5.1)."""
    return rng.integers(1, max_weight + 1, size=num_edges, dtype=np.int64)


def rmat(
    scale: int,
    edge_factor: float,
    a: float = GRAPH500_A,
    b: float = GRAPH500_B,
    c: float = GRAPH500_C,
    seed: int = 1,
    name: str | None = None,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> CSRGraph:
    """Recursive-MATrix power-law graph with ``2**scale`` vertices.

    ``edge_factor`` is the average out-degree; the total edge count is
    ``round(edge_factor * 2**scale)``.  Probabilities ``(a, b, c)`` and
    implied ``d = 1 - a - b - c`` steer each edge into the four quadrants
    of the adjacency matrix, one bit per recursion level, exactly as in
    the Graph500 reference generator.  Self-loops and duplicates are kept
    (hardware simulators process them like any other edge).

    As required by the Graph500 specification, vertex ids are scrambled
    with a random permutation after generation.  Without the scramble,
    R-MAT ids carry the recursion bias in their *low* bits (P(bit=0) =
    a+b per level), which would alias catastrophically with the
    accelerators' ``id mod banks`` interleaving — e.g. 0.76**5 = 25% of
    all edges would land in tProperty bank 0 of a 32-bank design.

    The CSR arrays are built in place, in the edge order of a stable
    sort by source (``CSRGraph.from_edges``'s).  The three arrays the
    graph keeps are allocated before any temporary, and each temporary
    is updated in place, so no freed temporary is left resident below
    a kept array (``docs/performance.md``, "Graph generation").
    """
    if scale < 0 or scale > 30:
        raise GenerationError(f"rmat scale {scale} out of supported range [0, 30]")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or a <= 0:
        raise GenerationError(f"invalid rmat probabilities a={a} b={b} c={c} (d={d:.3f})")

    num_vertices, num_edges = rmat_shape(scale, edge_factor)
    rng = np.random.default_rng(seed)
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    dst_out = np.empty(num_edges, dtype=np.int64)
    weights = np.empty(num_edges, dtype=np.int64)

    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    r = np.empty(num_edges)
    bit = np.empty(num_edges, dtype=bool)
    tmp = np.empty(num_edges, dtype=bool)
    # One recursion level per scale bit: pick the quadrant for all edges
    # at once, vectorized.
    for _level in range(scale):
        rng.random(out=r)
        np.greater_equal(r, a + b, out=bit)      # quadrants c, d set the row bit
        src <<= 1
        src |= bit
        np.greater_equal(r, a, out=bit)          # quadrants b, d set the column bit
        np.less(r, a + b, out=tmp)
        bit &= tmp
        np.greater_equal(r, a + b + c, out=tmp)
        bit |= tmp
        dst <<= 1
        dst |= bit
    del r, bit, tmp

    # Graph500 scramble step: relabel vertices with a random permutation.
    # ``weights`` holds the relabelled sources until the weights are
    # drawn, and ``src`` the relabelled destinations.
    perm = rng.permutation(num_vertices).astype(np.int64, copy=False)
    np.take(perm, src, out=weights)
    np.take(perm, dst, out=src)
    del perm, dst

    np.cumsum(np.bincount(weights, minlength=num_vertices), out=offsets[1:])
    # Sorting draws nothing, so the weights are drawn from the same
    # generator state as if they were drawn before it.
    order = np.argsort(weights, kind="stable")
    np.take(src, order, out=dst_out)
    del src
    np.take(random_weights(num_edges, rng, max_weight), order, out=weights)
    return CSRGraph(offsets, dst_out, weights, name=name or f"rmat{scale}")


def erdos_renyi(
    num_vertices: int,
    num_edges: int,
    seed: int = 1,
    name: str = "erdos-renyi",
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> CSRGraph:
    """Uniform random directed graph with exactly ``num_edges`` edges."""
    if num_vertices <= 0:
        raise GenerationError("erdos_renyi needs at least one vertex")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    weights = random_weights(num_edges, rng, max_weight)
    return CSRGraph.from_edges(num_vertices, np.stack([src, dst], axis=1),
                               weights, name=name)


def preferential_attachment(
    num_vertices: int,
    out_degree: int,
    seed: int = 1,
    name: str = "pref-attach",
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> CSRGraph:
    """Barabási–Albert-style graph: each new vertex attaches to ``out_degree``
    earlier vertices with probability proportional to their in-degree.

    Produces the heavy-tailed *in*-degree skew typical of social graphs —
    the distribution that stresses the dataflow-propagation site, because
    many edges funnel into few destination channels.
    """
    if num_vertices < 2 or out_degree < 1:
        raise GenerationError("preferential_attachment needs >=2 vertices, degree >=1")
    rng = np.random.default_rng(seed)
    targets: list[int] = []
    sources: list[int] = []
    # Repeated-node list trick: sampling uniformly from `attachment`
    # implements degree-proportional choice.
    attachment = [0]
    for v in range(1, num_vertices):
        k = min(out_degree, len(attachment))
        idx = rng.integers(0, len(attachment), size=k)
        chosen = [attachment[i] for i in idx]
        for t in chosen:
            sources.append(v)
            targets.append(t)
            attachment.append(t)
        attachment.append(v)
    pairs = np.stack([np.array(sources, dtype=np.int64),
                      np.array(targets, dtype=np.int64)], axis=1)
    weights = random_weights(len(sources), rng, max_weight)
    return CSRGraph.from_edges(num_vertices, pairs, weights, name=name)


# ----------------------------------------------------------------------
# Small deterministic fixtures (used heavily in unit tests and examples)
# ----------------------------------------------------------------------

def chain(num_vertices: int, weight: int = 1, name: str = "chain") -> CSRGraph:
    """Directed path 0 -> 1 -> ... -> V-1."""
    if num_vertices < 1:
        raise GenerationError("chain needs at least one vertex")
    pairs = np.stack([np.arange(num_vertices - 1, dtype=np.int64),
                      np.arange(1, num_vertices, dtype=np.int64)], axis=1)
    weights = np.full(num_vertices - 1, weight, dtype=np.int64)
    return CSRGraph.from_edges(num_vertices, pairs, weights, name=name)


def star(num_leaves: int, weight: int = 1, name: str = "star") -> CSRGraph:
    """Vertex 0 pointing at ``num_leaves`` leaves — a pure fan-out hotspot."""
    if num_leaves < 1:
        raise GenerationError("star needs at least one leaf")
    pairs = np.stack([np.zeros(num_leaves, dtype=np.int64),
                      np.arange(1, num_leaves + 1, dtype=np.int64)], axis=1)
    weights = np.full(num_leaves, weight, dtype=np.int64)
    return CSRGraph.from_edges(num_leaves + 1, pairs, weights, name=name)


def inverse_star(num_sources: int, weight: int = 1, name: str = "inverse-star") -> CSRGraph:
    """All vertices pointing at vertex 0 — a pure reduce hotspot that
    saturates one vPE and exposes head-of-line blocking in crossbars."""
    if num_sources < 1:
        raise GenerationError("inverse_star needs at least one source")
    pairs = np.stack([np.arange(1, num_sources + 1, dtype=np.int64),
                      np.zeros(num_sources, dtype=np.int64)], axis=1)
    weights = np.full(num_sources, weight, dtype=np.int64)
    return CSRGraph.from_edges(num_sources + 1, pairs, weights, name=name)


def complete(num_vertices: int, weight: int = 1, name: str = "complete") -> CSRGraph:
    """Complete directed graph without self loops."""
    if num_vertices < 1:
        raise GenerationError("complete needs at least one vertex")
    src, dst = np.meshgrid(np.arange(num_vertices), np.arange(num_vertices),
                           indexing="ij")
    mask = src != dst
    pairs = np.stack([src[mask], dst[mask]], axis=1).astype(np.int64)
    weights = np.full(len(pairs), weight, dtype=np.int64)
    return CSRGraph.from_edges(num_vertices, pairs, weights, name=name)


def grid_2d(rows: int, cols: int, weight: int = 1, name: str = "grid") -> CSRGraph:
    """Four-neighbour 2-D mesh (both directions) — the regular topology of
    EDA placement/routing workloads that motivate the paper's intro."""
    if rows < 1 or cols < 1:
        raise GenerationError("grid_2d needs positive dimensions")
    pairs = []
    def vid(r: int, c: int) -> int:
        return r * cols + c
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((vid(r, c), vid(r, c + 1)))
                pairs.append((vid(r, c + 1), vid(r, c)))
            if r + 1 < rows:
                pairs.append((vid(r, c), vid(r + 1, c)))
                pairs.append((vid(r + 1, c), vid(r, c)))
    arr = np.array(pairs, dtype=np.int64) if pairs else np.zeros((0, 2), dtype=np.int64)
    weights = np.full(len(arr), weight, dtype=np.int64)
    return CSRGraph.from_edges(rows * cols, arr, weights, name=name)
