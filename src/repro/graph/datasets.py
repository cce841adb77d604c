"""Benchmark dataset registry (paper Table 2).

The paper evaluates on four SNAP graphs and two Graph500 R-MAT graphs:

=========  ========  ========  =======  ==============================
Name       Vertices  Edges     Degree   Description
=========  ========  ========  =======  ==============================
VT          7 K      0.10 M     15      Wikipedia who-votes-on-whom
EP         76 K      0.51 M      7      Epinions who-trusts-whom
SL         82 K      0.95 M     12      Slashdot social network
TW         81 K      1.77 M     22      Twitter social circles
R14        16 K      1.05 M     64      Synthetic graph (RMAT scale 14)
R16        66 K      4.19 M     64      Synthetic graph (RMAT scale 16)
=========  ========  ========  =======  ==============================

SNAP downloads are unavailable in this offline environment, so the four
real-world graphs are **synthetic stand-ins**: skewed R-MAT graphs with
the same vertex count, edge count and therefore mean degree.  The R-MAT
datasets are generated directly with Graph500 parameters, as in the
paper.

``load(spec, scale=...)`` supports proportional down-scaling (both |V|
and |E| shrink, preserving mean degree) so the full figure suite runs in
seconds; :data:`repro.bench.harness.DEFAULT_BENCH_SCALES` holds the
scale each committed table used.

The registry and the size rule (:func:`shape`) import no numpy, so a
report that only reads cached results never does; :func:`load`
imports the generators when it builds a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.errors import GenerationError

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

#: Environment variable consulted by the benchmark harness for a global
#: dataset scale (1.0 = paper-sized graphs).
SCALE_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True)
class DatasetSpec:
    """One row of paper Table 2."""

    key: str
    full_name: str
    num_vertices: int
    num_edges: int
    degree: int                 # the paper's reported mean degree
    description: str
    synthetic: bool             # True for R14/R16 (real R-MAT in the paper)
    rmat_a: float               # stand-in generator skew
    rmat_b: float
    rmat_c: float
    seed: int

    @property
    def mean_degree(self) -> float:
        return self.num_edges / self.num_vertices


def _spec(key, full_name, v, e, degree, description, synthetic, skew, seed):
    # Social-network stand-ins use a skewed R-MAT; Graph500 graphs use
    # the canonical (0.57, 0.19, 0.19).
    a, b, c = skew
    return DatasetSpec(key, full_name, v, e, degree, description,
                       synthetic, a, b, c, seed)


#: Registry keyed by the paper's abbreviations.  Vertex counts follow the
#: actual SNAP graphs the paper cites (Table 2 rounds them).
TABLE2: dict[str, DatasetSpec] = {
    "VT": _spec("VT", "wiki-Vote", 7_115, 103_689, 15,
                "Wikipedia who-votes-on-whom (stand-in)", False,
                (0.50, 0.22, 0.22), 101),
    "EP": _spec("EP", "soc-Epinions1", 75_879, 508_837, 7,
                "Epinions who-trusts-whom (stand-in)", False,
                (0.52, 0.21, 0.21), 102),
    "SL": _spec("SL", "soc-Slashdot0902", 82_168, 948_464, 12,
                "Slashdot social network (stand-in)", False,
                (0.52, 0.21, 0.21), 103),
    "TW": _spec("TW", "ego-Twitter", 81_306, 1_768_149, 22,
                "Twitter social circles (stand-in)", False,
                (0.55, 0.20, 0.20), 104),
    "R14": _spec("R14", "RMAT14", 16_384, 1_048_576, 64,
                 "Graph500 R-MAT, scale 14, edge factor 64", True,
                 (0.57, 0.19, 0.19), 114),
    "R16": _spec("R16", "RMAT16", 65_536, 4_194_304, 64,
                 "Graph500 R-MAT, scale 16, edge factor 64", True,
                 (0.57, 0.19, 0.19), 116),
}

#: Dataset order used by every figure in the paper.
DATASET_ORDER = ("VT", "EP", "SL", "TW", "R14", "R16")

#: Generator fixtures that :func:`load` builds by key, so that a job can
#: name one as it names a dataset: key -> (function of
#: :mod:`repro.graph.generators`, vertex count).  The §2.2 latency
#: ablation's chain is one.
FIXTURES = MappingProxyType({"chain256": ("chain", 256)})


def rmat_shape(scale: int, edge_factor: float) -> tuple[int, int]:
    """``(num_vertices, num_edges)`` of an R-MAT graph, without
    generating it (self-loops and duplicates are kept, so every drawn
    edge survives).  :func:`~repro.graph.generators.rmat` generates to
    this rule; it lives here so that :func:`shape` needs no numpy."""
    num_vertices = 1 << scale
    return num_vertices, int(round(edge_factor * num_vertices))


def _rmat_scale(key: str, scale: float) -> tuple[DatasetSpec, int]:
    """The dataset's registry row and the R-MAT scale it generates at."""
    if key not in TABLE2:
        raise GenerationError(f"unknown dataset {key!r}; known: {sorted(TABLE2)}")
    if not 0.0 < scale <= 1.0:
        raise GenerationError(f"scale must be in (0, 1], got {scale}")
    spec = TABLE2[key]
    target_v = max(64, int(round(spec.num_vertices * scale)))
    return spec, max(6, int(round(math.log2(target_v))))


def shape(key: str, scale: float = 1.0) -> tuple[int, int]:
    """``(num_vertices, num_edges)`` that :func:`load` generates for
    ``key`` at ``scale`` (any seed), computed without generating it."""
    spec, rmat_scale = _rmat_scale(key, scale)
    return rmat_shape(rmat_scale, spec.mean_degree)


def load(key: str, scale: float = 1.0, seed: int | None = None) -> CSRGraph:
    """Instantiate a Table 2 dataset (or a proportionally scaled version),
    or the generator fixture :data:`FIXTURES` names ``key``.

    ``scale`` shrinks |V| and |E| together so the mean degree — the knob
    that decides whether the front end or the back end is the bottleneck
    — is preserved **exactly**.  Vertex count is rounded to the nearest
    power of two (the generator is R-MAT), and the edge count follows
    from the paper's mean degree; :func:`shape` gives both sizes without
    generating the graph.  A fixture has no scale and no seed.
    """
    from repro.graph import generators

    if key in FIXTURES:
        if scale != 1.0 or seed is not None:
            raise GenerationError(
                f"fixture {key!r} takes no scale or seed, got "
                f"scale={scale!r} seed={seed!r}")
        generator, size = FIXTURES[key]
        return getattr(generators, generator)(size)
    spec, rmat_scale = _rmat_scale(key, scale)
    full_scale = max(6, int(round(math.log2(spec.num_vertices))))
    a, b, c = _rescaled_probabilities(spec, rmat_scale, full_scale)
    return generators.rmat(
        rmat_scale, spec.mean_degree, a=a, b=b, c=c,
        seed=spec.seed if seed is None else seed,
        name=f"{spec.key}" + ("" if scale == 1.0 else f"@{scale:g}"))


def _rescaled_probabilities(spec: DatasetSpec, rmat_scale: int,
                            full_scale: int) -> tuple[float, float, float]:
    """Skew-preserving R-MAT probabilities for a down-scaled stand-in.

    R-MAT's hottest *destination* receives an ``(a+c)**scale`` share of
    all edges (the column marginal), so generating a smaller graph with
    the full-size probabilities inflates the hub's relative weight — and
    the hot tProperty-bank bound would then dominate every design
    identically, flattening exactly the comparisons the benchmarks exist
    to show.  We temper the quadrant distribution with a power ``gamma``
    (``p' ~ p**gamma``, renormalized — Graph500 probabilities stay a
    valid distribution for any gamma) chosen by bisection so the scaled
    graph keeps the full-size hub share:
    ``(a'+c')**rmat_scale == (a+c)**full_scale``.
    """
    if rmat_scale >= full_scale:
        return spec.rmat_a, spec.rmat_b, spec.rmat_c
    probs = (spec.rmat_a, spec.rmat_b, spec.rmat_c,
             1.0 - spec.rmat_a - spec.rmat_b - spec.rmat_c)
    target = (spec.rmat_a + spec.rmat_c) ** (full_scale / rmat_scale)

    def col_marginal(gamma: float) -> float:
        tempered = [p ** gamma for p in probs]
        z = sum(tempered)
        return (tempered[0] + tempered[2]) / z

    lo, hi = 0.0, 1.0          # gamma=0 -> uniform (0.5); gamma=1 -> original
    for _ in range(60):
        mid = (lo + hi) / 2
        if col_marginal(mid) < target:
            lo = mid
        else:
            hi = mid
    gamma = (lo + hi) / 2
    tempered = [p ** gamma for p in probs]
    z = sum(tempered)
    return tempered[0] / z, tempered[1] / z, tempered[2] / z
