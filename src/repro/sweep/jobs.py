"""Sweep job planning: expand {algorithms x graphs x configs x axes}.

A :class:`SweepJob` is one independent cycle simulation — everything a
worker needs to produce one :class:`~repro.accel.stats.SimStats`
row, plus free-form ``tags`` so the caller can reassemble results into
figure tables without re-deriving which job was which.

Jobs reference their graph either **symbolically** (a :class:`GraphSpec`
naming a Table 2 dataset + scale, or a generator fixture, loaded lazily
by the executor and memoized per process) or **inline** (a concrete
:class:`~repro.graph.csr.CSRGraph`).  Both forms
yield a stable fingerprint for the result cache: specs hash their
generator parameters (generator code is covered by the cache's code
version), inline graphs hash their CSR arrays.  Planning and keying a
symbolic job builds no graph and imports no numpy; only running it
does.

Jobs are frozen and keep their cache key on the instance, so a job list
planned once (the serve daemon keeps each report section's) is keyed
once; :func:`dataclasses.replace` derives an unkeyed variant.
"""

from __future__ import annotations

import hashlib
import json
import types
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.accel.config import AcceleratorConfig
from repro.algorithms import make_algorithm
from repro.errors import SweepError
from repro.graph import datasets

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphSpec:
    """Symbolic reference to a Table 2 dataset at a given scale, or to a
    generator fixture by its :data:`~repro.graph.datasets.FIXTURES` key."""

    key: str
    scale: float = 1.0
    seed: int | None = None

    def load(self) -> CSRGraph:
        return datasets.load(self.key, scale=self.scale, seed=self.seed)

    def fingerprint(self) -> str:
        return f"spec:{self.key}:{self.scale!r}:{self.seed!r}"


def graph_fingerprint(graph: GraphSpec | CSRGraph) -> str:
    """Stable identity of a job's graph for cache keys and worker memos."""
    if isinstance(graph, GraphSpec):
        return graph.fingerprint()
    h = hashlib.sha256()
    h.update(graph.name.encode("utf-8"))
    for arr in (graph.offsets, graph.dst, graph.weights):
        h.update(arr.tobytes())
    return f"csr:{h.hexdigest()}"


@dataclass(frozen=True)
class SweepJob:
    """One independent simulation: (graph, algorithm, config, source).

    Frozen, and its dict fields (``algorithm_kwargs``, ``tags``) are not
    to be changed in place either: :meth:`cache_key` keeps its result on
    the instance.
    """

    graph: GraphSpec | CSRGraph
    algorithm: str
    config: AcceleratorConfig
    algorithm_kwargs: dict[str, Any] = field(default_factory=dict)
    source: int = 0
    max_iterations: int | None = None
    #: large-graph mode (§5.3): > 1 partitions the graph into that many
    #: destination intervals and runs the double-buffered sliced simulator
    num_slices: int = 1
    #: off-chip bandwidth for slice replacement, bytes per cycle (sliced
    #: mode only; ignored when ``num_slices == 1``)
    offchip_bytes_per_cycle: float = 64.0
    #: caller-owned labels (dataset key, config name, swept-axis values ...)
    tags: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def resolve_graph(self) -> CSRGraph:
        if isinstance(self.graph, GraphSpec):
            return self.graph.load()
        return self.graph

    def make_algorithm(self):
        return make_algorithm(self.algorithm, **self.algorithm_kwargs)

    def cache_key(self, code_version: str) -> str:
        """Content-addressed identity of this job's *result*.

        Key material: graph fingerprint, algorithm (+ kwargs), config
        hash, run parameters and the simulator code version, so any
        change to the simulation semantics invalidates the cache without
        manual versioning.  The engine that runs a job is no part of
        it: both engines produce identical stats, so they share cache
        entries (see :mod:`repro.accel.engine`).

        Kept in the instance's ``__dict__`` (outside the fields, so
        equality and ``replace`` ignore it) with the code version it was
        derived under; another version derives the key again.
        """
        memo = self.__dict__.get("_cache_key")
        if memo is not None and memo[0] == code_version:
            return memo[1]
        payload = json.dumps({
            "graph": graph_fingerprint(self.graph),
            "algorithm": self.algorithm,
            "algorithm_kwargs": self.algorithm_kwargs,
            "config": self.config.config_hash(),
            "source": self.source,
            "max_iterations": self.max_iterations,
            "num_slices": self.num_slices,
            "offchip_bytes_per_cycle":
                self.offchip_bytes_per_cycle if self.num_slices > 1 else None,
            "code": code_version,
        }, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self.__dict__["_cache_key"] = (code_version, key)
        return key

    def cost_hint(self) -> float:
        """Relative cost estimate (edges to traverse) for scheduling.

        Pool utilization on a skewed matrix improves when the largest
        jobs start first; this hint orders them without simulating.
        Symbolic specs estimate from the Table 2 registry sizes, inline
        graphs report their real edge count.  Only the *relative* order
        matters, so unknown keys degrade to "cheap", never to an error.
        """
        if isinstance(self.graph, GraphSpec):
            spec = datasets.TABLE2.get(self.graph.key)
            edges = spec.num_edges * self.graph.scale if spec else 1.0
        else:
            edges = float(self.graph.num_edges)
        if self.algorithm.upper() in ("PR", "PAGERANK"):
            # all-active iterations re-traverse every edge
            edges *= self.algorithm_kwargs.get("iterations", 2) or 1
        return edges

    def describe(self) -> str:
        graph = (self.graph.key if isinstance(self.graph, GraphSpec)
                 else self.graph.name)
        return f"{self.algorithm}/{graph}/{self.config.name}"


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

#: the type every value of a sweep axis must have: its config field's
#: (each field's default is an int, a bool or a str)
_AXIS_TYPES = types.MappingProxyType(
    {f.name: type(f.default) for f in fields(AcceleratorConfig)})
_BOOLS = types.MappingProxyType(
    {"true": True, "1": True, "false": False, "0": False})


def parse_axis_value(name: str, text: str):
    """One ``--axis`` value, parsed as the type of config field ``name``:
    an int, a bool spelled true/false/1/0, or a str (also for a field
    that does not exist, which :func:`plan_jobs` then names)."""
    kind = _AXIS_TYPES.get(name, str)
    if kind is str:
        return text
    if kind is bool:
        value = _BOOLS.get(text.lower())
    else:
        try:
            value = int(text)
        except ValueError:
            value = None
    if value is None:
        raise _bad_axis_value(name, text)
    return value


def _bad_axis_value(name: str, value) -> SweepError:
    return SweepError(f"sweep axis {name}: {value!r} is not "
                      f"{_AXIS_TYPES[name].__name__}")


def _normalize_algorithm(entry) -> tuple[str, dict]:
    if isinstance(entry, str):
        return entry, {}
    try:
        name, kwargs = entry
    except (TypeError, ValueError):
        raise SweepError(
            f"algorithm entry must be a name or (name, kwargs), got {entry!r}")
    return name, dict(kwargs)


def _normalize_graph(entry) -> GraphSpec | CSRGraph:
    if isinstance(entry, GraphSpec):
        return entry
    if isinstance(entry, str):
        return GraphSpec(entry)
    from repro.graph.csr import CSRGraph      # loaded with any CSRGraph
    if isinstance(entry, CSRGraph):
        return entry
    raise SweepError(
        f"graph entry must be a GraphSpec, CSRGraph or dataset key, got {entry!r}")


def _axis_combos(sweep_axes: Mapping[str, Sequence] | None):
    """Cartesian product over sweep axes, deterministic axis order."""
    if not sweep_axes:
        yield {}
        return
    names = list(sweep_axes)
    combos: list[dict] = [{}]
    for name in names:
        values = list(sweep_axes[name])
        if not values:
            raise SweepError(f"sweep axis {name!r} has no values")
        combos = [{**combo, name: value} for combo in combos for value in values]
    yield from combos


def plan_jobs(
    algorithms: Iterable,
    graphs: Iterable,
    configs: Mapping[str, AcceleratorConfig] | Iterable[AcceleratorConfig],
    sweep_axes: Mapping[str, Sequence] | None = None,
    source: int = 0,
    max_iterations: int | None = None,
) -> list[SweepJob]:
    """Expand the evaluation matrix into a deterministic job list.

    ``algorithms`` are names or ``(name, kwargs)`` pairs; ``graphs`` are
    dataset keys, :class:`GraphSpec` or :class:`CSRGraph`; ``configs``
    maps label -> config (or is a plain iterable, labelled by
    ``config.name``).  ``sweep_axes`` maps :class:`AcceleratorConfig`
    field names to value lists and multiplies every config by the
    cartesian product of the axes (applied via ``config.with_``); an
    unknown field, or a value that is not of its field's type, raises
    :class:`~repro.errors.SweepError`.

    Job order is the nested loop graph > algorithm > config > axes, with
    graphs outermost, so jobs on one graph run close together.  Each job is tagged with ``graph``,
    ``algorithm``, ``config`` and one tag per swept axis.
    """
    if sweep_axes:
        unknown = sorted(set(sweep_axes) - set(_AXIS_TYPES))
        if unknown:
            raise SweepError(f"unknown sweep axis field(s): {unknown}")
        for name, values in sweep_axes.items():
            for value in values:
                if type(value) is not _AXIS_TYPES[name]:
                    raise _bad_axis_value(name, value)
    if isinstance(configs, Mapping):
        config_items = list(configs.items())
    else:
        config_items = [(cfg.name, cfg) for cfg in configs]
    if not config_items:
        raise SweepError("no configs to sweep")
    alg_items = [_normalize_algorithm(a) for a in algorithms]
    if not alg_items:
        raise SweepError("no algorithms to sweep")
    graph_items = [_normalize_graph(g) for g in graphs]
    if not graph_items:
        raise SweepError("no graphs to sweep")

    jobs: list[SweepJob] = []
    for graph in graph_items:
        graph_label = graph.key if isinstance(graph, GraphSpec) else graph.name
        for alg_name, alg_kwargs in alg_items:
            for cfg_label, cfg in config_items:
                for combo in _axis_combos(sweep_axes):
                    job_cfg = cfg.with_(**combo) if combo else cfg
                    jobs.append(SweepJob(
                        graph=graph,
                        algorithm=alg_name,
                        algorithm_kwargs=alg_kwargs,
                        config=job_cfg,
                        source=source,
                        max_iterations=max_iterations,
                        tags={"graph": graph_label, "algorithm": alg_name,
                              "config": cfg_label, **combo},
                    ))
    return jobs
