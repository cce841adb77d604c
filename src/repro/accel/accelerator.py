"""Cycle-level accelerator simulator: scatter/apply orchestration (Fig. 6).

:func:`run_vcpm` is the one VCPM iteration loop; :class:`AcceleratorSim`
and the sliced simulator (:mod:`repro.accel.slicing`) both run it,
each with its own per-iteration scatter:

* **Scatter**: ActiveVertex parts -> offset access (site ①) ->
  ``{Off, Len}`` requests -> edge access (site ②) -> ePEs
  (``Process_Edge``) -> dataflow propagation (site ③) -> vPEs
  (``Reduce`` into tProperty banks).  Simulated cycle by cycle,
  sink-to-source, with every queue capacity and bank port enforced.
  The cycle loop itself is pluggable — see :mod:`repro.accel.engine`
  for the ``reference`` (golden) and ``soa`` (compiled C march,
  cycle-exact) scatter engines.
* **Apply**: a vectorized pass over the Property Array
  (``ceil(V / m)`` cycles — m-parallel streaming), which also builds
  the next iteration's ActiveVertex parts (round-robin in activation
  order, so PageRank's all-active list maps onto channels in order).

The simulated result must equal the functional golden model
(:func:`repro.algorithms.run_reference`) exactly — integration tests
enforce it — while the cycle counts expose the datapath conflicts the
paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.config import AcceleratorConfig
from repro.accel.engine import make_engine, resolve_engine
from repro.accel.stats import SimStats
from repro.algorithms.base import Algorithm
from repro.errors import ConfigError, SimulationError
from repro.graph.csr import CSRGraph

#: Streaming latency constant added per apply pass (pipeline fill/drain).
APPLY_PIPELINE_LATENCY = 4


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    stats: SimStats
    properties: np.ndarray

    @property
    def gteps(self) -> float:
        return self.stats.gteps


class AcceleratorSim:
    """Simulates one accelerator configuration on one graph + algorithm.

    ``engine`` selects the scatter-phase implementation (``reference``
    or ``soa``; default :data:`~repro.accel.engine.DEFAULT_ENGINE`),
    and ``self.engine.name`` says which ran.  Both produce identical
    :class:`SimStats`; ``soa`` raises
    :class:`~repro.errors.SimulationError` when its kernel cannot load.
    Pipeline tracing samples live component state, which only the
    reference engine has, so a ``tracer`` forces (and requires) it.
    """

    def __init__(self, config: AcceleratorConfig, graph: CSRGraph,
                 algorithm: Algorithm, tracer=None,
                 engine: str | None = None) -> None:
        algorithm.validate_graph(graph)
        self.config = config
        self.graph = graph
        self.algorithm = algorithm
        self.tracer = tracer        # optional repro.accel.trace.PipelineTracer
        self.out_degree = graph.out_degree()

        if tracer is not None:
            if engine is not None and resolve_engine(engine) != "reference":
                raise SimulationError(
                    "pipeline tracing samples live component queues, which "
                    "only the reference engine has; drop the tracer or pass "
                    "engine='reference'")
            engine = "reference"
        self.engine = make_engine(resolve_engine(engine), self)

    # ------------------------------------------------------------------
    def run(self, source: int = 0, max_iterations: int | None = None) -> SimResult:
        """Execute the algorithm to convergence (or the iteration bound)."""
        result = run_vcpm(self, self.engine.scatter_phase, source,
                          max_iterations)
        self.engine.harvest(result.stats)
        return result


def run_vcpm(sim, scatter, source: int,
             max_iterations: int | None) -> SimResult:
    """The VCPM iteration loop of ``sim`` (its ``config``, ``graph``,
    ``algorithm`` and ``out_degree``), from ``source``.

    Each iteration seeds a float64 tProperty with the identity of
    Reduce, calls ``scatter(active, sprop_all, tprop, stats)`` to reduce
    the phase into it, then applies and activates.
    """
    graph, alg = sim.graph, sim.algorithm
    v = graph.num_vertices
    stats = SimStats(config_name=sim.config.name, algorithm=alg.name,
                     graph_name=graph.name,
                     frequency_ghz=sim.config.frequency_ghz())
    if v == 0:
        return SimResult(stats, np.empty(0, dtype=np.float64))
    if not 0 <= source < v:
        raise ConfigError(f"source {source} out of range [0, {v})")

    prop = alg.init_prop(graph, source)
    active = alg.initial_active(graph, source)
    if max_iterations is None:
        max_iterations = (alg.default_iterations if alg.all_active else v + 1)
    identity = alg.identity()
    m = sim.config.back_channels

    iteration = 0
    while active.size and iteration < max_iterations:
        sprop_all = alg.scatter_value(prop, sim.out_degree)
        tprop = np.full(v, identity, dtype=np.float64)
        scatter(active, sprop_all, tprop, stats)
        new_prop = alg.apply(prop, tprop, graph)
        changed = alg.activation_mask(prop, new_prop)
        stats.apply_cycles += -(-v // m) + APPLY_PIPELINE_LATENCY
        stats.iterations += 1
        stats.active_vertices_total += int(active.size)
        prop = new_prop
        active = np.nonzero(changed)[0].astype(np.int64)
        iteration += 1
    return SimResult(stats, prop)


def simulate(config: AcceleratorConfig, graph: CSRGraph, algorithm: Algorithm,
             source: int = 0, max_iterations: int | None = None,
             engine: str | None = None) -> SimResult:
    """One-shot convenience wrapper: build the simulator and run it."""
    return AcceleratorSim(config, graph, algorithm,
                          engine=engine).run(source, max_iterations)
