"""Large-graph execution via slicing + double buffering (§5.3 Discussion).

"For the large graph processing, the graph can be partitioned into small
slices, so that each slice is processed on chip.  Therefore, our
optimizations can improve throughput in large-scale graph analytics.
Besides, the time consumed in the replacement of slices can be
overlapped using double buffer design."

Each slice owns a destination-vertex interval and all edges into it.
One VCPM iteration scatters the active list once per slice (tProperty
accumulates across slices, since Reduce is commutative/associative) and
applies once.  Slice replacement traffic is modelled as
``slice_bytes / offchip_bytes_per_cycle`` and, with double buffering,
only the part of a load not hidden behind the previous slice's compute
is charged to the run; the un-overlapped total is kept beside it, so
the §5.3 section can compare single and double buffering from the
cached stats alone.
"""

from __future__ import annotations

import math

from repro.accel.accelerator import AcceleratorSim, SimResult, run_vcpm
from repro.accel.config import (
    DESIGN_ID_BITS,
    DESIGN_WEIGHT_BITS,
    AcceleratorConfig,
)
from repro.accel.stats import SimStats
from repro.algorithms.base import Algorithm
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.partition import GraphSlice, partition_for_budget


def slice_load_cycles(num_edges: int, offchip_bytes_per_cycle: float) -> int:
    """Cycles to stream one slice's edge data from off-chip memory.

    A zero-edge slice costs nothing; a negative edge count or a
    non-positive / non-finite bandwidth is a configuration error, not a
    cycle count of 0 or ``inf``.
    """
    if num_edges < 0:
        raise ConfigError(f"num_edges must be >= 0, got {num_edges}")
    if not math.isfinite(offchip_bytes_per_cycle) or offchip_bytes_per_cycle <= 0:
        raise ConfigError(
            f"offchip_bytes_per_cycle must be a positive finite number, "
            f"got {offchip_bytes_per_cycle}")
    if num_edges == 0:
        return 0
    bits_per_edge = DESIGN_ID_BITS + DESIGN_WEIGHT_BITS
    bytes_needed = num_edges * bits_per_edge / 8
    return math.ceil(bytes_needed / offchip_bytes_per_cycle)


class SlicedAcceleratorSim:
    """Runs :func:`~repro.accel.accelerator.run_vcpm` with one
    :class:`AcceleratorSim` engine per slice, double-buffered."""

    def __init__(self, config: AcceleratorConfig, graph: CSRGraph,
                 algorithm: Algorithm,
                 slices: list[GraphSlice] | None = None,
                 offchip_bytes_per_cycle: float = 64.0,
                 engine: str | None = None) -> None:
        if not math.isfinite(offchip_bytes_per_cycle) or offchip_bytes_per_cycle <= 0:
            raise ConfigError("offchip_bytes_per_cycle must be positive and finite")
        self.config = config
        self.graph = graph
        self.algorithm = algorithm
        self.offchip_bytes_per_cycle = offchip_bytes_per_cycle
        self.slices = slices if slices is not None else partition_for_budget(
            graph, config.onchip_memory_bytes, id_bits=DESIGN_ID_BITS)
        self.slice_sims = [AcceleratorSim(config, s.graph, algorithm,
                                          engine=engine)
                           for s in self.slices]
        self.out_degree = graph.out_degree()

    # ------------------------------------------------------------------
    def run(self, source: int = 0, max_iterations: int | None = None) -> SimResult:
        loads = [slice_load_cycles(s.num_edges, self.offchip_bytes_per_cycle)
                 for s in self.slices]
        raw_load = sum(loads)

        def scatter(active, sprop_all, tprop, stats) -> None:
            # scatter once per slice; measure per-slice compute cycles
            compute_cycles = []
            for sim in self.slice_sims:
                before = stats.scatter_cycles
                sim.engine.scatter_phase(active, sprop_all, tprop, stats)
                compute_cycles.append(stats.scatter_cycles - before)
            stats.slice_load_cycles += _exposed_load_cycles(loads,
                                                            compute_cycles)
            stats.slice_raw_load_cycles += raw_load

        result = run_vcpm(self, scatter, source, max_iterations)
        stats = result.stats
        stats.slices = len(self.slices)
        # harvest assigns an engine's run totals, so each slice engine
        # harvests into its own scratch stats and the run sums them
        for sim in self.slice_sims:
            part = SimStats()
            sim.engine.harvest(part)
            stats.offset_deferrals += part.offset_deferrals
            stats.edge_conflicts += part.edge_conflicts
            stats.propagation_conflicts += part.propagation_conflicts
        return result


def _exposed_load_cycles(loads: list[int], computes: list[int]) -> int:
    """Slice-replacement time not hidden by double buffering.

    The first slice's load is always exposed; afterwards slice ``i+1``
    streams in while slice ``i`` computes, so only
    ``max(0, load - compute)`` leaks into the critical path.
    """
    if not loads:
        return 0
    exposed = loads[0]
    for nxt_load, cur_compute in zip(loads[1:], computes[:-1]):
        exposed += max(0, nxt_load - cur_compute)
    return exposed
