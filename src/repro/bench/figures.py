"""Per-figure experiment definitions for the paper's evaluation section.

Each figure is split into a **planner** (``fig*_jobs`` — returns the
:class:`~repro.sweep.jobs.SweepJob` list behind the figure, every graph
a symbolic bench-scale :class:`~repro.sweep.jobs.GraphSpec`) and an
**assembler** (``fig*_assemble`` — turns the finished
:class:`~repro.sweep.executor.SweepOutcome` into plain row dicts).
:data:`repro.bench.regen.SECTIONS` pairs them into report sections; the
report, ``repro sweep --figure`` and ``benchmarks/`` all build rows
through it.
"""

from __future__ import annotations

import functools

from repro.accel import ablation, graphdyns, higraph, slice_load_cycles
from repro.bench.harness import (
    BENCH_PR_ITERATIONS,
    bench_algorithm_entry,
    bench_graph_spec,
    bench_scale,
    paper_configs,
)
from repro.graph import (
    DATASET_ORDER,
    TABLE2,
    chain,
    datasets,
    destination_slice_edges,
)
from repro.sweep import GraphSpec, SweepJob, SweepOutcome, plan_jobs

#: Ablation order of paper Fig. 10 (cumulative optimizations).
FIG10_STEPS = (
    ("Baseline", dict()),
    ("OPT-O", dict(opt_o=True)),
    ("OPT-O + OPT-E", dict(opt_o=True, opt_e=True)),
    ("OPT-O + OPT-E + OPT-D", dict(opt_o=True, opt_e=True, opt_d=True)),
)

#: Back-end channel sweep of paper Fig. 11.
FIG11_HIGRAPH_CHANNELS = (32, 64, 128, 256)
FIG11_GRAPHDYNS_CHANNELS = (32, 64)   # "does not support more than 64"

#: Per-channel FIFO entries swept in paper Fig. 12 (x-axis 0..350,
#: chosen operating point 160).
FIG12_BUFFER_SIZES = (8, 20, 40, 80, 160, 320)

#: Radix sweep of §5.4.  64 back-end channels admit radix 2, 4 and 8
#: (64 = 2^6 = 4^3 = 8^2) so one sweep covers the design space.
SEC54_RADICES = (2, 4, 8)
SEC54_CHANNELS = 64

#: Latency-bound workload of the §2.2 ablation: BFS on a chain exposes
#: one full pipeline traversal per iteration.
LATENCY_CHAIN_VERTICES = 256

#: §5.3 slicing discussion defaults: 4 destination slices, 64 B/cycle
#: off-chip bandwidth (64 GB/s at the 1 GHz design point).
SLICING_NUM_SLICES = 4
SLICING_BYTES_PER_CYCLE = 64.0


# ----------------------------------------------------------------------
# Fig. 10 — cumulative optimization ablation
# ----------------------------------------------------------------------

def fig10_jobs(dataset: str = "R14",
               algorithms=("BFS", "SSSP", "SSWP", "PR")) -> list[SweepJob]:
    return plan_jobs(
        [bench_algorithm_entry(a) for a in algorithms],
        [bench_graph_spec(dataset)],
        {label: ablation(**opts) for label, opts in FIG10_STEPS},
    )


def fig10_assemble(outcome: SweepOutcome) -> list[dict]:
    return [{
        "algorithm": job.tags["algorithm"],
        "step": job.tags["config"],
        "gteps": stats.gteps,
        "starvation_cycles": stats.vpe_starvation_cycles,
        "cycles": stats.total_cycles,
    } for job, stats in zip(outcome.jobs, outcome.stats)]


# ----------------------------------------------------------------------
# Fig. 11 — back-end channel scaling
# ----------------------------------------------------------------------

def fig11_jobs(dataset: str = "R14") -> list[SweepJob]:
    target = bench_graph_spec(dataset)
    pr = bench_algorithm_entry("PR")
    jobs = plan_jobs([pr], [target], {"GraphDynS": graphdyns()},
                     sweep_axes={"back_channels": FIG11_GRAPHDYNS_CHANNELS})
    jobs += plan_jobs([pr], [target], {"HiGraph": higraph()},
                      sweep_axes={"back_channels": FIG11_HIGRAPH_CHANNELS})
    return jobs


def fig11_assemble(outcome: SweepOutcome) -> list[dict]:
    return [{
        "design": job.tags["config"],
        "back_channels": job.tags["back_channels"],
        "frequency_ghz": stats.frequency_ghz,
        "gteps": stats.gteps,
    } for job, stats in zip(outcome.jobs, outcome.stats)]


# ----------------------------------------------------------------------
# Fig. 12 — buffer size sweep
# ----------------------------------------------------------------------

def fig12_jobs(dataset: str = "R14",
               buffer_sizes=FIG12_BUFFER_SIZES) -> list[SweepJob]:
    """Fig. 12 job matrix.

    "We keep all designs in HiGraph the same except for the dataflow
    propagation stage, in which we replace MDP-network with
    FIFO-plus-crossbar design."  Buffer size is the outermost loop (the
    paper's x-axis order), so one planner call per size rather than one
    sweep_axes expansion.
    """
    target = bench_graph_spec(dataset)
    pr = bench_algorithm_entry("PR")
    jobs = []
    for entries in buffer_sizes:
        jobs += plan_jobs([pr], [target], {
            "MDP-network": higraph(propagation_site="mdp", fifo_depth=entries),
            "FIFO+crossbar": higraph(propagation_site="crossbar",
                                     fifo_depth=entries),
        })
    return jobs


def fig12_assemble(outcome: SweepOutcome) -> list[dict]:
    return [{
        "design": job.tags["config"],
        "buffer_entries": job.config.fifo_depth,
        "gteps": stats.gteps,
    } for job, stats in zip(outcome.jobs, outcome.stats)]


# ----------------------------------------------------------------------
# §5.4 — radix design option
# ----------------------------------------------------------------------

def sec54_radix_jobs(dataset: str = "R14") -> list[SweepJob]:
    return plan_jobs(
        [bench_algorithm_entry("PR")],
        [bench_graph_spec(dataset)],
        {"HiGraph": higraph(back_channels=SEC54_CHANNELS,
                            front_channels=SEC54_CHANNELS)},
        sweep_axes={"radix": SEC54_RADICES},
    )


def sec54_radix_assemble(outcome: SweepOutcome) -> list[dict]:
    return [{
        "radix": job.tags["radix"],
        "frequency_ghz": stats.frequency_ghz,
        "gteps": stats.gteps,
        "cycles": stats.total_cycles,
    } for job, stats in zip(outcome.jobs, outcome.stats)]


# ----------------------------------------------------------------------
# Ablation — vertex coalescing
# ----------------------------------------------------------------------

def combining_ablation_jobs(dataset: str = "R14") -> list[SweepJob]:
    target = bench_graph_spec(dataset)
    pr = bench_algorithm_entry("PR")
    jobs = []
    for combining in (True, False):
        jobs += plan_jobs([pr], [target], {
            "HiGraph": higraph(vertex_combining=combining),
            "GraphDynS": graphdyns(vertex_combining=combining),
        })
    return jobs


def combining_ablation_assemble(outcome: SweepOutcome) -> list[dict]:
    return [{
        "design": job.tags["config"],
        "combining": job.config.vertex_combining,
        "gteps": stats.gteps,
    } for job, stats in zip(outcome.jobs, outcome.stats)]


# ----------------------------------------------------------------------
# Ablation — trading latency for throughput (§2.2)
# ----------------------------------------------------------------------

def latency_ablation_jobs(dataset: str = "R14") -> list[SweepJob]:
    """A latency-bound chain-BFS pair plus a throughput-bound PR pair."""
    designs = {"HiGraph": higraph(), "GraphDynS": graphdyns()}
    jobs = plan_jobs(["BFS"], [chain(LATENCY_CHAIN_VERTICES)], designs)
    jobs += plan_jobs([bench_algorithm_entry("PR")],
                      [bench_graph_spec(dataset)], designs)
    return jobs


def latency_ablation_assemble(outcome: SweepOutcome,
                              dataset: str = "R14") -> list[dict]:
    rows = []
    for job, stats in zip(outcome.jobs, outcome.stats):
        workload = ("chain-BFS (latency-bound)" if job.algorithm == "BFS"
                    else f"{dataset}-PR (throughput-bound)")
        rows.append({
            "workload": workload,
            "design": job.tags["config"],
            "cycles": stats.total_cycles,
            "cycles_per_iteration":
                stats.total_cycles / max(1, stats.iterations),
            "gteps": stats.gteps,
        })
    return rows


# ----------------------------------------------------------------------
# §5.3 Discussion — slicing + double buffering
# ----------------------------------------------------------------------

def slicing_jobs(dataset: str = "R14", num_slices: int = SLICING_NUM_SLICES,
                 offchip_bytes_per_cycle: float = SLICING_BYTES_PER_CYCLE
                 ) -> list[SweepJob]:
    """One sliced, double-buffered PR run on the sweep engine."""
    target = bench_graph_spec(dataset)
    return [SweepJob(
        graph=target,
        algorithm="PR",
        algorithm_kwargs={"iterations": BENCH_PR_ITERATIONS},
        config=higraph(),
        num_slices=num_slices,
        offchip_bytes_per_cycle=offchip_bytes_per_cycle,
        tags={"graph": dataset, "algorithm": "PR", "config": "HiGraph"},
    )]


@functools.lru_cache(maxsize=32)
def _spec_slice_edges(spec: GraphSpec, num_slices: int) -> tuple[int, ...]:
    """Per-slice edge counts of a symbolic graph, memoized per process:
    a served report re-assembles this section on every request, and the
    counts — unlike the graph they come from — cost nothing to keep."""
    return tuple(destination_slice_edges(spec.load(), num_slices))


def slicing_assemble(outcome: SweepOutcome) -> list[dict]:
    """Single-buffer vs double-buffer accounting for the sliced run.

    The raw (unoverlapped) load total is re-derived from the slice edge
    counts — a count over the graph's destinations, never a simulation,
    so a warm cache still assembles with zero simulator invocations, and
    a symbolic graph is generated once per process, not per assembly.
    """
    job, stats = outcome.jobs[0], outcome.stats[0]
    slice_edges = _spec_slice_edges(job.graph, job.num_slices)
    total_load = sum(slice_load_cycles(edges, job.offchip_bytes_per_cycle)
                     for edges in slice_edges) * stats.iterations
    compute = stats.scatter_cycles + stats.apply_cycles
    return [{
        "slices": stats.slices,
        "compute_cycles": compute,
        "raw_load_cycles": total_load,
        "exposed_load_cycles": stats.slice_load_cycles,
        "single_buffer_total": compute + total_load,
        "double_buffer_total": stats.total_cycles,
        "gteps_double_buffered": stats.gteps,
    }]


# ----------------------------------------------------------------------
# Tables 1 and 2 — pure registry/model lookups (no simulation)
# ----------------------------------------------------------------------

def table1_config_rows() -> list[dict]:
    """Table 1: the three designs and their synthesized geometry."""
    rows = []
    for name, cfg in paper_configs().items():
        rows.append({
            "design": name,
            "frequency_ghz": cfg.frequency_ghz(),
            "front_channels": cfg.front_channels,
            "back_channels": cfg.back_channels,
            "onchip_memory_mb": cfg.onchip_memory_bytes / 2**20,
            "offset_site": cfg.offset_site,
            "edge_site": cfg.edge_site,
            "propagation_site": cfg.propagation_site,
        })
    return rows


def table2_dataset_rows() -> list[dict]:
    """Table 2: paper sizes next to the bench-scale stand-ins' sizes
    (computed from the generator's size rule; no graph is generated)."""
    rows = []
    for key in DATASET_ORDER:
        spec, scale = TABLE2[key], bench_scale(key)
        vertices, edges = datasets.shape(key, scale)
        rows.append({
            "name": key,
            "paper_vertices": spec.num_vertices,
            "paper_edges": spec.num_edges,
            "paper_degree": spec.degree,
            "bench_scale": scale,
            "bench_vertices": vertices,
            "bench_edges": edges,
            "bench_degree": round(edges / vertices, 1),
        })
    return rows
