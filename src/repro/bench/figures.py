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

from repro.accel.config import ablation, graphdyns, higraph
from repro.algorithms import PAPER_ALGORITHMS
from repro.bench.harness import (
    BENCH_PR_ITERATIONS,
    bench_algorithm_entry,
    bench_graph_spec,
    bench_scale,
    paper_configs,
)
from repro.graph.datasets import DATASET_ORDER, TABLE2, shape
from repro.sweep import GraphSpec, SweepJob, SweepOutcome, plan_jobs

#: The one dataset of Figs. 10-12, §5.3, §5.4 and both ablations; their
#: section titles and the latency ablation's rows name it.
FIGURE_DATASET = "R14"

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

#: Latency-bound workload of the §2.2 ablation: BFS on a 256-vertex
#: chain exposes one full pipeline traversal per iteration.  A symbolic
#: reference (a :data:`~repro.graph.datasets.FIXTURES` key), so the
#: section plans and keys its jobs without building the chain.
LATENCY_CHAIN = GraphSpec("chain256")

#: §5.3 slicing discussion defaults: 4 destination slices, 64 B/cycle
#: off-chip bandwidth (64 GB/s at the 1 GHz design point).
SLICING_NUM_SLICES = 4
SLICING_BYTES_PER_CYCLE = 64.0


# ----------------------------------------------------------------------
# Fig. 10 — cumulative optimization ablation
# ----------------------------------------------------------------------

def fig10_jobs() -> list[SweepJob]:
    return plan_jobs(
        [bench_algorithm_entry(a) for a in PAPER_ALGORITHMS],
        [bench_graph_spec(FIGURE_DATASET)],
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

def fig11_jobs() -> list[SweepJob]:
    target = bench_graph_spec(FIGURE_DATASET)
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

def fig12_jobs() -> list[SweepJob]:
    """Fig. 12 job matrix.

    "We keep all designs in HiGraph the same except for the dataflow
    propagation stage, in which we replace MDP-network with
    FIFO-plus-crossbar design."  Buffer size is the outermost loop (the
    paper's x-axis order), so one planner call per size rather than one
    sweep_axes expansion.
    """
    target = bench_graph_spec(FIGURE_DATASET)
    pr = bench_algorithm_entry("PR")
    jobs = []
    for entries in FIG12_BUFFER_SIZES:
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

def sec54_radix_jobs() -> list[SweepJob]:
    return plan_jobs(
        [bench_algorithm_entry("PR")],
        [bench_graph_spec(FIGURE_DATASET)],
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

def combining_ablation_jobs() -> list[SweepJob]:
    target = bench_graph_spec(FIGURE_DATASET)
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

def latency_ablation_jobs() -> list[SweepJob]:
    """A latency-bound chain-BFS pair plus a throughput-bound PR pair."""
    designs = {"HiGraph": higraph(), "GraphDynS": graphdyns()}
    jobs = plan_jobs(["BFS"], [LATENCY_CHAIN], designs)
    jobs += plan_jobs([bench_algorithm_entry("PR")],
                      [bench_graph_spec(FIGURE_DATASET)], designs)
    return jobs


def latency_ablation_assemble(outcome: SweepOutcome) -> list[dict]:
    rows = []
    for job, stats in zip(outcome.jobs, outcome.stats):
        workload = ("chain-BFS (latency-bound)" if job.algorithm == "BFS"
                    else f"{FIGURE_DATASET}-PR (throughput-bound)")
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

def slicing_jobs() -> list[SweepJob]:
    """One sliced, double-buffered PR run on the sweep engine."""
    return [SweepJob(
        graph=bench_graph_spec(FIGURE_DATASET),
        algorithm="PR",
        algorithm_kwargs={"iterations": BENCH_PR_ITERATIONS},
        config=higraph(),
        num_slices=SLICING_NUM_SLICES,
        offchip_bytes_per_cycle=SLICING_BYTES_PER_CYCLE,
        tags={"graph": FIGURE_DATASET, "algorithm": "PR",
              "config": "HiGraph"},
    )]


def slicing_assemble(outcome: SweepOutcome) -> list[dict]:
    """Single-buffer vs double-buffer accounting for the sliced run,
    read from its stats alone: the sliced simulator keeps the raw
    (unoverlapped) load total beside the exposed one, so a warm cache
    assembles this section without a graph."""
    stats = outcome.stats[0]
    compute = stats.scatter_cycles + stats.apply_cycles
    return [{
        "slices": stats.slices,
        "compute_cycles": compute,
        "raw_load_cycles": stats.slice_raw_load_cycles,
        "exposed_load_cycles": stats.slice_load_cycles,
        "single_buffer_total": compute + stats.slice_raw_load_cycles,
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
        vertices, edges = shape(key, scale)
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
