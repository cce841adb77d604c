"""The cold workload's job list: the program's own Fig. 8 matrix.

``fig8_cold`` runs the 72 jobs ``repro sweep --figure fig8`` plans: BFS,
SSSP, SSWP and PageRank (the bench's two iterations) on the six Table 2
stand-ins under the three Table 1 designs, at the default bench scales.
The graphs keep each dataset's Table 2 generator seed unless a graph
seed names another, which is then passed to the R-MAT generator for
every dataset.
"""

from __future__ import annotations

from repro.algorithms import PAPER_ALGORITHMS
from repro.bench.harness import (bench_algorithm_entry, bench_scale,
                                 matrix_jobs, paper_configs)
from repro.graph.datasets import DATASET_ORDER
from repro.sweep.jobs import GraphSpec, SweepJob, plan_jobs

#: the workload whose jobs these are, as reference_counters.json names it
COLD_WORKLOAD = "fig8_cold"

#: Simulated counters recorded once from the ``reference`` engine and
#: compared on every cold job.
COUNTERS = ("total_cycles", "edges_processed", "iterations",
            "vpe_busy_cycles", "vpe_starvation_cycles")


def graph_key(graph_seed: int | None) -> str:
    """How reference_counters.json names a graph seed."""
    return "table2" if graph_seed is None else str(graph_seed)


def cold_jobs(graph_seed: int | None) -> list[SweepJob]:
    if graph_seed is None:
        return matrix_jobs()
    graphs = [GraphSpec(key, scale=bench_scale(key), seed=graph_seed)
              for key in DATASET_ORDER]
    return plan_jobs([bench_algorithm_entry(a) for a in PAPER_ALGORITHMS],
                     graphs, paper_configs())


def job_id(job: SweepJob) -> str:
    return "/".join(str(job.tags[k]) for k in ("algorithm", "graph", "config"))


def counters(stats) -> dict[str, int]:
    return {name: int(getattr(stats, name)) for name in COUNTERS}
