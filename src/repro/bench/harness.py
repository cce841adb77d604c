"""Benchmark harness: bench-scale datasets, the Fig. 8/9 evaluation
matrix and the fixed-width table format every report section uses.

Dataset sizing: the default bench scales are **reduced-scale
stand-ins** (~60k-130k edges each, mean degree and hub skew preserved —
see ``repro.graph.datasets``), so a cold report of every section takes
seconds on the compiled ``soa`` engine.  The ``REPRO_SCALE``
environment variable overrides every dataset's scale, e.g.
``REPRO_SCALE=1.0`` for the paper-sized graphs; making paper scale the
default is ROADMAP item 4.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.accel.config import AcceleratorConfig, graphdyns, higraph, higraph_mini
from repro.accel.stats import SimStats
from repro.algorithms import PAPER_ALGORITHMS
from repro.errors import GenerationError
from repro.graph.datasets import DATASET_ORDER, SCALE_ENV_VAR
from repro.sweep import GraphSpec, plan_jobs

#: Default per-dataset scales: each stand-in lands at ~60k-130k edges.
DEFAULT_BENCH_SCALES: dict[str, float] = {
    "VT": 1.0,
    "EP": 0.125,
    "SL": 0.125,
    "TW": 0.0625,
    "R14": 0.125,
    "R16": 0.03125,
}

#: PageRank iterations used by the benches (throughput is
#: iteration-count-insensitive because every iteration processes the
#: same all-active workload; the paper-vs-measured write-up that will
#: state this is ROADMAP item 4).
BENCH_PR_ITERATIONS = 2


def bench_scale(key: str) -> float:
    """Dataset scale for benches: REPRO_SCALE (if set) wins."""
    env = os.environ.get(SCALE_ENV_VAR)
    if env is None:
        return DEFAULT_BENCH_SCALES[key]
    try:
        return float(env)
    except ValueError:
        raise GenerationError(
            f"{SCALE_ENV_VAR} must be a number, got {env!r}") from None


def bench_graph_spec(key: str) -> GraphSpec:
    """Symbolic sweep-job reference to one bench-scaled dataset."""
    return GraphSpec(key, scale=bench_scale(key))


def bench_algorithm_entry(name: str):
    """Sweep-planner algorithm entry; PageRank runs
    :data:`BENCH_PR_ITERATIONS` iterations."""
    if name == "PR":
        return ("PR", {"iterations": BENCH_PR_ITERATIONS})
    return name


def paper_configs() -> dict[str, AcceleratorConfig]:
    """The three Table 1 designs, in plotting order."""
    return {
        "GraphDynS": graphdyns(),
        "HiGraph-mini": higraph_mini(),
        "HiGraph": higraph(),
    }


@dataclass
class MatrixResult:
    """All (algorithm, dataset, config) runs of the Fig. 8/9 evaluation."""

    stats: dict[tuple[str, str, str], SimStats]

    def get(self, algorithm: str, dataset: str, config: str) -> SimStats:
        return self.stats[(algorithm, dataset, config)]

    def speedup_rows(self) -> list[dict]:
        """Fig. 8: speedup of HiGraph-mini / HiGraph over GraphDynS."""
        rows = []
        for alg in PAPER_ALGORITHMS:
            for ds in DATASET_ORDER:
                base = self.get(alg, ds, "GraphDynS")
                rows.append({
                    "algorithm": alg,
                    "dataset": ds,
                    "speedup_mini": self.get(alg, ds, "HiGraph-mini").speedup_over(base),
                    "speedup_higraph": self.get(alg, ds, "HiGraph").speedup_over(base),
                })
        return rows

    def throughput_rows(self) -> list[dict]:
        """Fig. 9: GTEPS for all three designs."""
        rows = []
        for alg in PAPER_ALGORITHMS:
            for ds in DATASET_ORDER:
                rows.append({
                    "algorithm": alg,
                    "dataset": ds,
                    "graphdyns_gteps": self.get(alg, ds, "GraphDynS").gteps,
                    "mini_gteps": self.get(alg, ds, "HiGraph-mini").gteps,
                    "higraph_gteps": self.get(alg, ds, "HiGraph").gteps,
                })
        return rows


def matrix_jobs(algorithms=PAPER_ALGORITHMS, datasets=DATASET_ORDER,
                configs=None, source: int = 0):
    """The Fig. 8/9 evaluation matrix as a sweep job list."""
    configs = configs or paper_configs()
    return plan_jobs(
        [bench_algorithm_entry(a) for a in algorithms],
        [bench_graph_spec(ds) for ds in datasets],
        configs,
        source=source,
    )


def matrix_from_outcome(outcome) -> MatrixResult:
    """Index a finished matrix sweep by (algorithm, dataset, config)."""
    stats: dict[tuple[str, str, str], SimStats] = {}
    for job, result in zip(outcome.jobs, outcome.stats):
        tags = job.tags
        stats[(tags["algorithm"], tags["graph"], tags["config"])] = result
    return MatrixResult(stats)


# ----------------------------------------------------------------------
# Formatting
# ----------------------------------------------------------------------

def format_table(rows: list[dict], columns: list[str] | None = None,
                 title: str | None = None, floatfmt: str = ".2f") -> str:
    """Fixed-width text table (the shape the paper's figures report)."""
    if not rows:
        return "(no rows)\n"
    columns = columns or list(rows[0].keys())
    rendered = [[_fmt(row.get(col), floatfmt) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _fmt(value, floatfmt: str) -> str:
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


def save_rows(path: str, text: str) -> None:
    """Persist a rendered table next to the benchmark outputs."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
