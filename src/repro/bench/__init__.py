"""Benchmark harness regenerating every table and figure of the paper."""

from repro.bench.figures import (
    FIG10_STEPS,
    FIG11_GRAPHDYNS_CHANNELS,
    FIG11_HIGRAPH_CHANNELS,
    FIG12_BUFFER_SIZES,
    SEC54_RADICES,
    table1_config_rows,
    table2_dataset_rows,
)
from repro.bench.charts import bar_chart, series_chart
from repro.bench.report import (
    REPORT_SECTIONS,
    build_report,
    collect_results,
    section_status,
    write_report,
)
from repro.bench.regen import (
    FIGURE_SECTIONS,
    RegenReport,
    SECTIONS,
    regenerate,
    resolve_sections,
)
from repro.bench.harness import (
    BENCH_PR_ITERATIONS,
    DEFAULT_BENCH_SCALES,
    MatrixResult,
    bench_algorithm_entry,
    bench_graph_spec,
    bench_scale,
    format_table,
    matrix_from_outcome,
    matrix_jobs,
    paper_configs,
    save_rows,
)

__all__ = [
    "matrix_jobs",
    "matrix_from_outcome",
    "MatrixResult",
    "paper_configs",
    "bench_scale",
    "bench_graph_spec",
    "bench_algorithm_entry",
    "format_table",
    "save_rows",
    "DEFAULT_BENCH_SCALES",
    "BENCH_PR_ITERATIONS",
    "table1_config_rows",
    "table2_dataset_rows",
    "FIG10_STEPS",
    "FIG11_HIGRAPH_CHANNELS",
    "FIG11_GRAPHDYNS_CHANNELS",
    "FIG12_BUFFER_SIZES",
    "SEC54_RADICES",
    "REPORT_SECTIONS",
    "build_report",
    "collect_results",
    "section_status",
    "write_report",
    "SECTIONS",
    "FIGURE_SECTIONS",
    "RegenReport",
    "regenerate",
    "resolve_sections",
    "bar_chart",
    "series_chart",
]
