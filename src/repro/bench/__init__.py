"""Benchmark harness regenerating every table and figure of the paper.

Exports resolve on first access (:mod:`repro._lazy`), so importing one
module of this package imports only what that module needs.
"""

from types import MappingProxyType

from repro._lazy import lazy_exports

#: exported name -> defining module
_EXPORTS = MappingProxyType({
    "matrix_jobs": "repro.bench.harness",
    "matrix_from_outcome": "repro.bench.harness",
    "MatrixResult": "repro.bench.harness",
    "paper_configs": "repro.bench.harness",
    "bench_scale": "repro.bench.harness",
    "bench_graph_spec": "repro.bench.harness",
    "bench_algorithm_entry": "repro.bench.harness",
    "format_table": "repro.bench.harness",
    "save_rows": "repro.bench.harness",
    "DEFAULT_BENCH_SCALES": "repro.bench.harness",
    "BENCH_PR_ITERATIONS": "repro.bench.harness",
    "table1_config_rows": "repro.bench.figures",
    "table2_dataset_rows": "repro.bench.figures",
    "FIG10_STEPS": "repro.bench.figures",
    "FIG11_HIGRAPH_CHANNELS": "repro.bench.figures",
    "FIG11_GRAPHDYNS_CHANNELS": "repro.bench.figures",
    "FIG12_BUFFER_SIZES": "repro.bench.figures",
    "SEC54_RADICES": "repro.bench.figures",
    "REPORT_SECTIONS": "repro.bench.report",
    "build_report": "repro.bench.report",
    "collect_results": "repro.bench.report",
    "section_status": "repro.bench.report",
    "write_report": "repro.bench.report",
    "SECTIONS": "repro.bench.regen",
    "FIGURE_SECTIONS": "repro.bench.regen",
    "RegenReport": "repro.bench.regen",
    "regenerate": "repro.bench.regen",
    "resolve_sections": "repro.bench.regen",
    "bar_chart": "repro.bench.charts",
    "series_chart": "repro.bench.charts",
})

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
