"""The report's sections, described once, and the report built from them.

:data:`SECTIONS` holds one :class:`SectionSpec` per section of the
consolidated report, in report order: its key, its ``--figure`` /
``--section`` alias, its REPORT.md heading, how its rows are made and
how its table and chart are drawn.  :func:`repro.bench.regen.regenerate`,
``repro sweep --figure`` and the ``benchmarks/`` suite all build a
section from its entry, and :func:`build_report` collects the tables
they wrote under ``benchmarks/results/`` into one markdown document.
The paper-vs-measured commentary it lacks is ROADMAP item 4.

When a result cache directory is supplied, each section is checked for
**staleness**: a ``.txt`` older than the newest cache entry predates
the most recent simulation results, so the report says to regenerate it
with ``repro report`` instead of silently presenting old numbers.  A
table the caller has just written (``build_report(written=...)``) is
fresh by construction, so only the other tables are judged, and a
report whose every table was just written scans no cache at all.

The report depends on the tables alone: no date and no path, so
regenerating it on another day or from another checkout leaves the
same bytes (the JSON sidecar of :func:`repro.bench.regen.regenerate`
records both).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Mapping

from repro.accel.config import fig7_layout
from repro.bench.charts import bar_chart, series_chart
from repro.bench.figures import (
    combining_ablation_assemble,
    combining_ablation_jobs,
    fig8_assemble,
    fig9_assemble,
    fig10_assemble,
    fig10_jobs,
    fig11_assemble,
    fig11_jobs,
    fig12_assemble,
    fig12_jobs,
    latency_ablation_assemble,
    latency_ablation_jobs,
    sec54_radix_assemble,
    sec54_radix_jobs,
    slicing_assemble,
    slicing_jobs,
    table1_config_rows,
    table2_dataset_rows,
)
from repro.bench.harness import format_table, matrix_jobs
from repro.hw import fig4_rows, sec54_rows
from repro.sweep.cache import ResultCache


@dataclass(frozen=True)
class SectionSpec:
    """One report section: where it is found, how it is made and drawn.

    A model section's ``rows()`` takes no argument.  A simulated
    section names its planner as ``plan``, and ``rows(outcome)``
    assembles the finished sweep of the planned jobs; sections that
    name one planner share its sweep.  ``table_title``, ``columns`` and
    ``floatfmt`` are how :meth:`render` formats the rows; ``chart``
    (optional) draws them for ``repro report --charts`` and ``repro
    sweep --figure``.
    """

    key: str
    #: ``--figure`` / ``--section`` shortcut; sections may share one
    alias: str
    #: the section's REPORT.md heading
    heading: str
    table_title: str
    rows: Callable[..., list[dict]]
    plan: Callable[[], list] | None = None
    columns: tuple[str, ...] | None = None
    floatfmt: str = ".2f"
    #: rows -> unicode chart text (``bench/charts.py``), or None
    chart: Callable[[list[dict]], str] | None = None

    @property
    def simulated(self) -> bool:
        """The section's rows come from sweep results (cached sims)."""
        return self.plan is not None

    def render(self, rows: list[dict]) -> str:
        """The section's table text, as its ``.txt`` file holds it."""
        return format_table(
            rows, columns=list(self.columns) if self.columns else None,
            title=self.table_title, floatfmt=self.floatfmt)


_SPECS = (
    SectionSpec("table1_configs", "table1", "Table 1 — configurations",
                "Table 1: configurations", table1_config_rows),
    SectionSpec("table2_datasets", "table2", "Table 2 — benchmark datasets",
                "Table 2: benchmark datasets", table2_dataset_rows,
                floatfmt=".4g"),
    SectionSpec("fig04_crossbar_frequency", "fig4",
                "Fig. 4 — crossbar frequency vs ports",
                "Fig. 4: frequency vs crossbar ports", fig4_rows,
                floatfmt=".3f",
                chart=partial(bar_chart, label_key="ports",
                              value_key="frequency_ghz",
                              title="crossbar frequency (GHz) vs ports")),
    SectionSpec("fig07_memory_layout", "fig7", "Fig. 7 — on-chip memory layout",
                "Fig. 7: on-chip memory layout", fig7_layout),
    SectionSpec("fig08_speedup", "fig8", "Fig. 8 — speedup over GraphDynS",
                "Fig. 8: speedup over GraphDynS", fig8_assemble, matrix_jobs,
                chart=partial(bar_chart, label_key="dataset",
                              value_key="speedup_higraph",
                              group_key="algorithm",
                              title="HiGraph speedup over GraphDynS")),
    SectionSpec("fig09_throughput", "fig9", "Fig. 9 — throughput (GTEPS)",
                "Fig. 9: throughput (GTEPS)", fig9_assemble, matrix_jobs,
                chart=partial(bar_chart, label_key="dataset",
                              value_key="higraph_gteps",
                              group_key="algorithm", title="HiGraph GTEPS")),
    SectionSpec("fig10a_opt_throughput", "fig10",
                "Fig. 10(a) — optimization ablation",
                "Fig. 10(a): effect of optimizations on throughput (R14)",
                fig10_assemble, fig10_jobs,
                chart=partial(bar_chart, label_key="step", value_key="gteps",
                              group_key="algorithm",
                              title="GTEPS per optimization step")),
    SectionSpec("fig10b_starvation", "fig10", "Fig. 10(b) — vPE starvation",
                "Fig. 10(b): vPE starvation cycles (R14)",
                fig10_assemble, fig10_jobs,
                columns=("algorithm", "step", "starvation_cycles"),
                floatfmt=".0f",
                chart=partial(bar_chart, label_key="step",
                              value_key="starvation_cycles",
                              group_key="algorithm",
                              title="vPE starvation cycles per "
                                    "optimization step")),
    SectionSpec("fig11_scalability", "fig11",
                "Fig. 11 — back-end channel scaling",
                "Fig. 11: throughput vs back-end channels (PR, R14)",
                fig11_assemble, fig11_jobs,
                chart=partial(series_chart, x_key="back_channels",
                              y_key="gteps", series_key="design",
                              title="GTEPS vs back-end channels")),
    SectionSpec("fig12_buffer_size", "fig12", "Fig. 12 — buffer size sweep",
                "Fig. 12: throughput vs FIFO buffer size (PR, R14)",
                fig12_assemble, fig12_jobs,
                chart=partial(series_chart, x_key="buffer_entries",
                              y_key="gteps", series_key="design",
                              title="GTEPS vs per-channel buffer entries")),
    SectionSpec("sec54_radix", "radix", "Sec. 5.4 — radix design option",
                "Sec. 5.4: radix design option (PR, R14)",
                sec54_radix_assemble, sec54_radix_jobs, floatfmt=".3f",
                chart=partial(bar_chart, label_key="radix", value_key="gteps",
                              title="GTEPS per radix")),
    SectionSpec("sec54_area_power", "area", "Sec. 5.4 — area and power",
                "Sec. 5.4: area and power of the propagation site",
                sec54_rows, floatfmt=".3f"),
    SectionSpec("discussion_slicing", "slicing",
                "Sec. 5.3 — slicing + double buffering",
                "Sec. 5.3: sliced execution with double buffering (PR, R14)",
                slicing_assemble, slicing_jobs, floatfmt=".1f"),
    SectionSpec("ablation_combining", "combining",
                "Ablation — vertex coalescing",
                "Ablation: vertex coalescing at the propagation site (PR, R14)",
                combining_ablation_assemble, combining_ablation_jobs),
    SectionSpec("ablation_latency", "latency",
                "Ablation — latency vs throughput",
                "Ablation: trading latency for throughput (Sec. 2.2)",
                latency_ablation_assemble, latency_ablation_jobs),
)

#: Section key -> spec, in report order.
SECTIONS: dict[str, SectionSpec] = {spec.key: spec for spec in _SPECS}

#: Alias -> the keys of the sections that share it, in report order.
FIGURE_SECTIONS: dict[str, tuple[str, ...]] = {
    spec.alias: tuple(s.key for s in _SPECS if s.alias == spec.alias)
    for spec in _SPECS}

#: What the report tells the reader to run for absent/stale sections.
REGEN_HINT = "regenerate with `repro report`"


def collect_results(results_dir: str,
                    written: Mapping[str, str] | None = None,
                    suffix: str = ".txt") -> dict[str, str]:
    """Read every section's ``<key><suffix>`` that exists; key -> text.

    Tables in ``written`` (key -> the text just written to disk) are
    taken from it instead of being read back.  ``suffix=".chart.txt"``
    reads the charts ``repro report --charts`` writes instead; sections
    without a natural chart simply have no file.
    """
    written = written or {}
    found = {}
    for key in SECTIONS:
        if key in written:
            found[key] = written[key]
            continue
        path = os.path.join(results_dir, key + suffix)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                found[key] = fh.read()
    return found


def newest_cache_mtime(cache_dir: str | os.PathLike | None) -> float | None:
    """Modification time of the youngest result-cache entry, if any.

    Delegates the on-disk layout to :class:`~repro.sweep.cache.
    ResultCache` so the staleness check can never drift from where the
    executor actually writes entries.
    """
    if cache_dir is None or not Path(cache_dir).is_dir():
        return None                  # also: don't mkdir a cache as a side effect
    return ResultCache(cache_dir).newest_mtime()


def section_status(results_dir: str,
                   cache_dir: str | os.PathLike | None = None,
                   written: Collection[str] = ()) -> dict[str, str]:
    """Freshness of every section: ``fresh`` | ``stale`` | ``missing``.

    A section is *stale* when its ``.txt`` is strictly older than the
    newest entry in the result cache — the table predates simulation
    results that may have changed it.  Without a cache directory no
    section can be judged stale.  Sections in ``written`` were just
    written from the cache's current entries, so they are fresh; the
    cache is scanned only if some other table exists.
    """
    cache_mtime: float | None = None
    scanned = False
    status = {}
    for key in SECTIONS:
        if key in written:
            status[key] = "fresh"
            continue
        path = os.path.join(results_dir, f"{key}.txt")
        try:
            txt_mtime = os.stat(path).st_mtime
        except OSError:
            status[key] = "missing"
            continue
        if not scanned:
            cache_mtime, scanned = newest_cache_mtime(cache_dir), True
        if cache_mtime is not None and txt_mtime < cache_mtime:
            status[key] = "stale"
        else:
            status[key] = "fresh"
    return status


def build_report(results_dir: str, title: str = "HiGraph reproduction — "
                 "measured results", cache_dir: str | os.PathLike | None = None,
                 provenance: dict[str, str] | None = None,
                 charts: bool = False,
                 written: Mapping[str, str] | None = None) -> str:
    """Render the consolidated markdown report.

    ``cache_dir`` enables the per-section staleness check (see
    :func:`section_status`).  ``written`` maps the sections the caller
    has just written under ``results_dir`` to their table text: they
    are neither read back nor judged stale.  ``charts`` appends each
    section's rendered unicode chart (``<section>.chart.txt``, written
    by ``repro report --charts``) under its table.  ``provenance`` adds a
    final section of ``label: value`` lines; callers must pass only
    run-independent values there so that regenerating from a warm
    cache reproduces the report byte-for-byte (volatile accounting
    belongs in the JSON sidecar written by
    :func:`repro.bench.regen.regenerate`).
    """
    tables = collect_results(results_dir, written)
    chart_texts = (collect_results(results_dir, suffix=".chart.txt")
                   if charts else {})
    status = section_status(results_dir, cache_dir, written or ())
    lines = [f"# {title}", ""]
    missing = []
    for key, spec in SECTIONS.items():
        if key in tables:
            lines.append(f"## {spec.heading}")
            lines.append("")
            if status.get(key) == "stale":
                lines.append(f"*Stale: this table is older than the result "
                             f"cache — {REGEN_HINT}.*")
                lines.append("")
            lines.append("```")
            lines.append(tables[key].rstrip("\n"))
            lines.append("```")
            lines.append("")
            if key in chart_texts:
                lines.append("```")
                lines.append(chart_texts[key].rstrip("\n"))
                lines.append("```")
                lines.append("")
        else:
            missing.append(spec.heading)
    if missing:
        lines.append("## Missing sections")
        lines.append("")
        lines.append(f"Not found in the results directory — {REGEN_HINT} "
                     "(or run the benchmark suite) to produce:")
        for m in missing:
            lines.append(f"* {m}")
        lines.append("")
    if provenance:
        lines.append("## Provenance")
        lines.append("")
        for label, value in provenance.items():
            lines.append(f"* {label}: {value}")
        lines.append("")
    return "\n".join(lines)
