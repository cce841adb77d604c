"""Cache-driven report regeneration: cache → figures → report, one call.

Every section of the consolidated report
(:data:`repro.bench.report.REPORT_SECTIONS`) is described once here
(:data:`SECTIONS`): the sweep planner/assembler pair that produces its
rows and the format of its table.  :func:`regenerate`, ``repro sweep
--figure`` and the ``benchmarks/`` suite all build rows with
``SECTIONS[key].build(ctx)`` and render them with
:meth:`SectionSpec.render`.  A section's jobs go through the one
``sweep`` callable its caller passes (a session's ``sweep``, or the
serve scheduler), so a **warm result cache regenerates the whole report
with zero simulator invocations**; :func:`regenerate` then writes the
per-section ``.txt`` tables and rebuilds ``REPORT.md``.

Two kinds of provenance are recorded:

* **deterministic** facts (code version, sections regenerated, planned
  job counts) go into ``REPORT.md`` itself, so a cold and a warm
  regeneration of the same configuration are byte-identical;
* **run accounting** (date, results and cache directories, cache
  hit/miss counts, executed jobs, per-section and per-job wall times)
  differs between runs and is written next to the report as
  ``REPORT.provenance.json`` and returned as :class:`RegenReport`.

Shared sweeps are planned once: Fig. 8 and Fig. 9 read one evaluation
matrix, Fig. 10(a) and 10(b) one ablation sweep.  Accounting for a
shared sweep is charged to the first section that triggers it.  A
caller that regenerates again and again at one ``$REPRO_SCALE`` (the
serve daemon) passes a ``plans`` dict that outlives the call: each
named sweep is then planned on the first call only, and its frozen
jobs keep their cache keys from one call to the next.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import date
from typing import Callable

from repro.bench.figures import (
    combining_ablation_assemble,
    combining_ablation_jobs,
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
from repro.bench.harness import (
    format_table,
    matrix_from_outcome,
    matrix_jobs,
    save_rows,
)
from repro.bench.report import REPORT_SECTIONS, build_report
from repro.errors import SweepError
from repro.sweep import SweepOutcome, code_version, run_sweep

#: A job list -> its :class:`SweepOutcome`, stats in job order.
Sweep = Callable[[list], SweepOutcome]

#: Figure-name shortcuts (CLI ``--figure`` / ``--section`` aliases) to
#: report section keys.
FIGURE_SECTIONS: dict[str, tuple[str, ...]] = {
    "table1": ("table1_configs",),
    "table2": ("table2_datasets",),
    "fig4": ("fig04_crossbar_frequency",),
    "fig7": ("fig07_memory_layout",),
    "fig8": ("fig08_speedup",),
    "fig9": ("fig09_throughput",),
    "fig10": ("fig10a_opt_throughput", "fig10b_starvation"),
    "fig11": ("fig11_scalability",),
    "fig12": ("fig12_buffer_size",),
    "radix": ("sec54_radix",),
    "area": ("sec54_area_power",),
    "slicing": ("discussion_slicing",),
    "combining": ("ablation_combining",),
    "latency": ("ablation_latency",),
}


class RegenContext:
    """Shared state for one regeneration pass: the sweep, the memos.

    ``sweep`` runs each planned job list: ``run_sweep`` (serial, no
    cache) unless the caller passes a session's ``sweep`` or, on the
    serve daemon, its scheduler.
    """

    def __init__(self, sweep: Sweep = run_sweep,
                 plans: dict[str, list] | None = None) -> None:
        self.run = sweep
        #: sweep name -> planned job list; filled here, and kept by a
        #: caller that passes the same dict to every pass at one scale
        self.plans = {} if plans is None else plans
        self._outcomes: dict[str, object] = {}

    def sweep(self, name: str, jobs_fn: Callable[[], list]):
        """Run (or reuse) one named sweep; returns (outcome, charged)."""
        outcome = self._outcomes.get(name)
        if outcome is not None:
            return outcome, False
        jobs = self.plans.get(name)
        if jobs is None:
            jobs = self.plans[name] = jobs_fn()
        outcome = self.run(jobs)
        self._outcomes[name] = outcome
        return outcome, True


def _accounting(outcome=None, charged: bool = False) -> dict:
    if outcome is None or not charged:
        return {"jobs": 0, "cache_hits": 0, "cache_misses": 0,
                "executed": 0, "sim_seconds": 0.0, "job_seconds": []}
    return {
        "jobs": len(outcome.jobs),
        "cache_hits": outcome.cache_hits,
        "cache_misses": outcome.cache_misses,
        "executed": outcome.executed,
        "sim_seconds": round(sum(outcome.job_seconds), 6),
        "job_seconds": [round(s, 6) for s in outcome.job_seconds],
    }


# ----------------------------------------------------------------------
# Section builders: ctx -> (rows, accounting)
# ----------------------------------------------------------------------

def _build_table1(ctx):
    return table1_config_rows(), _accounting()


def _build_table2(ctx):
    return table2_dataset_rows(), _accounting()


def _build_fig4(ctx):
    from repro.hw import fig4_rows
    return fig4_rows(), _accounting()


def _build_fig7(ctx):
    from repro.accel.config import fig7_layout
    return fig7_layout(), _accounting()


def _build_fig8(ctx):
    outcome, charged = ctx.sweep("matrix", matrix_jobs)
    return matrix_from_outcome(outcome).speedup_rows(), \
        _accounting(outcome, charged)


def _build_fig9(ctx):
    outcome, charged = ctx.sweep("matrix", matrix_jobs)
    return matrix_from_outcome(outcome).throughput_rows(), \
        _accounting(outcome, charged)


def _build_fig10(ctx):
    outcome, charged = ctx.sweep("fig10", fig10_jobs)
    return fig10_assemble(outcome), _accounting(outcome, charged)


def _build_fig11(ctx):
    outcome, charged = ctx.sweep("fig11", fig11_jobs)
    return fig11_assemble(outcome), _accounting(outcome, charged)


def _build_fig12(ctx):
    outcome, charged = ctx.sweep("fig12", fig12_jobs)
    return fig12_assemble(outcome), _accounting(outcome, charged)


def _build_radix(ctx):
    outcome, charged = ctx.sweep("radix", sec54_radix_jobs)
    return sec54_radix_assemble(outcome), _accounting(outcome, charged)


def _build_area(ctx):
    from repro.hw import sec54_rows
    return sec54_rows(), _accounting()


def _build_slicing(ctx):
    outcome, charged = ctx.sweep("slicing", slicing_jobs)
    return slicing_assemble(outcome), _accounting(outcome, charged)


def _build_combining(ctx):
    outcome, charged = ctx.sweep("combining", combining_ablation_jobs)
    return combining_ablation_assemble(outcome), _accounting(outcome, charged)


def _build_latency(ctx):
    outcome, charged = ctx.sweep("latency", latency_ablation_jobs)
    return latency_ablation_assemble(outcome), _accounting(outcome, charged)


@dataclass(frozen=True)
class SectionSpec:
    """How one report section regenerates and formats.

    ``build(ctx)`` returns ``(rows, accounting)``; ``table_title``,
    ``columns`` and ``floatfmt`` are how :meth:`render` formats the
    rows.  ``chart`` (optional) renders the rows as the section's
    unicode chart for ``repro report --charts`` and ``repro sweep
    --figure``.
    """

    key: str
    build: Callable
    table_title: str
    columns: tuple[str, ...] | None = None
    floatfmt: str = ".2f"
    #: section rides the sweep engine (its rows come from cached sims)
    simulated: bool = True
    #: rows -> unicode chart text (``bench/charts.py``), or None
    chart: Callable | None = None

    def render(self, rows: list[dict]) -> str:
        """The section's table text, as its ``.txt`` file holds it."""
        return format_table(
            rows, columns=list(self.columns) if self.columns else None,
            title=self.table_title, floatfmt=self.floatfmt)


# -- chart builders (repro report --charts, repro sweep --figure) ------
# One bar/series shape per section whose rows have a natural chart.

def _chart_fig4(rows):
    from repro.bench.charts import bar_chart
    return bar_chart(rows, "ports", "frequency_ghz",
                     title="crossbar frequency (GHz) vs ports")


def _chart_fig8(rows):
    from repro.bench.charts import bar_chart
    return bar_chart(rows, "dataset", "speedup_higraph",
                     group_key="algorithm",
                     title="HiGraph speedup over GraphDynS")


def _chart_fig9(rows):
    from repro.bench.charts import bar_chart
    return bar_chart(rows, "dataset", "higraph_gteps",
                     group_key="algorithm", title="HiGraph GTEPS")


def _chart_fig10a(rows):
    from repro.bench.charts import bar_chart
    return bar_chart(rows, "step", "gteps", group_key="algorithm",
                     title="GTEPS per optimization step")


def _chart_fig10b(rows):
    from repro.bench.charts import bar_chart
    return bar_chart(rows, "step", "starvation_cycles",
                     group_key="algorithm",
                     title="vPE starvation cycles per optimization step")


def _chart_fig11(rows):
    from repro.bench.charts import series_chart
    return series_chart(rows, "back_channels", "gteps", "design",
                        title="GTEPS vs back-end channels")


def _chart_fig12(rows):
    from repro.bench.charts import series_chart
    return series_chart(rows, "buffer_entries", "gteps", "design",
                        title="GTEPS vs per-channel buffer entries")


def _chart_radix(rows):
    from repro.bench.charts import bar_chart
    return bar_chart(rows, "radix", "gteps", title="GTEPS per radix")


_SECTION_SPECS = (
    SectionSpec("table1_configs", _build_table1,
                "Table 1: configurations", simulated=False),
    SectionSpec("table2_datasets", _build_table2,
                "Table 2: benchmark datasets", floatfmt=".4g", simulated=False),
    SectionSpec("fig04_crossbar_frequency", _build_fig4,
                "Fig. 4: frequency vs crossbar ports", floatfmt=".3f",
                simulated=False, chart=_chart_fig4),
    SectionSpec("fig07_memory_layout", _build_fig7,
                "Fig. 7: on-chip memory layout", simulated=False),
    SectionSpec("fig08_speedup", _build_fig8,
                "Fig. 8: speedup over GraphDynS", chart=_chart_fig8),
    SectionSpec("fig09_throughput", _build_fig9,
                "Fig. 9: throughput (GTEPS)", chart=_chart_fig9),
    SectionSpec("fig10a_opt_throughput", _build_fig10,
                "Fig. 10(a): effect of optimizations on throughput (R14)",
                chart=_chart_fig10a),
    SectionSpec("fig10b_starvation", _build_fig10,
                "Fig. 10(b): vPE starvation cycles (R14)",
                columns=("algorithm", "step", "starvation_cycles"),
                floatfmt=".0f", chart=_chart_fig10b),
    SectionSpec("fig11_scalability", _build_fig11,
                "Fig. 11: throughput vs back-end channels (PR, R14)",
                chart=_chart_fig11),
    SectionSpec("fig12_buffer_size", _build_fig12,
                "Fig. 12: throughput vs FIFO buffer size (PR, R14)",
                chart=_chart_fig12),
    SectionSpec("sec54_radix", _build_radix,
                "Sec. 5.4: radix design option (PR, R14)", floatfmt=".3f",
                chart=_chart_radix),
    SectionSpec("sec54_area_power", _build_area,
                "Sec. 5.4: area and power of the propagation site",
                floatfmt=".3f", simulated=False),
    SectionSpec("discussion_slicing", _build_slicing,
                "Sec. 5.3: sliced execution with double buffering (PR, R14)",
                floatfmt=".1f"),
    SectionSpec("ablation_combining", _build_combining,
                "Ablation: vertex coalescing at the propagation site (PR, R14)"),
    SectionSpec("ablation_latency", _build_latency,
                "Ablation: trading latency for throughput (Sec. 2.2)"),
)

#: Section key -> spec, in report order.  Covers every REPORT_SECTIONS
#: key (asserted by the test suite).
SECTIONS: dict[str, SectionSpec] = {s.key: s for s in _SECTION_SPECS}


def write_table(results_dir: str, key: str, rows: list[dict]) -> str:
    """Write section ``key``'s rows as ``<results_dir>/<key>.txt``;
    returns the table text."""
    text = SECTIONS[key].render(rows)
    save_rows(os.path.join(results_dir, f"{key}.txt"), text)
    return text


def resolve_sections(names=None) -> list[str]:
    """Expand section keys and figure aliases into report-ordered keys.

    ``None`` (or empty) selects every section.  Unknown names raise
    :class:`~repro.errors.SweepError` listing what is accepted.
    """
    if not names:
        return [key for key, _ in REPORT_SECTIONS]
    wanted: set[str] = set()
    for name in names:
        name = str(name).strip()
        if name in SECTIONS:
            wanted.add(name)
        elif name.lower() in FIGURE_SECTIONS:
            wanted.update(FIGURE_SECTIONS[name.lower()])
        else:
            known = sorted(SECTIONS) + sorted(FIGURE_SECTIONS)
            raise SweepError(
                f"unknown report section {name!r}; known sections/aliases: "
                f"{', '.join(known)}")
    return [key for key, _ in REPORT_SECTIONS if key in wanted]


@dataclass
class RegenReport:
    """What one :func:`regenerate` call produced and what it cost."""

    results_dir: str
    report_path: str
    provenance_path: str
    cache_dir: str | None
    code_version: str
    sections: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def total_jobs(self) -> int:
        return sum(s["jobs"] for s in self.sections)

    @property
    def cache_hits(self) -> int:
        return sum(s["cache_hits"] for s in self.sections)

    @property
    def cache_misses(self) -> int:
        return sum(s["cache_misses"] for s in self.sections)

    @property
    def executed(self) -> int:
        return sum(s["executed"] for s in self.sections)

    def provenance(self) -> dict:
        """Run accounting for the JSON sidecar (volatile across runs)."""
        return {
            "date": date.today().isoformat(),
            "results_dir": self.results_dir,
            "report": self.report_path,
            "cache_dir": self.cache_dir,
            "code_version": self.code_version,
            "wall_seconds": round(self.wall_seconds, 6),
            "totals": {
                "jobs": self.total_jobs,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "executed": self.executed,
            },
            "sections": self.sections,
        }


def regenerate(results_dir: str, sections=None, sweep: Sweep = run_sweep,
               cache_dir: str | None = None,
               report_path: str | None = None,
               progress: Callable[[dict], None] | None = None,
               charts: bool = False,
               plans: dict[str, list] | None = None) -> RegenReport:
    """Regenerate section tables and the consolidated report from cache.

    Renders each selected section's ``.txt`` under ``results_dir`` (rows
    pulled through ``sweep``, so a sweep over a warm cache simulates
    nothing), rebuilds ``REPORT.md`` from everything present in
    ``results_dir``, and writes the run-accounting sidecar.
    ``cache_dir`` names the directory ``sweep`` reads: the report judges
    the tables this pass did not write against its newest entry, and
    the sidecar records it.  With ``charts``, sections that declare a
    chart also render it as ``<key>.chart.txt`` and REPORT.md embeds
    the charts under the tables (same rows, so cold and warm runs stay
    byte-identical).  ``progress``, if given, is called with each
    finished section record.  ``plans`` (sweep name -> job list) is read
    for sweeps planned before and filled with the ones planned now; the
    caller must pass it only to calls under the same ``$REPRO_SCALE``.
    """
    keys = resolve_sections(sections)
    ctx = RegenContext(sweep, plans=plans)
    start = time.monotonic()
    os.makedirs(results_dir, exist_ok=True)

    records: list[dict] = []
    built: dict[str, list[dict]] = {}
    for key in keys:
        spec = SECTIONS[key]
        t0 = time.perf_counter()
        rows, acct = spec.build(ctx)
        built[key] = rows
        record = {"section": key, "rows": len(rows), "simulated": spec.simulated,
                  "wall_seconds": round(time.perf_counter() - t0, 6), **acct}
        records.append(record)
        if progress is not None:
            progress(record)

    # write the tables only after every sweep has finished, so each
    # .txt postdates every cache entry this pass produced; the report
    # judges staleness only for the tables this pass did not write
    written = {key: write_table(results_dir, key, rows)
               for key, rows in built.items()}
    for key, rows in built.items():
        chart = SECTIONS[key].chart
        path = os.path.join(results_dir, f"{key}.chart.txt")
        if chart is not None and (charts or os.path.exists(path)):
            # an existing chart file is refreshed even without --charts:
            # a chart must always derive from the same rows as the table
            # above it, never from a previous regeneration's cache state
            save_rows(path, chart(rows))

    report_path = report_path or os.path.join(results_dir, "REPORT.md")
    provenance_path = os.path.join(
        os.path.dirname(report_path) or ".", "REPORT.provenance.json")

    version = code_version()
    report_text = build_report(
        results_dir, cache_dir=cache_dir, charts=charts,
        written=written,
        provenance={
            "code version": version,
            "sections regenerated":
                f"{len(records)} of {len(REPORT_SECTIONS)}",
            "sweep jobs planned": str(sum(r["jobs"] for r in records)),
            "run accounting": f"`{os.path.basename(provenance_path)}` "
                              "(hits/misses and wall times vary per run)",
        })
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report_text)

    report = RegenReport(
        results_dir=results_dir,
        report_path=report_path,
        provenance_path=provenance_path,
        cache_dir=cache_dir,
        code_version=version,
        sections=records,
        wall_seconds=time.monotonic() - start,
    )
    with open(provenance_path, "w", encoding="utf-8") as fh:
        json.dump(report.provenance(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return report
