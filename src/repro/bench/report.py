"""Consolidated experiment report builder.

Collects the tables written under ``benchmarks/results/`` — by the
benchmark suite or by the cache-driven regeneration pipeline
(:mod:`repro.bench.regen`) — into one markdown document, the mechanical
companion to EXPERIMENTS.md (which adds the paper-vs-measured
commentary).

When a result cache directory is supplied, each section is checked for
**staleness**: a ``.txt`` older than the newest cache entry predates
the most recent simulation results, so the report says to regenerate it
with ``repro report`` instead of silently presenting old numbers.

The report depends on the tables alone: no date and no path, so
regenerating it on another day or from another checkout leaves the
same bytes (the JSON sidecar of :func:`repro.bench.regen.regenerate`
records both).
"""

from __future__ import annotations

import os
from pathlib import Path

#: Section order and titles for the consolidated report.
REPORT_SECTIONS: tuple[tuple[str, str], ...] = (
    ("table1_configs", "Table 1 — configurations"),
    ("table2_datasets", "Table 2 — benchmark datasets"),
    ("fig04_crossbar_frequency", "Fig. 4 — crossbar frequency vs ports"),
    ("fig07_memory_layout", "Fig. 7 — on-chip memory layout"),
    ("fig08_speedup", "Fig. 8 — speedup over GraphDynS"),
    ("fig09_throughput", "Fig. 9 — throughput (GTEPS)"),
    ("fig10a_opt_throughput", "Fig. 10(a) — optimization ablation"),
    ("fig10b_starvation", "Fig. 10(b) — vPE starvation"),
    ("fig11_scalability", "Fig. 11 — back-end channel scaling"),
    ("fig12_buffer_size", "Fig. 12 — buffer size sweep"),
    ("sec54_radix", "Sec. 5.4 — radix design option"),
    ("sec54_area_power", "Sec. 5.4 — area and power"),
    ("discussion_slicing", "Sec. 5.3 — slicing + double buffering"),
    ("ablation_combining", "Ablation — vertex coalescing"),
    ("ablation_latency", "Ablation — latency vs throughput"),
)

#: What the report tells the reader to run for absent/stale sections.
REGEN_HINT = "regenerate with `repro report`"


def collect_results(results_dir: str) -> dict[str, str]:
    """Read every known results table that exists; key -> text."""
    found = {}
    for key, _title in REPORT_SECTIONS:
        path = os.path.join(results_dir, f"{key}.txt")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                found[key] = fh.read()
    return found


def collect_charts(results_dir: str) -> dict[str, str]:
    """Read every section's rendered unicode chart, if present.

    Charts are written as ``<section>.chart.txt`` next to the tables by
    ``repro report --charts`` (:func:`repro.bench.regen.regenerate`);
    sections without a natural chart simply have no file.
    """
    found = {}
    for key, _title in REPORT_SECTIONS:
        path = os.path.join(results_dir, f"{key}.chart.txt")
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
    from repro.sweep.cache import ResultCache
    return ResultCache(cache_dir).newest_mtime()


def section_status(results_dir: str,
                   cache_dir: str | os.PathLike | None = None) -> dict[str, str]:
    """Freshness of every section: ``fresh`` | ``stale`` | ``missing``.

    A section is *stale* when its ``.txt`` is strictly older than the
    newest entry in the result cache — the table predates simulation
    results that may have changed it.  Without a cache directory no
    section can be judged stale.
    """
    cache_mtime = newest_cache_mtime(cache_dir)
    status = {}
    for key, _title in REPORT_SECTIONS:
        path = os.path.join(results_dir, f"{key}.txt")
        try:
            txt_mtime = os.stat(path).st_mtime
        except OSError:
            status[key] = "missing"
            continue
        if cache_mtime is not None and txt_mtime < cache_mtime:
            status[key] = "stale"
        else:
            status[key] = "fresh"
    return status


def build_report(results_dir: str, title: str = "HiGraph reproduction — "
                 "measured results", cache_dir: str | os.PathLike | None = None,
                 provenance: dict[str, str] | None = None,
                 charts: bool = False) -> str:
    """Render the consolidated markdown report.

    ``cache_dir`` enables the per-section staleness check (see
    :func:`section_status`).  ``charts`` appends each section's
    rendered unicode chart (``<section>.chart.txt``, written by
    ``repro report --charts``) under its table.  ``provenance`` adds a
    final section of ``label: value`` lines; callers must pass only
    run-independent values there so that regenerating from a warm
    cache reproduces the report byte-for-byte (volatile accounting
    belongs in the JSON sidecar written by
    :func:`repro.bench.regen.regenerate`).
    """
    tables = collect_results(results_dir)
    chart_texts = collect_charts(results_dir) if charts else {}
    status = section_status(results_dir, cache_dir)
    lines = [f"# {title}", ""]
    missing = []
    for key, section_title in REPORT_SECTIONS:
        if key in tables:
            lines.append(f"## {section_title}")
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
            missing.append(section_title)
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


def write_report(results_dir: str, output_path: str,
                 cache_dir: str | os.PathLike | None = None) -> str:
    text = build_report(results_dir, cache_dir=cache_dir)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
