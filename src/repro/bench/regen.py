"""Cache-driven report regeneration: cache → figures → report, one call.

Every section of the consolidated report is described once, by its
:class:`~repro.bench.report.SectionSpec` in
:data:`~repro.bench.report.SECTIONS` (re-exported here): the planner
and assembler that produce its rows and the format of its table.
:func:`regenerate`, ``repro sweep --figure`` and the ``benchmarks/``
suite all build rows with :meth:`RegenContext.build` and render them
with :meth:`SectionSpec.render`.  A section's jobs go through the one
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

Sections that name one planner share its sweep: Fig. 8 and Fig. 9 read
one evaluation matrix, Fig. 10(a) and 10(b) one ablation sweep.
Accounting for a shared sweep is charged to the first section that
triggers it.  A caller that regenerates again and again at one
``$REPRO_SCALE`` (the serve daemon) passes a ``plans`` dict that
outlives the call: each planner then runs on the first call only, and
its frozen jobs keep their cache keys from one call to the next.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from datetime import date
from typing import Callable

from repro.bench.harness import save_rows
from repro.bench.report import (
    FIGURE_SECTIONS,
    SECTIONS,
    SectionSpec,
    build_report,
)
from repro.errors import SweepError
from repro.sweep import SweepOutcome, code_version, run_sweep

#: A job list -> its :class:`SweepOutcome`, stats in job order.
Sweep = Callable[[list], SweepOutcome]


class RegenContext:
    """Shared state for one regeneration pass: the sweep, the memos.

    ``sweep`` runs each planned job list: ``run_sweep`` (serial, no
    cache) unless the caller passes a session's ``sweep`` or, on the
    serve daemon, its scheduler.
    """

    def __init__(self, sweep: Sweep = run_sweep,
                 plans: dict[Callable, list] | None = None) -> None:
        self.run = sweep
        #: planner -> planned job list; filled here, and kept by a
        #: caller that passes the same dict to every pass at one scale
        self.plans = {} if plans is None else plans
        self._outcomes: dict[Callable, SweepOutcome] = {}

    def build(self, spec: SectionSpec) -> tuple[list[dict], dict]:
        """``(rows, accounting)`` of one section.  A planner's sweep
        runs once per pass; the first section to name it is charged."""
        if spec.plan is None:
            return spec.rows(), _accounting(None)
        outcome = self._outcomes.get(spec.plan)
        if outcome is not None:
            return spec.rows(outcome), _accounting(None)
        jobs = self.plans.get(spec.plan)
        if jobs is None:
            jobs = self.plans[spec.plan] = spec.plan()
        outcome = self._outcomes[spec.plan] = self.run(jobs)
        return spec.rows(outcome), _accounting(outcome)


def _accounting(outcome: SweepOutcome | None) -> dict:
    """A section's share of the sweep work: ``outcome``'s, or none."""
    if outcome is None:
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
        return list(SECTIONS)
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
    return [key for key in SECTIONS if key in wanted]


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
               plans: dict[Callable, list] | None = None) -> RegenReport:
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
    finished section record.  ``plans`` (planner -> job list) is read
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
        rows, acct = ctx.build(spec)
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
                f"{len(records)} of {len(SECTIONS)}",
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
