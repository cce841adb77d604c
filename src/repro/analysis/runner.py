"""Rule execution, suppression and reporting for ``repro lint``.

Pipeline: run every selected rule over the project, stamp rule id /
severity onto each finding, drop findings carrying an inline
``# lint: allow=<rule>`` comment, split the remainder into *active*
vs *baselined* against ``lint-baseline.json``, and report stale or
unjustified baseline entries so the grandfather file only ever shrinks.

Exit-code contract (the CI gate): active **error** findings fail;
**warning** findings are advisory unless ``strict``; a clean tree with
a fully-justified baseline exits 0.

Module-scope rules replay from the per-file incremental cache
(:mod:`repro.analysis.cache`) when the file and the analyzer itself are
unchanged; project-scope rules re-run every time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.baseline import (
    BASELINE_NAME,
    TODO_JUSTIFICATION,
    Baseline,
    BaselineEntry,
)
from repro.analysis.context import Project
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, select_rules


@dataclass
class LintReport:
    """Everything one ``repro lint`` invocation decided."""

    root: str
    rules_run: list[str]
    findings: list[Finding]                 # active (fail candidates)
    baselined: list[tuple[Finding, BaselineEntry]] = field(default_factory=list)
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    unjustified: list[BaselineEntry] = field(default_factory=list)
    suppressed_inline: int = 0
    # --update-baseline diff (empty unless an update ran this invocation)
    baseline_added: list[BaselineEntry] = field(default_factory=list)
    baseline_removed: list[BaselineEntry] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def exit_code(self, strict: bool = False) -> int:
        """0 = clean; 1 = findings.  Warnings (including stale or
        TODO-justified baseline entries) fail only under ``strict``."""
        if self.errors:
            return 1
        if strict and (self.warnings or self.stale_baseline
                       or self.unjustified):
            return 1
        return 0

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "rules": self.rules_run,
            "findings": [f.to_dict() for f in self.findings],
            "baselined": [
                {**f.to_dict(), "justification": e.justification}
                for f, e in self.baselined],
            "stale_baseline": [e.to_dict() for e in self.stale_baseline],
            "unjustified_baseline": [e.to_dict() for e in self.unjustified],
            "suppressed_inline": self.suppressed_inline,
            "baseline_added": [e.to_dict() for e in self.baseline_added],
            "baseline_removed": [e.to_dict() for e in self.baseline_removed],
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
        }


# ----------------------------------------------------------------------

def _stamp(finding: Finding, rule: Rule) -> Finding:
    """Fill in the rule id and the rule's severity."""
    return replace(finding, rule=rule.id, severity=rule.severity)


def run_rules(root: str | Path, rule_ids: list[str] | None = None,
              project: Project | None = None,
              cache=None) -> tuple[list[Finding], list[str]]:
    """Run rules and return (raw findings, rule ids run).

    Inline-allow suppression and the baseline are applied by
    :func:`lint`; this layer reports everything, which is what
    ``--update-baseline`` and the fixture tests want.

    ``cache`` (an :class:`repro.analysis.cache.AnalysisCache`) replays
    module-scope results for unchanged files; project-scope rules are
    never cached (they read across files).
    """
    project = project if project is not None else Project(root)
    rules = select_rules(rule_ids)
    findings: list[Finding] = []
    syntax_seen: set[str] = set()
    digests: dict[str, str] = {}
    for rule in rules:
        if rule.scope == "project":
            findings.extend(_stamp(f, rule) for f in rule.check(project))
            continue
        for ctx in project.modules(under=rule.dirs):
            if cache is not None:
                digest = digests.get(ctx.relpath)
                if digest is None:
                    from repro.analysis.cache import content_digest
                    digest = digests[ctx.relpath] = content_digest(ctx.source)
                hit = cache.lookup(ctx.relpath, digest, rule.id)
                if hit is not None:
                    findings.extend(hit)
                    continue
            try:
                ctx.tree
            except SyntaxError as exc:
                if ctx.relpath not in syntax_seen:
                    syntax_seen.add(ctx.relpath)
                    findings.append(Finding(
                        path=ctx.relpath, line=exc.lineno or 0,
                        message=f"syntax error: {exc.msg}",
                        symbol="syntax", rule="syntax", severity="error"))
                continue
            produced = [_stamp(f, rule) for f in rule.check(ctx)]
            findings.extend(produced)
            if cache is not None:
                cache.store(ctx.relpath, digests[ctx.relpath], rule.id,
                            produced)
    return findings, [r.id for r in rules]


def lint(root: str | Path, rule_ids: list[str] | None = None,
         baseline_path: str | Path | None = None,
         update_baseline: bool = False,
         use_cache: bool = True) -> LintReport:
    """The full pipeline behind ``repro lint``."""
    root = Path(root).resolve()
    project = Project(root)
    baseline_path = (Path(baseline_path) if baseline_path is not None
                     else root / BASELINE_NAME)
    baseline = Baseline.load(baseline_path)

    cache = None
    if use_cache:
        from repro.analysis.cache import AnalysisCache
        cache = AnalysisCache.load(root)

    raw, rules_run = run_rules(root, rule_ids, project=project, cache=cache)
    if cache is not None:
        cache.save()

    visible: list[Finding] = []
    suppressed_inline = 0
    for finding in raw:
        if finding.rule in project.allowed_rules(finding.path, finding.line):
            suppressed_inline += 1
        else:
            visible.append(finding)

    baseline_added: list[BaselineEntry] = []
    baseline_removed: list[BaselineEntry] = []
    if update_baseline:
        new_baseline = Baseline.from_findings(visible, previous=baseline)
        if rule_ids is not None:
            # a partial --rule update must not drop other rules' entries
            ran = set(rules_run)
            new_baseline = Baseline(
                new_baseline.entries
                + [e for e in baseline.entries if e.rule not in ran])
        old_keys = {e.key() for e in baseline.entries}
        new_keys = {e.key() for e in new_baseline.entries}
        baseline_added = [e for e in new_baseline.entries
                          if e.key() not in old_keys]
        baseline_removed = [e for e in baseline.entries
                            if e.key() not in new_keys]
        new_baseline.save(baseline_path)
        baseline = new_baseline

    active: list[Finding] = []
    baselined: list[tuple[Finding, BaselineEntry]] = []
    matched: set[tuple[str, str, str]] = set()
    for finding in visible:
        entry = baseline.match(finding)
        if entry is None:
            active.append(finding)
        else:
            matched.add(entry.key())
            baselined.append((finding, entry))

    # a partial --rule run legitimately leaves *other* rules' entries
    # unmatched, so staleness is judged per rule actually run; a full
    # run additionally reports entries naming retired rule ids
    if rule_ids is None:
        stale = baseline.stale(matched)
    else:
        ran = set(rules_run)
        stale = [e for e in baseline.stale(matched) if e.rule in ran]
    unjustified = [e for _, e in baselined
                   if not e.justification
                   or e.justification == TODO_JUSTIFICATION]

    return LintReport(root=str(root), rules_run=rules_run, findings=active,
                      baselined=baselined, stale_baseline=stale,
                      unjustified=unjustified,
                      suppressed_inline=suppressed_inline,
                      baseline_added=baseline_added,
                      baseline_removed=baseline_removed,
                      cache_hits=cache.hits if cache is not None else 0,
                      cache_misses=cache.misses if cache is not None else 0)


# ----------------------------------------------------------------------

def format_text(report: LintReport, verbose: bool = False) -> str:
    """Human-readable report (the CLI's default output)."""
    lines: list[str] = []
    for finding in report.findings:
        lines.append(finding.format())
    if verbose:
        for finding, entry in report.baselined:
            lines.append(f"{finding.format()}  [baselined: "
                         f"{entry.justification or 'no justification'}]")
    for entry in report.stale_baseline:
        lines.append(
            f"{BASELINE_NAME}: warning: stale baseline entry "
            f"[{entry.rule}] {entry.path} :: {entry.symbol} — the finding "
            f"no longer occurs; delete the entry")
    for entry in report.unjustified:
        lines.append(
            f"{BASELINE_NAME}: warning: baseline entry [{entry.rule}] "
            f"{entry.path} :: {entry.symbol} has no real justification — "
            f"explain why it is suppressed")
    for entry in report.baseline_added:
        lines.append(f"{BASELINE_NAME}: added [{entry.rule}] {entry.path} "
                     f":: {entry.symbol} — replace the TODO justification "
                     f"with a real sentence")
    for entry in report.baseline_removed:
        lines.append(f"{BASELINE_NAME}: removed [{entry.rule}] {entry.path} "
                     f":: {entry.symbol} — the finding is gone")
    if report.baseline_added or report.baseline_removed:
        lines.append(f"{BASELINE_NAME}: updated "
                     f"(+{len(report.baseline_added)} "
                     f"-{len(report.baseline_removed)})")
    errors, warnings = report.errors, report.warnings
    lines.append(
        f"repro lint: {len(report.rules_run)} rule(s) over {report.root}: "
        f"{len(errors)} error(s), {len(warnings)} warning(s), "
        f"{len(report.baselined)} baselined, "
        f"{report.suppressed_inline} inline-allowed, "
        f"{len(report.stale_baseline)} stale baseline entr"
        f"{'y' if len(report.stale_baseline) == 1 else 'ies'}")
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
