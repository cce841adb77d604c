"""Rule execution and reporting for ``repro lint``.

Pipeline: run every selected rule over the project and stamp the rule
id onto each finding.  Any finding fails the run; there is no way to
suppress one, so a finding is fixed or its rule is changed.

Exit-code contract (the CI gate): 0 = no finding, 1 = findings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.context import SOURCE_ROOT, Project
from repro.analysis.findings import Finding
from repro.analysis.registry import select_rules
from repro.errors import ConfigError


@dataclass
class LintReport:
    """Everything one ``repro lint`` invocation decided."""

    root: str
    rules_run: list[str]
    findings: list[Finding]

    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "rules": self.rules_run,
            "findings": [f.to_dict() for f in self.findings],
        }


# ----------------------------------------------------------------------

def run_rules(root: str | Path, rule_ids: list[str] | None = None
              ) -> tuple[list[Finding], list[str]]:
    """Run rules and return (findings, rule ids run)."""
    project = Project(root)
    rules = select_rules(rule_ids)
    findings: list[Finding] = []
    syntax_seen: set[str] = set()
    for rule in rules:
        for ctx in project.modules(under=rule.dirs):
            try:
                ctx.tree
            except SyntaxError as exc:
                if ctx.relpath not in syntax_seen:
                    syntax_seen.add(ctx.relpath)
                    findings.append(Finding(
                        path=ctx.relpath, line=exc.lineno or 0,
                        message=f"syntax error: {exc.msg}",
                        symbol="syntax", rule="syntax"))
                continue
            findings.extend(replace(f, rule=rule.id) for f in rule.check(ctx))
    return findings, [r.id for r in rules]


def lint(root: str | Path, rule_ids: list[str] | None = None) -> LintReport:
    """The full pipeline behind ``repro lint``."""
    root = Path(root).resolve()
    if not (root / SOURCE_ROOT).is_dir():
        # a mistyped --root would otherwise pass the gate with 0 errors
        raise ConfigError(f"{root} has no {SOURCE_ROOT}/ to lint")
    findings, rules_run = run_rules(root, rule_ids)
    return LintReport(root=str(root), rules_run=rules_run, findings=findings)


# ----------------------------------------------------------------------

def format_text(report: LintReport) -> str:
    """Human-readable report (the CLI's default output)."""
    lines = [finding.format() for finding in report.findings]
    lines.append(
        f"repro lint: {len(report.rules_run)} rule(s) over {report.root}: "
        f"{len(report.findings)} error(s)")
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
