"""The :class:`Finding` record every rule emits.

A finding is one concrete defect at one location.  Its *identity* for
baseline matching is ``(rule, path, symbol-or-message)`` — deliberately
**not** the line number, so unrelated edits that shift code up or down
do not un-suppress a grandfathered finding.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Report-level severities.  ``error`` findings fail ``repro lint``
#: unless baselined; ``warning`` findings are advisory (they fail only
#: under ``--strict``) — for signals that are real but noisy.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One defect at one location.

    ``rule`` and ``severity`` are stamped by the runner from the rule
    registration, so rule bodies only fill location and message.
    """

    path: str           # repo-relative, posix separators
    line: int           # 1-based; 0 = file/project-level finding
    message: str
    symbol: str = ""    # stable identity for baseline matching
    rule: str = ""
    severity: str = ""

    def key(self) -> tuple[str, str, str]:
        """Baseline-matching identity (line numbers excluded)."""
        return (self.rule, self.path, self.symbol or self.message)

    def format(self) -> str:
        return (f"{self.path}:{self.line}: {self.severity}: "
                f"[{self.rule}] {self.message}")

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line,
                "symbol": self.symbol, "message": self.message}
