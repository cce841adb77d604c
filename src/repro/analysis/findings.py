"""The :class:`Finding` record every rule emits.

A finding is one concrete defect at one location.  ``symbol`` names
what is wrong independently of the line (``"_GRAPH_MEMO"``,
``"bare-except"``), so a report can be compared across edits.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One defect at one location.

    ``rule`` is stamped by the runner from the rule registration, so
    rule bodies only fill location and message.
    """

    path: str           # repo-relative, posix separators
    line: int           # 1-based; 0 = file/project-level finding
    message: str
    symbol: str = ""    # stable identity of the defect, line excluded
    rule: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}: error: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "symbol": self.symbol, "message": self.message}
