"""Rule registration: the ``@rule`` decorator and the global catalog.

A rule is a named check with a docstring-sized description.  It runs
once per parsed source file whose repo-relative path starts with one
of the rule's ``dirs`` prefixes, and receives a
:class:`~repro.analysis.context.ModuleContext`.

Every finding is an error: ``repro lint`` fails on any finding that
no inline ``# lint: allow=<rule>`` comment covers.

Rules register at import time of :mod:`repro.analysis.rules`; the
registry itself depends on nothing, so there are no import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.findings import Finding
from repro.errors import ConfigError

@dataclass(frozen=True)
class Rule:
    """One registered check (see ``docs/linting.md`` for the catalog)."""

    id: str
    description: str
    check: Callable[..., Iterable[Finding]]
    #: repo-relative directory prefixes the rule applies to (empty =
    #: every module under ``src/repro``)
    dirs: tuple[str, ...] = field(default=())


#: id -> Rule, in registration order.
RULES: dict[str, Rule] = {}


def rule(rule_id: str, *, description: str, dirs: tuple[str, ...] = ()):
    """Register the decorated generator function as a lint rule."""
    if rule_id in RULES:
        raise ConfigError(f"duplicate rule id {rule_id!r}")

    def register(check: Callable[..., Iterable[Finding]]):
        RULES[rule_id] = Rule(id=rule_id, description=description,
                              check=check, dirs=tuple(dirs))
        return check

    return register


def all_rules() -> dict[str, Rule]:
    """The full catalog, importing the rule modules on first use."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)
    return RULES


def select_rules(rule_ids: Iterable[str] | None = None) -> list[Rule]:
    """Resolve a rule-id selection (None = every registered rule)."""
    catalog = all_rules()
    if rule_ids is None:
        return list(catalog.values())
    selected = []
    for rule_id in rule_ids:
        if rule_id not in catalog:
            raise ConfigError(
                f"unknown lint rule {rule_id!r}; known: {sorted(catalog)}")
        selected.append(catalog[rule_id])
    return selected
