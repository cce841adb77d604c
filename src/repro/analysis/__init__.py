"""Static contract & determinism analysis — the ``repro lint`` layer.

The reproduction's correctness claims rest on invariants no unit test
can watch continuously: the ``reference``/``soa`` engines must stay
byte-identical under the SimStats contract, cache keys must cover every
config field, and module state must never leak between runs.  The last
one has already been violated and hand-patched (``backend.py`` once
shared module-level sink lists across simulators).  This package
checks them mechanically.

It is a small AST-walking rule framework plus repo-specific rules:

* :mod:`repro.analysis.findings`  — the :class:`Finding` record
* :mod:`repro.analysis.registry`  — rule registration (``@rule``),
  per-rule severity and scope, the generated markdown catalog
* :mod:`repro.analysis.context`   — parsed-module / project contexts
  (plus the memoized project call graph accessor)
* :mod:`repro.analysis.callgraph` — project-wide call/reference graph
* :mod:`repro.analysis.dataflow`  — reaching self-attribute loads,
  module-global mutation sites, fork entry points
* :mod:`repro.analysis.baseline`  — the committed grandfather file
  (``lint-baseline.json``) for justified, suppressed findings
* :mod:`repro.analysis.cache`     — per-file incremental result cache
  (``.repro-lint-cache.json``)
* :mod:`repro.analysis.runner`    — rule execution, inline-``allow``
  suppression, baseline application, text/JSON reports
* :mod:`repro.analysis.sarif`     — SARIF 2.1.0 export for CI
* :mod:`repro.analysis.rules`     — the rule catalog itself
  (``docs/linting.md`` documents every rule)

Entry points: ``repro lint`` on the command line, or::

    from repro.analysis import lint
    report = lint("/path/to/repo")
    assert report.exit_code() == 0

Everything here is import-light: rules parse source with :mod:`ast`
and only the semantic rules (cache-key perturbation, the CLI-docs
cross-check) import the library under analysis — which is this very
package's own distribution, never a third-party dependency.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.context import ModuleContext, Project
from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.registry import RULES, Rule, all_rules, rule
from repro.analysis.runner import LintReport, format_text, lint, run_rules

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "SEVERITIES",
    "LintReport",
    "ModuleContext",
    "Project",
    "RULES",
    "Rule",
    "all_rules",
    "rule",
    "format_text",
    "lint",
    "run_rules",
]
