"""Static determinism analysis — the ``repro lint`` layer.

The reproduction's correctness claims rest on invariants no unit test
can watch continuously: the ``reference``/``soa`` engines must stay
byte-identical under the SimStats contract, and module state must
never leak between runs.  The last one has already been violated and
hand-patched (``backend.py`` once shared module-level sink lists
across simulators).  This package checks, from the source, the
hazards a test cannot run into on purpose: unordered iteration,
``id()`` keys, wall-clock and unseeded-RNG reads, broad excepts,
module state, and sweep-layer file writes that bypass the atomic
writer.
Facts a test *can* run (cache-key coverage, the engine registry, the
public surface, docs vs CLI) are tests, not rules.

It is a small AST-walking rule framework plus repo-specific rules:

* :mod:`repro.analysis.findings`  — the :class:`Finding` record
* :mod:`repro.analysis.registry`  — rule registration (``@rule``)
* :mod:`repro.analysis.context`   — parsed-module / project contexts
* :mod:`repro.analysis.dataflow`  — module-global mutation sites
* :mod:`repro.analysis.runner`    — rule execution, text/JSON reports
* :mod:`repro.analysis.rules`     — the rule catalog itself
  (``docs/linting.md`` documents every rule)

Entry points: ``repro lint`` on the command line, or::

    from repro.analysis import lint
    report = lint("/path/to/repo")
    assert report.exit_code() == 0

Everything here is import-light: rules parse source with :mod:`ast`
and never import the library under analysis.
"""

from repro.analysis.context import ModuleContext, Project
from repro.analysis.findings import Finding
from repro.analysis.registry import RULES, Rule, all_rules, rule
from repro.analysis.runner import LintReport, format_text, lint, run_rules

__all__ = [
    "Finding",
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
