"""Refolded repo guards: one analysis entry point for CI.

Two of these checks predate the rule framework as standalone scripts
(``check_no_bytecode.py``, ``check_cli_docs.py``).  The logic now
lives here; the scripts remain as thin shims for direct invocation,
and ``repro lint`` runs everything.  ``lint-docs`` keeps the generated
rule catalog in ``docs/linting.md`` current.
"""

from __future__ import annotations

import re
import subprocess
from pathlib import Path

from repro.analysis.registry import rule

# ----------------------------------------------------------------------
# no-bytecode — tracked __pycache__/.pyc artifacts (commit 14fb013 bug)
# ----------------------------------------------------------------------

def bytecode_paths(paths: list[str]) -> list[str]:
    """The subset of ``paths`` that is compiled-bytecode artifacts."""
    return [p for p in paths
            if p.endswith((".pyc", ".pyo")) or "__pycache__" in p.split("/")]


def tracked_files(root: str | Path) -> list[str] | None:
    """``git ls-files`` of ``root`` (None when git is unusable here)."""
    try:
        out = subprocess.run(["git", "ls-files"], cwd=str(root), check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.splitlines()


@rule("no-bytecode", scope="project", description=(
    "no compiled Python bytecode (__pycache__/.pyc/.pyo) tracked by "
    "git — build artifacts go stale the moment the source changes"))
def check_no_bytecode(project):
    paths = tracked_files(project.root)
    if paths is None:
        # not a git checkout (e.g. a source tarball): nothing to check
        return
    for path in bytecode_paths(paths):
        yield project.finding(
            path, 0,
            "compiled bytecode is tracked by git; run "
            "`git rm --cached` on it (it is .gitignore'd)",
            symbol="tracked-bytecode")


# ----------------------------------------------------------------------
# cli-docs — docs/cli.md vs the real parser, both directions
# ----------------------------------------------------------------------

_DOCS_PATH = "docs/cli.md"
_SUBCOMMAND_RE = re.compile(r"`(?:python -m )?repro ([a-z][a-z0-9-]*)")


def documented_subcommands(text: str) -> set[str]:
    """Subcommand names docs/cli.md mentions as ``repro <word>``."""
    return set(_SUBCOMMAND_RE.findall(text))


def actual_subcommands() -> set[str]:
    """Subcommand names the real parser defines (and sanity-checks
    that ``--help`` mentions each one)."""
    from repro.cli import build_parser
    parser = build_parser()
    help_text = parser.format_help()
    names: set[str] = set()
    for action in parser._subparsers._group_actions:      # argparse internals,
        names.update(action.choices)                      # stable since 2.7
    missing_from_help = {n for n in names if n not in help_text}
    if missing_from_help:
        raise AssertionError(
            f"parser defines {sorted(missing_from_help)} but --help "
            "does not mention them")
    return names


@rule("cli-docs", scope="project", description=(
    "docs/cli.md and the real CLI must agree: every documented "
    "subcommand exists, every subcommand is documented"))
def check_cli_docs(project):
    doc_path = project.root / _DOCS_PATH
    try:
        documented = documented_subcommands(
            doc_path.read_text(encoding="utf-8"))
    except OSError:
        yield project.finding(_DOCS_PATH, 0, "docs/cli.md is missing",
                              symbol="missing-docs")
        return
    actual = actual_subcommands()
    for name in sorted(documented - actual):
        yield project.finding(
            _DOCS_PATH, 0,
            f"docs/cli.md documents `repro {name}` but the CLI has no "
            f"such subcommand",
            symbol=f"doc-only.{name}")
    for name in sorted(actual - documented):
        yield project.finding(
            _DOCS_PATH, 0,
            f"subcommand `repro {name}` is not documented in docs/cli.md",
            symbol=f"undocumented.{name}")


# ----------------------------------------------------------------------
# lint-docs — docs/linting.md carries the current generated catalog
# ----------------------------------------------------------------------

_LINTING_DOCS_PATH = "docs/linting.md"


@rule("lint-docs", scope="project", description=(
    "docs/linting.md must embed the current generated rule catalog "
    "between the rule-catalog markers (refresh with "
    "`repro lint --catalog`)"))
def check_lint_docs(project):
    from repro.analysis.registry import (
        CATALOG_BEGIN,
        CATALOG_END,
        rule_catalog_markdown,
    )

    doc_path = project.root / _LINTING_DOCS_PATH
    try:
        text = doc_path.read_text(encoding="utf-8")
    except OSError:
        # fixture repos legitimately have no docs tree; only a repo
        # that *has* linting docs must keep them current
        return
    if CATALOG_BEGIN not in text or CATALOG_END not in text:
        yield project.finding(
            _LINTING_DOCS_PATH, 0,
            f"docs/linting.md has no rule-catalog markers; add "
            f"{CATALOG_BEGIN!r} ... {CATALOG_END!r} and paste the "
            f"output of `repro lint --catalog` between them",
            symbol="catalog-markers")
        return
    begin = text.index(CATALOG_BEGIN) + len(CATALOG_BEGIN)
    end = text.index(CATALOG_END)
    if end < begin:
        yield project.finding(_LINTING_DOCS_PATH, 0,
                              "rule-catalog markers are out of order",
                              symbol="catalog-markers")
        return
    committed = text[begin:end].strip()
    current = rule_catalog_markdown().strip()
    if committed != current:
        line = text[:begin].count("\n") + 1
        yield project.finding(
            _LINTING_DOCS_PATH, line,
            "the generated rule catalog in docs/linting.md is out of "
            "date; re-run `repro lint --catalog` and replace the text "
            "between the markers",
            symbol="catalog-drift")
