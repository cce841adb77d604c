"""Checks on the repository itself: docs that name the code, and what
git tracks."""

import argparse
import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import all_rules
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    # argparse keeps the subparser table in private attributes
    parsers: dict[str, argparse.ArgumentParser] = {}
    for action in build_parser()._subparsers._group_actions:
        parsers.update(action.choices)
    return parsers


def _subcommands() -> set[str]:
    return set(_subparsers())


def _option_spellings(parser: argparse.ArgumentParser) -> list[list[str]]:
    """The spellings of every option of ``parser`` and of its own
    subcommands (``cache gc``), ``--help`` aside."""
    options = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                options.extend(_option_spellings(child))
        elif action.option_strings \
                and not isinstance(action, argparse._HelpAction):
            options.append(action.option_strings)
    return options


def _cli_sections() -> dict[str, str]:
    """docs/cli.md's ``## `repro <name>` `` sections, by subcommand."""
    text = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^## `repro ([a-z-]+)`\n(.*?)(?=^## |\Z)",
                           text, re.MULTILINE | re.DOTALL))


#: Rules that matched a source pattern for a fact the tests now check by
#: running the code; docs/linting.md maps each to its test.
RETIRED_RULES = ("api-surface", "cache-key", "cli-docs", "engine-registry",
                 "lint-docs", "no-bytecode")


def _retired_rule_table() -> dict[str, str]:
    """docs/linting.md's retired rule -> the test node id its row names."""
    text = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| `([a-z-]+)` \| `(tests/[^`]+)`",
                           text, re.MULTILINE))


class TestDocsNameTheCode:
    def test_cli_docs_name_exactly_the_subcommands(self):
        """Every subcommand docs/cli.md mentions as `repro <name>`
        exists, and every subcommand is documented."""
        text = (REPO_ROOT / "docs" / "cli.md").read_text(encoding="utf-8")
        documented = set(
            re.findall(r"`(?:python -m )?repro ([a-z][a-z0-9-]*)", text))
        assert documented == _subcommands()

    def test_top_level_help_names_every_subcommand(self):
        help_text = build_parser().format_help()
        assert [n for n in sorted(_subcommands()) if n not in help_text] == []

    def test_linting_docs_name_exactly_the_rules(self):
        """docs/linting.md gives each registered rule one
        ``* **`<id>`** —`` entry, and no entry for a rule that is gone."""
        text = (REPO_ROOT / "docs" / "linting.md").read_text(encoding="utf-8")
        documented = re.findall(r"^\* \*\*`([a-z-]+)`\*\*", text, re.MULTILINE)
        assert sorted(documented) == sorted(all_rules())

    @pytest.mark.parametrize("name", sorted(_subcommands()))
    def test_cli_docs_spell_every_option(self, name):
        """Each option of `repro <name>` appears, long or short, in
        that subcommand's own section of docs/cli.md."""
        section = _cli_sections()[name]
        options = _option_spellings(_subparsers()[name])
        undocumented = [
            spellings[0] for spellings in options
            if not any(re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])",
                                 section) for s in spellings)]
        assert undocumented == []

    def test_retired_rule_table_lists_exactly_the_retired_rules(self):
        assert sorted(_retired_rule_table()) == list(RETIRED_RULES)
        assert set(RETIRED_RULES).isdisjoint(all_rules())

    @pytest.mark.parametrize("rule_id", RETIRED_RULES)
    def test_retired_rule_names_a_test_that_exists(self, rule_id):
        """The test a retired rule's row points at is defined where the
        node id says, so the table cannot outlive a rename."""
        path, *names = _retired_rule_table()[rule_id].split("::")
        scope = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
        for name in names:
            scope = next((node for node in scope.body
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == name), None)
            assert scope is not None, f"{path} defines no {name}"


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
class TestTrackedFiles:
    def test_no_bytecode_is_tracked(self):
        """Tracked bytecode goes stale the moment its source changes."""
        proc = subprocess.run(["git", "ls-files"], cwd=REPO_ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            pytest.skip("not a git checkout")
        tracked = proc.stdout.splitlines()
        assert [p for p in tracked
                if p.endswith((".pyc", ".pyo"))
                or "__pycache__" in p.split("/")] == []
