"""Checks on the repository itself: docs that name the code and the
tests, what CI installs, what ``ci.sh --help`` says, how the benchmark
suite builds its tables, and what git tracks."""

import argparse
import ast
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.regen import SECTIONS
from repro.cli import build_parser
from repro.serve import protocol

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"


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


def _hazard_table() -> dict[str, str]:
    """docs/testing.md's hazard -> the test node id its row names."""
    text = (REPO_ROOT / "docs" / "testing.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^\| ([^|`]+?) \| `(tests/[^`]+)`",
                           text, re.MULTILINE))


def _serving_message_table() -> set[str]:
    """Every wire type docs/serving.md's message table names, in its
    request and reply columns."""
    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    table = re.search(r"^\| request .*?(?=\n\n)", text,
                      re.MULTILINE | re.DOTALL).group(0)
    names = set()
    for row in table.splitlines()[2:]:
        request, reply = row.split("|")[1:3]
        names.update(re.findall(r"`([a-z_-]+)`", request + reply))
    return names


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

    def test_serving_docs_name_exactly_the_message_types(self):
        """docs/serving.md's message table spells each wire type as
        ``protocol.py`` registers it, and lists every one."""
        assert _serving_message_table() == set(protocol._MESSAGE_TYPES)

    def test_hazard_table_has_a_row_per_source_check(self):
        """docs/testing.md names each check tests/test_source_checks.py
        runs over the tree."""
        from test_source_checks import CHECKS
        rows = set(_hazard_table().values())
        assert [check.__name__ for check in CHECKS
                if "tests/test_source_checks.py::test_source_tree_is_clean"
                   f"[{check.__name__}]" not in rows] == []

    @pytest.mark.parametrize("hazard", sorted(_hazard_table()))
    def test_hazard_table_names_a_test_that_exists(self, hazard):
        """The test a row points at is defined where its node id says,
        so the table cannot outlive a rename.  A parametrized node's id
        names a function of the same file (a source check)."""
        path, *names = _hazard_table()[hazard].split("::")
        names[-1], _, param = names[-1].partition("[")
        tree = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
        scope = tree
        for name in names:
            scope = next((node for node in scope.body
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == name), None)
            assert scope is not None, f"{path} defines no {name}"
        functions = {node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        assert not param or param.rstrip("]") in functions, \
            f"{path} defines no {param}"


def _top_level_imports(tree: ast.AST) -> set[str]:
    """First component of every absolute import in an AST."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


class TestCiInstalls:
    def test_setup_action_installs_every_third_party_import(self):
        """Every CI job installs its packages through one pip line; a
        module imported but not installed there fails CI's collection."""
        action = (REPO_ROOT / ".github" / "actions" / "setup-repro"
                  / "action.yml").read_text(encoding="utf-8")
        installed = {name for line in re.findall(r"^\s*pip install (.+)$",
                                                 action, re.MULTILINE)
                     for name in line.split() if not name.startswith("-")}
        sources = sorted(path for root in ("src", "tests", "benchmarks",
                                           "scripts")
                         for path in (REPO_ROOT / root).rglob("*.py"))
        # sibling modules (test_engine_fuzz imports test_engine_differential)
        known = (set(sys.stdlib_module_names) | {"repro"}
                 | {path.stem for path in sources})
        missing: dict[str, str] = {}
        for path in sources:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name in sorted(_top_level_imports(tree) - known - installed):
                missing.setdefault(name, str(path.relative_to(REPO_ROOT)))
        assert missing == {}


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash unavailable")
class TestCiScript:
    def test_help_names_every_stage(self):
        """``ci.sh --help`` prints the script's leading comment, which
        names each stage its ``case`` dispatches."""
        script = REPO_ROOT / "scripts" / "ci.sh"
        dispatch = re.search(r'^    case "\$stage" in\n(.*?)^    esac',
                             script.read_text(encoding="utf-8"),
                             re.MULTILINE | re.DOTALL).group(1)
        stages = re.findall(r"^ +([a-z]+)\)", dispatch, re.MULTILINE)
        # run from scripts/, so "$0" is relative to another directory
        # than the one the script changes into
        proc = subprocess.run(["bash", script.name, "--help"],
                              cwd=script.parent, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2
        assert "all" in stages and len(stages) > 1
        assert [stage for stage in stages
                if not re.search(rf"ci\.sh {stage}\b", proc.stdout)] == []


def _benchmark_trees():
    for path in sorted(BENCHMARKS.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _called_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


class TestBenchmarkSuite:
    def test_each_section_is_built_by_exactly_one_bench(self):
        """Each report section has one bench asserting the paper's
        claims on its rows, built by ``section("<key>")``."""
        builders: dict[str, list[str]] = {}
        for path, tree in _benchmark_trees():
            if not path.name.startswith("test_"):
                continue
            for node in ast.walk(tree):
                if _called_name(node) == "section" and node.args \
                        and isinstance(node.args[0], ast.Constant):
                    builders.setdefault(node.args[0].value, []).append(
                        path.name)
        assert {key: len(paths) for key, paths in builders.items()} \
            == dict.fromkeys(SECTIONS, 1)

    def test_no_bench_formats_or_saves_a_table(self):
        """Tables reach benchmarks/results only through the ``section``
        fixture, which renders each with its ``SectionSpec``."""
        found = [f"{path.name}:{node.lineno} {_called_name(node)}"
                 for path, tree in _benchmark_trees()
                 for node in ast.walk(tree)
                 if _called_name(node) in ("format_table", "save_rows")]
        assert found == []

    def test_no_test_requests_the_benchmark_fixture(self):
        """CI does not install pytest-benchmark."""
        found = [f"{path.relative_to(REPO_ROOT)}:{node.lineno} {node.name}"
                 for root in ("tests", "benchmarks")
                 for path in sorted((REPO_ROOT / root).rglob("*.py"))
                 for node in ast.walk(ast.parse(
                     path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.FunctionDef)
                 and "benchmark" in [arg.arg for arg in node.args.args]]
        assert found == []


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
