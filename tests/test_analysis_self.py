"""Meta-tests: the analyzer run against this repository."""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSelfLint:
    def test_repository_lints_clean(self, capsys):
        """`repro lint` exits 0 on the repo itself: every rule passes."""
        assert main(["lint", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_list_rules_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted([
            "module-state", "set-iteration", "id-key",
            "nondeterministic-call", "exception-hygiene",
            "fork-atomic-write"])

    def test_bad_input_exits_2_with_one_liner(self, capsys):
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "unknown lint rule" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rule_id", ["fork-shared-state", "fork-capture"])
    def test_rule_deleted_with_the_pools_is_unknown(self, rule_id, capsys):
        """The two rules that policed the fork pools went with them; no
        test took their place, so their names are plain unknowns."""
        assert main(["lint", "--rule", rule_id]) == 2
        assert f"unknown lint rule {rule_id!r}" in capsys.readouterr().err

    def test_json_report_shape(self, capsys):
        assert main(["lint", "--root", str(REPO_ROOT), "--format", "json",
                     "--rule", "module-state",
                     "--rule", "fork-atomic-write"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["findings", "root", "rules"]
        assert payload["root"] == str(REPO_ROOT)
        assert payload["rules"] == ["module-state", "fork-atomic-write"]
        assert payload["findings"] == []


def _write(root: Path, relpath: str, source: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


@pytest.fixture
def flagged_root(tmp_path):
    """A checkout with two module-state findings in two files."""
    _write(tmp_path, "src/repro/accel/a.py", "CACHE = {}\n")
    _write(tmp_path, "src/repro/hw/b.py", "\nSINKS = []\n")
    return tmp_path


class TestLintCli:
    def test_help_offers_only_the_kept_options(self):
        (lint_parser,) = [
            parser for action in build_parser()._subparsers._group_actions
            for name, parser in action.choices.items() if name == "lint"]
        options = {option: action for action in lint_parser._actions
                   for option in action.option_strings}
        assert sorted(options) == ["--format", "--help", "--list-rules",
                                   "--root", "--rule", "-h"]
        assert options["--format"].choices == ["text", "json"]

    @pytest.mark.parametrize("argv", [
        ["--baseline", "lint-baseline.json"], ["--update-baseline"],
        ["--no-cache"], ["--strict"], ["--catalog"], ["-v"],
        ["--format", "sarif"]], ids=lambda argv: argv[-1].lstrip("-"))
    def test_retired_option_is_a_usage_error(self, argv, capsys):
        """A script still passing a retired option stops with exit 2
        instead of linting with the option silently ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err

    def test_text_report_lists_findings_then_a_summary(self, flagged_root,
                                                       capsys):
        assert main(["lint", "--root", str(flagged_root),
                     "--rule", "module-state"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ", 3)[:3] for line in lines[:-1]] == [
            ["src/repro/accel/a.py:1:", "error:", "[module-state]"],
            ["src/repro/hw/b.py:2:", "error:", "[module-state]"]]
        assert lines[-1] == (f"repro lint: 1 rule(s) over {flagged_root}: "
                             f"2 error(s)")

    def test_json_report_is_identical_across_runs(self, flagged_root, capsys):
        argv = ["lint", "--root", str(flagged_root), "--format", "json"]
        assert main(argv) == 1
        first = capsys.readouterr().out
        assert main(argv) == 1
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert [(f["path"], f["line"], f["rule"])
                for f in payload["findings"]] == [
            ("src/repro/accel/a.py", 1, "module-state"),
            ("src/repro/hw/b.py", 2, "module-state")]

    def test_rule_flag_repeats(self, flagged_root, capsys):
        assert main(["lint", "--root", str(flagged_root), "--format", "json",
                     "--rule", "id-key", "--rule", "set-iteration"]) == 0
        assert json.loads(capsys.readouterr().out)["rules"] == [
            "id-key", "set-iteration"]

    def test_lint_writes_nothing(self, flagged_root):
        """No cache, no baseline: a run leaves the checkout as it was."""
        before = sorted(flagged_root.rglob("*"))
        assert main(["lint", "--root", str(flagged_root)]) == 1
        assert sorted(flagged_root.rglob("*")) == before

    def test_root_without_sources_exits_2(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path / "typo")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lint failed:") and "src/repro" in err


class TestNoAllowComments:
    def test_no_module_carries_an_allow_comment(self):
        """An allow comment hides nothing, so one left in the tree would
        tell its reader a finding is waived when none can be."""
        from repro.analysis.context import Project
        allows = [(ctx.relpath, lineno)
                  for ctx in Project(REPO_ROOT).modules()
                  for lineno, text in enumerate(ctx.source.splitlines(), 1)
                  if re.search(r"#\s*lint:\s*allow", text)]
        assert allows == []


class TestStatsSchemaError:
    """The exception-hygiene fix kept the historical ValueError contract
    via dual inheritance (callers catching ValueError still work)."""

    def test_unknown_fields_raise_both_taxonomies(self):
        from repro.accel.stats import SimStats
        from repro.errors import ReproError, StatsSchemaError
        with pytest.raises(StatsSchemaError):
            SimStats.from_dict({"no_such_counter": 1})
        with pytest.raises(ValueError):
            SimStats.from_dict({"no_such_counter": 1})
        with pytest.raises(ReproError):
            SimStats.from_dict({"no_such_counter": 1})
