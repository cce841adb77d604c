"""Meta-tests: the analyzer run against this repository."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, run_rules
from repro.analysis.context import _ALLOW_RE, Project
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSelfLint:
    def test_repository_lints_clean(self, capsys):
        """`repro lint` exits 0 on the repo itself: every rule passes or
        the finding carries a justified inline allow."""
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
            "fork-shared-state", "fork-atomic-write", "fork-capture"])

    def test_bad_input_exits_2_with_one_liner(self, capsys):
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "unknown lint rule" in err
        assert "Traceback" not in err

    def test_json_report_shape(self, capsys):
        """The sweep executor's per-process graph memo is the one
        deliberate fork-shared-state write, allowed inline."""
        assert main(["lint", "--root", str(REPO_ROOT),
                     "--rule", "fork-shared-state", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["fork-shared-state"]
        assert payload["findings"] == []
        assert payload["suppressed_inline"] == 1


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
                             f"2 error(s), 0 inline-allowed")

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


def _inline_allows() -> list[tuple[str, int, list[str]]]:
    """(path, line, rule ids) of every inline allow in the source tree."""
    return [(ctx.relpath, lineno, match.group(1).split(","))
            for ctx in Project(REPO_ROOT).modules()
            for lineno, text in enumerate(ctx.lines, 1)
            for match in [_ALLOW_RE.search(text)] if match]


class TestInlineAllows:
    """The inline allow is the only way past a finding, so each one in
    the tree must name a live rule, hide a real finding and say why."""

    def test_every_allow_names_a_registered_rule(self):
        allows = _inline_allows()
        assert allows, "no allow found: the scan itself is broken"
        unknown = [(path, line, rule) for path, line, ids in allows
                   for rule in ids if rule not in all_rules()]
        assert unknown == []

    def test_every_allow_hides_a_finding(self):
        """An allow that hides nothing is stale: it misleads the reader
        and would silently swallow a later finding on its line."""
        raw, _ = run_rules(REPO_ROOT)
        flagged = {(f.path, f.line, f.rule) for f in raw}
        stale = [(path, line, rule) for path, line, ids in _inline_allows()
                 for rule in ids
                 if (path, line, rule) not in flagged
                 and (path, line + 1, rule) not in flagged]
        assert stale == []

    def test_every_allow_is_explained(self):
        """A comment beside the allow says why the code is right."""
        lines = {ctx.relpath: ctx.lines
                 for ctx in Project(REPO_ROOT).modules()}

        def is_comment(path, lineno):
            text = lines[path][lineno - 1].strip() \
                if 1 <= lineno <= len(lines[path]) else ""
            return text.startswith("#") and not _ALLOW_RE.search(text)

        unexplained = [(path, line) for path, line, _ in _inline_allows()
                       if not (is_comment(path, line - 1)
                               or is_comment(path, line + 1))]
        assert unexplained == []


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
