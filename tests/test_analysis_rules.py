"""Fixture-project tests for the ``repro.analysis`` rule catalog.

Each test builds a minimal repository under ``tmp_path`` containing
exactly one violation (plus near-miss code that must stay quiet) and
runs a single rule over it via :func:`repro.analysis.run_rules`.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint, run_rules
from repro.errors import ConfigError


def write(root: Path, relpath: str, source: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def run(root: Path, rule_id: str):
    findings, ran = run_rules(root, [rule_id])
    assert ran == [rule_id]
    return findings


def symbols(findings):
    return sorted(f.symbol for f in findings)


# ----------------------------------------------------------------------
# module-state
# ----------------------------------------------------------------------

class TestModuleState:
    def test_flags_mutables_not_frozen_peers(self, tmp_path):
        write(tmp_path, "src/repro/accel/bad.py", """\
            CACHE = {}
            SINKS = []
            NAMES = ("a", "b")
            FROZEN = frozenset({"x"})
            __all__ = ["CACHE", "SINKS"]


            class Widget:
                registry = {}
                LIMIT = 4
        """)
        assert symbols(run(tmp_path, "module-state")) == [
            "CACHE", "SINKS", "Widget.registry"]

    def test_constructor_calls_and_comprehensions(self, tmp_path):
        write(tmp_path, "src/repro/hw/bad.py", """\
            from collections import defaultdict, deque

            BY_NAME = defaultdict(list)
            QUEUE = deque()
            DERIVED = [x for x in range(4)]
            PROXY = __import__("types").MappingProxyType({"a": 1})
        """)
        assert symbols(run(tmp_path, "module-state")) == [
            "BY_NAME", "DERIVED", "QUEUE"]

    def test_outside_core_dirs_is_quiet(self, tmp_path):
        write(tmp_path, "src/repro/graph/ok.py", "CACHE = {}\n")
        assert run(tmp_path, "module-state") == []

    def test_descends_into_guarded_blocks(self, tmp_path):
        write(tmp_path, "src/repro/mdp/bad.py", """\
            try:
                SEEN = set()
            except ImportError:
                SEEN = set()
        """)
        assert {f.symbol for f in run(tmp_path, "module-state")} == {"SEEN"}

    def test_function_locals_are_fine(self, tmp_path):
        write(tmp_path, "src/repro/accel/ok.py", """\
            def build():
                cache = {}
                return cache
        """)
        assert run(tmp_path, "module-state") == []

    def test_message_carries_mutation_site_evidence(self, tmp_path):
        write(tmp_path, "src/repro/accel/evidence.py", """\
            CACHE = {}


            def remember(key, value):
                CACHE[key] = value
        """)
        (finding,) = run(tmp_path, "module-state")
        assert finding.symbol == "CACHE"
        assert "mutated by remember() at line 5" in finding.message
        assert "[...] = ..." in finding.message

    def test_unmutated_binding_reads_as_freezable(self, tmp_path):
        write(tmp_path, "src/repro/accel/frozen.py", """\
            TABLE = {"a": 1}


            def lookup(key):
                return TABLE[key]
        """)
        (finding,) = run(tmp_path, "module-state")
        assert "no in-module mutation sites" in finding.message


# ----------------------------------------------------------------------
# set-iteration / id-key / nondeterministic-call
# ----------------------------------------------------------------------

class TestSetIteration:
    def test_flags_order_sinks(self, tmp_path):
        write(tmp_path, "src/repro/sweep/bad.py", """\
            def f(xs):
                for n in {"a", "b"}:
                    pass
                out = list(set(xs))
                joined = ",".join({str(x) for x in xs})
                comp = [n for n in frozenset(xs)]
                return out, joined, comp
        """)
        assert symbols(run(tmp_path, "set-iteration")) == [
            "set-iter@comprehension", "set-iter@for-loop",
            "set-iter@list()", "set-iter@str.join()"]

    def test_sorted_wrapping_is_safe(self, tmp_path):
        write(tmp_path, "src/repro/accel/ok.py", """\
            def f(xs):
                for n in sorted(set(xs)):
                    pass
                return sorted({x + 1 for x in xs})
        """)
        assert run(tmp_path, "set-iteration") == []

    def test_plain_dict_iteration_not_flagged(self, tmp_path):
        write(tmp_path, "src/repro/accel/ok.py", """\
            def f(d):
                return [k for k in d] + list(d.values())
        """)
        assert run(tmp_path, "set-iteration") == []


class TestIdKey:
    def test_flags_id_calls(self, tmp_path):
        write(tmp_path, "src/repro/accel/bad.py", """\
            def key(obj, table):
                table[id(obj)] = obj
        """)
        assert symbols(run(tmp_path, "id-key")) == ["id-call"]

    def test_unrelated_names_quiet(self, tmp_path):
        write(tmp_path, "src/repro/accel/ok.py", """\
            def f(node):
                return node.id(3)
        """)
        assert run(tmp_path, "id-key") == []


class TestNondeterministicCall:
    def test_flags_clock_and_unseeded_rng(self, tmp_path):
        write(tmp_path, "src/repro/accel/bad.py", """\
            import time
            import numpy as np
            from random import random


            def stamp():
                return time.time()


            def draw():
                return np.random.random()


            def seeded(seed):
                return np.random.default_rng(seed)
        """)
        assert symbols(run(tmp_path, "nondeterministic-call")) == [
            "import-random", "np.random.random", "time.time"]

    def test_sweep_layer_clock_is_out_of_scope(self, tmp_path):
        # wall_seconds provenance in the sweep layer is volatile by
        # design; the rule only polices the simulation core
        write(tmp_path, "src/repro/sweep/ok.py", """\
            import time


            def wall():
                return time.perf_counter()
        """)
        assert run(tmp_path, "nondeterministic-call") == []


# ----------------------------------------------------------------------
# exception-hygiene
# ----------------------------------------------------------------------

class TestExceptionHygiene:
    def test_flags_bare_broad_and_foreign_raise(self, tmp_path):
        write(tmp_path, "src/repro/hw/bad.py", """\
            def f():
                try:
                    pass
                except:
                    pass


            def g():
                try:
                    pass
                except Exception:
                    return None


            def h():
                raise ValueError("boom")
        """)
        assert symbols(run(tmp_path, "exception-hygiene")) == [
            "bare-except", "broad-except.Exception", "raise.ValueError"]

    def test_cleanup_reraise_and_library_errors_ok(self, tmp_path):
        write(tmp_path, "src/repro/accel/ok.py", """\
            from repro.errors import SimulationError


            def f(resource):
                try:
                    resource.use()
                except Exception:
                    resource.close()
                    raise


            def g():
                raise SimulationError("invariant broken")


            def h():
                raise NotImplementedError
        """)
        assert run(tmp_path, "exception-hygiene") == []


# ----------------------------------------------------------------------
# runner behaviour: no suppression, syntax errors, unknown rules
# ----------------------------------------------------------------------

class TestRunner:
    def test_allow_comment_hides_nothing(self, tmp_path):
        """There is no suppression path: an allow comment on the flagged
        line or the line above it leaves the finding, and the run fails."""
        write(tmp_path, "src/repro/accel/mod.py", """\
            CACHE = {}  # lint: allow=module-state
            # lint: allow=module-state
            SINKS = []
        """)
        report = lint(tmp_path, rule_ids=["module-state"])
        assert [f.line for f in report.findings] == [1, 3]
        assert report.exit_code() == 1

    def test_allow_comment_naming_several_rules_hides_nothing(
            self, tmp_path):
        write(tmp_path, "src/repro/accel/mod.py", """\
            # lint: allow=module-state,id-key
            KEYS = [id(x) for x in {1, 2}]
        """)
        report = lint(tmp_path, rule_ids=["module-state", "id-key",
                                          "set-iteration"])
        assert sorted((f.line, f.rule) for f in report.findings) == [
            (2, "id-key"), (2, "module-state"), (2, "set-iteration")]

    def test_root_without_sources_rejected(self, tmp_path):
        """A mistyped root has nothing to lint: an error, not a pass."""
        with pytest.raises(ConfigError, match="src/repro"):
            lint(tmp_path / "no-such-checkout")
        with pytest.raises(ConfigError):
            lint(tmp_path)

    def test_syntax_error_becomes_finding(self, tmp_path):
        write(tmp_path, "src/repro/accel/broken.py", "def f(:\n")
        findings, _ = run_rules(tmp_path, ["module-state"])
        assert [f.rule for f in findings] == ["syntax"]

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_rules(tmp_path, ["no-such-rule"])
