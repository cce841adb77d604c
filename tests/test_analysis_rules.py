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
# cache-key (AST half; the semantic half runs the real config class)
# ----------------------------------------------------------------------

class TestCacheKey:
    def test_missing_axis_is_flagged_tags_exempt(self, tmp_path):
        write(tmp_path, "src/repro/sweep/jobs.py", """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class SweepJob:
                graph: str
                engine: str = "soa"
                tags: tuple = ()

                def cache_key(self):
                    return (self.graph,)
        """)
        findings = run(tmp_path, "cache-key")
        assert "SweepJob.engine" in symbols(findings)
        assert "SweepJob.tags" not in symbols(findings)
        assert "SweepJob.graph" not in symbols(findings)

    def test_full_coverage_is_quiet(self, tmp_path):
        write(tmp_path, "src/repro/sweep/jobs.py", """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class SweepJob:
                graph: str
                engine: str = "soa"
                tags: tuple = ()

                def cache_key(self):
                    return (self.graph, self.engine)
        """)
        assert [s for s in symbols(run(tmp_path, "cache-key"))
                if s.startswith("SweepJob.")] == []

    def test_coverage_through_helpers_is_quiet(self, tmp_path):
        # the key payload refactored into a helper method and a
        # module-level helper — interprocedural taint must follow both
        write(tmp_path, "src/repro/sweep/jobs.py", """\
            from dataclasses import dataclass


            def _engine_token(job):
                return job.engine


            @dataclass(frozen=True)
            class SweepJob:
                graph: str
                engine: str = "soa"
                tags: tuple = ()

                def _payload(self):
                    return (self.graph,)

                def cache_key(self):
                    return self._payload() + (_engine_token(self),)
        """)
        assert [s for s in symbols(run(tmp_path, "cache-key"))
                if s.startswith("SweepJob.")] == []

    def test_helper_split_still_catches_missing_axis(self, tmp_path):
        # helpers covering some fields must not mask a genuinely
        # unreachable one
        write(tmp_path, "src/repro/sweep/jobs.py", """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class SweepJob:
                graph: str
                seed: int = 0
                tags: tuple = ()

                def _payload(self):
                    return (self.graph,)

                def cache_key(self):
                    return self._payload()
        """)
        findings = run(tmp_path, "cache-key")
        assert "SweepJob.seed" in symbols(findings)
        assert "SweepJob.graph" not in symbols(findings)
        assert "call tree" in next(
            f.message for f in findings if f.symbol == "SweepJob.seed")


# ----------------------------------------------------------------------
# engine-registry
# ----------------------------------------------------------------------

class TestEngineRegistry:
    """Registering an engine is a three-point contract (PR 7)."""

    REGISTRY = "src/repro/accel/engine/registry.py"

    def _write_registry(self, tmp_path, engines, equivalence, branches):
        lines = [
            "import types",
            "",
            f"ENGINES = {engines!r}",
            f"_ENGINE_EQUIVALENCE = types.MappingProxyType({equivalence!r})",
            "",
            "def make_engine(name, sim):",
        ]
        for branch in branches:
            lines.append(f'    if name == "{branch}":')
            lines.append(f'        return "{branch}-engine"')
        lines.append('    return "fallback-engine"')
        write(tmp_path, self.REGISTRY, "\n".join(lines) + "\n")

    def test_consistent_registry_is_quiet(self, tmp_path):
        self._write_registry(
            tmp_path, ("reference", "warp", "soa"),
            {"reference": "v1", "warp": "v1", "soa": "v1"},
            ["reference", "soa"])
        assert run(tmp_path, "engine-registry") == []

    def test_engine_without_equivalence_entry(self, tmp_path):
        self._write_registry(
            tmp_path, ("reference", "warp", "soa"),
            {"reference": "v1", "warp": "v1"},
            ["reference", "soa"])
        assert symbols(run(tmp_path, "engine-registry")) == ["no-class.soa"]

    def test_stale_equivalence_entry(self, tmp_path):
        self._write_registry(
            tmp_path, ("reference", "soa"),
            {"reference": "v1", "soa": "v1", "warp": "v1"},
            ["soa"])
        assert symbols(run(tmp_path, "engine-registry")) == [
            "stale-class.warp"]

    def test_two_engines_on_the_fallback_branch(self, tmp_path):
        self._write_registry(
            tmp_path, ("reference", "warp", "soa"),
            {"reference": "v1", "warp": "v1", "soa": "v1"},
            ["reference"])
        found = symbols(run(tmp_path, "engine-registry"))
        assert found == ["fallback.warp.soa"]

    def test_missing_registry_module(self, tmp_path):
        write(tmp_path, "src/repro/accel/engine/__init__.py", "")
        assert symbols(run(tmp_path, "engine-registry")) == [
            "missing-registry"]


# ----------------------------------------------------------------------
# runner behaviour: inline allows, syntax errors, unknown rules
# ----------------------------------------------------------------------

class TestLintDocs:
    def test_fixture_without_docs_is_silent(self, tmp_path):
        write(tmp_path, "src/repro/ok.py", "X = 1\n")
        assert run(tmp_path, "lint-docs") == []

    def test_missing_markers_is_one_finding(self, tmp_path):
        write(tmp_path, "docs/linting.md", "# lint\n\nno table here\n")
        assert [f.symbol for f in run(tmp_path, "lint-docs")] == \
            ["catalog-markers"]

    def test_stale_table_is_drift(self, tmp_path):
        from repro.analysis.registry import CATALOG_BEGIN, CATALOG_END
        write(tmp_path, "docs/linting.md",
              f"# lint\n\n{CATALOG_BEGIN}\nold table\n{CATALOG_END}\n")
        findings = run(tmp_path, "lint-docs")
        assert [f.symbol for f in findings] == ["catalog-drift"]
        assert "repro lint --catalog" in findings[0].message

    def test_current_table_is_quiet(self, tmp_path):
        from repro.analysis.registry import (
            CATALOG_BEGIN,
            CATALOG_END,
            rule_catalog_markdown,
        )
        write(tmp_path, "docs/linting.md",
              f"# lint\n\n{CATALOG_BEGIN}\n{rule_catalog_markdown()}\n"
              f"{CATALOG_END}\n")
        assert run(tmp_path, "lint-docs") == []

    def test_catalog_names_every_rule(self):
        from repro.analysis.registry import all_rules, rule_catalog_markdown
        table = rule_catalog_markdown()
        for rule_id in all_rules():
            assert f"`{rule_id}`" in table


class TestRunner:
    def test_inline_allow_suppresses(self, tmp_path):
        write(tmp_path, "src/repro/accel/mod.py", """\
            CACHE = {}  # lint: allow=module-state
        """)
        report = lint(tmp_path, rule_ids=["module-state"])
        assert report.findings == []
        assert report.suppressed_inline == 1
        assert report.exit_code() == 0

    def test_allow_comment_on_line_above(self, tmp_path):
        write(tmp_path, "src/repro/accel/mod.py", """\
            # lint: allow=module-state
            CACHE = {}
        """)
        report = lint(tmp_path, rule_ids=["module-state"])
        assert report.findings == []
        assert report.suppressed_inline == 1

    def test_allow_names_only_its_rule(self, tmp_path):
        write(tmp_path, "src/repro/accel/mod.py", """\
            CACHE = {}  # lint: allow=set-iteration
        """)
        report = lint(tmp_path, rule_ids=["module-state"])
        assert len(report.findings) == 1

    def test_syntax_error_becomes_finding(self, tmp_path):
        write(tmp_path, "src/repro/accel/broken.py", "def f(:\n")
        findings, _ = run_rules(tmp_path, ["module-state"])
        assert [f.rule for f in findings] == ["syntax"]
        assert findings[0].severity == "error"

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_rules(tmp_path, ["no-such-rule"])
