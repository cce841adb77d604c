"""Meta-tests: the analyzer run against this repository, and the
engine-registry invariants the PR 6 audit fixed."""

import dataclasses
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSelfLint:
    def test_repository_lints_clean(self, capsys):
        """`repro lint` exits 0 on the repo itself: every rule passes or
        the finding is covered by a justified baseline entry."""
        assert main(["lint", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_no_todo_justifications_in_committed_baseline(self, capsys):
        """The committed baseline is fully justified and not stale —
        strict mode only tolerates real warnings, and there are none."""
        assert main(["lint", "--root", str(REPO_ROOT), "--strict"]) == 0

    def test_list_rules_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("module-state", "set-iteration", "id-key",
                        "nondeterministic-call", "cache-key",
                        "telemetry-reset", "engine-registry",
                        "fork-shared-state", "fork-atomic-write",
                        "fork-capture", "exception-hygiene", "no-bytecode",
                        "cli-docs", "lint-docs", "bench-history"):
            assert rule_id in out
        for retired in ("engine-compat", "engine-seam", "c-seam-layout",
                        "c-seam-counters", "c-seam-kernels"):
            assert retired not in out

    def test_bad_input_exits_2_with_one_liner(self, capsys):
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        err = capsys.readouterr().err
        assert "unknown lint rule" in err
        assert "Traceback" not in err

    def test_json_report_shape(self, capsys):
        import json
        assert main(["lint", "--root", str(REPO_ROOT),
                     "--rule", "engine-registry", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["engine-registry"]
        assert payload["findings"] == []


class TestRegistryInvariants:
    """Regression tests for the module-state audit (the findings the
    analyzer raised on the pre-PR tree, now fixed)."""

    def test_equivalence_map_is_frozen(self):
        from repro.accel.engine import registry
        with pytest.raises(TypeError):
            registry._ENGINE_EQUIVALENCE["soa"] = "tampered"

    def test_equivalent_engines_share_cache_token(self):
        from repro.accel.engine import engine_cache_token
        assert engine_cache_token("reference") == \
            engine_cache_token("soa")

    def test_telemetry_reset_zeroes_every_key(self):
        from repro.accel.engine import FFWD_TELEMETRY, reset_ffwd_telemetry
        for key in FFWD_TELEMETRY:
            FFWD_TELEMETRY[key] = 99
        live = reset_ffwd_telemetry()
        assert live is FFWD_TELEMETRY
        assert all(v == 0 for v in FFWD_TELEMETRY.values())


class TestConfigCoverage:
    """Satellite check: AcceleratorConfig's cache identity is complete
    (the semantic half of the cache-key rule, asserted directly)."""

    def test_to_dict_covers_every_field(self):
        from repro.accel.config import AcceleratorConfig
        config = AcceleratorConfig()
        field_names = {f.name for f in dataclasses.fields(AcceleratorConfig)}
        assert set(config.to_dict()) == field_names

    def test_config_hash_sees_every_field(self):
        from repro.accel.config import AcceleratorConfig
        from repro.analysis.rules.cachekey import _clone_with, _perturbed

        base = AcceleratorConfig()
        fields = dataclasses.fields(AcceleratorConfig)
        base_hash = base.config_hash()
        blind = [f.name for f in fields
                 if _clone_with(AcceleratorConfig, fields, base,
                                f.name).config_hash() == base_hash]
        assert blind == []

    def test_perturbed_always_differs(self):
        from repro.analysis.rules.cachekey import _perturbed
        for value in (True, 0, 1.5, "s", {"k": 1}, [1], (1,), None):
            assert _perturbed(value) != value


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
