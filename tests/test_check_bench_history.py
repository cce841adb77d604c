"""Unit tests for the bench-history schema / trajectory checker."""

import importlib.util
import json
import os
import sys

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                       "check_bench_history.py")
_spec = importlib.util.spec_from_file_location("check_bench_history", _SCRIPT)
cbh = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_bench_history", cbh)
_spec.loader.exec_module(cbh)


def record(**overrides):
    base = {
        "bench": "fig8_cold_sweep",
        "utc": "2026-07-30T00:00:00+00:00",
        "datasets": ["VT"],
        "algorithms": ["BFS", "PR"],
        "scales": {"VT": 1.0},
        "jobs": 6,
        "reference_seconds": 10.0,
        "soa_seconds": 5.0,
        "speedup_soa": 2.0,
        "median_job_speedup_soa": 2.1,
        "stats_identical": True,
        "engine_equivalence_class": "cycle-exact-v1",
        "python": "3.11.7",
        "machine": "x86_64",
    }
    base.update(overrides)
    return base


class TestSchema:
    def test_valid_record_passes(self):
        assert cbh.validate_record(record(), 1) == []

    def test_missing_field(self):
        bad = record()
        del bad["reference_seconds"]
        errors = cbh.validate_record(bad, 3)
        assert len(errors) == 1
        assert "line 3" in errors[0] and "reference_seconds" in errors[0]

    def test_batched_era_record_still_valid(self):
        """Records up to 2026-08-08 time the retired batched engine."""
        old = record(batched_seconds=5.0, speedup=2.0,
                     median_job_speedup=2.1)
        for field in ("soa_seconds", "speedup_soa", "median_job_speedup_soa"):
            del old[field]
        assert cbh.validate_record(old, 1) == []

    def test_record_needs_an_engine_timing(self):
        bad = record()
        del bad["soa_seconds"]
        errors = cbh.validate_record(bad, 2)
        assert len(errors) == 1
        assert "batched_seconds" in errors[0] and "soa_seconds" in errors[0]

    def test_wrong_type(self):
        errors = cbh.validate_record(record(jobs="six"), 1)
        assert errors and "jobs" in errors[0]

    def test_bool_is_not_a_number(self):
        errors = cbh.validate_record(record(speedup_soa=True), 1)
        assert errors and "speedup_soa" in errors[0]

    def test_nonpositive_values(self):
        assert cbh.validate_record(record(jobs=0), 1)
        assert cbh.validate_record(record(soa_seconds=0.0), 1)
        assert cbh.validate_record(record(batched_seconds=0.0), 1)

    def test_ffwd_optional_but_typed(self):
        assert cbh.validate_record(record(ffwd={"prologue_reuse": 1}),
                                   1) == []
        assert cbh.validate_record(record(ffwd="lots"), 1)

    def test_pr10_fields_optional_but_positive(self):
        ok = record(bench="pr10_cold_sweep", pr10_seconds=1.5,
                    speedup_soa_pr10=12.0)
        assert cbh.validate_record(ok, 1) == []
        assert cbh.validate_record(record(pr10_seconds=0.0), 1)
        assert cbh.validate_record(record(speedup_soa_pr10="fast"), 1)


class TestChecks:
    def test_stats_identical_false_is_fatal(self):
        fatal, warnings = cbh.check_history(
            [record(), record(stats_identical=False)])
        assert fatal and "stats_identical" in fatal[0]
        assert not warnings

    def test_regression_vs_best_comparable_warns(self):
        fatal, warnings = cbh.check_history(
            [record(speedup_soa=2.5), record(speedup_soa=2.6),
             record(speedup_soa=1.9)])
        assert not fatal
        assert warnings and "trajectory regression" in warnings[0]
        assert "2.6" in warnings[0]

    def test_within_tolerance_is_quiet(self):
        fatal, warnings = cbh.check_history(
            [record(speedup_soa=2.5), record(speedup_soa=2.1)])
        assert not fatal and not warnings

    def test_records_without_soa_speedup_not_compared(self):
        # a batched-era record's speedup is not a speedup_soa peer
        old = record(batched_seconds=5.0, speedup=90.0,
                     median_job_speedup=90.0)
        del old["speedup_soa"]
        fatal, warnings = cbh.check_history([old, record(speedup_soa=2.0)])
        assert not fatal and not warnings

    def test_incomparable_records_not_compared(self):
        # different job count / scales: the 1.0x smoke run is not a
        # regression against the 2.5x full-matrix run
        fatal, warnings = cbh.check_history(
            [record(speedup_soa=2.5),
             record(speedup_soa=1.0, jobs=2, scales={"VT": 0.03})])
        assert not fatal and not warnings

    def test_benches_are_separate_trajectories(self):
        # a slow pr10 record is never a regression against fig8 peers
        fatal, warnings = cbh.check_history(
            [record(speedup_soa=2.5),
             record(speedup_soa=1.0, bench="pr10_cold_sweep")])
        assert not fatal and not warnings

    def test_each_bench_newest_is_watched(self):
        # the fig8 regression is caught even though a pr10 record was
        # appended after it — every bench's newest record is checked
        fatal, warnings = cbh.check_history(
            [record(speedup_soa=2.6), record(speedup_soa=1.9),
             record(speedup_soa=5.0, bench="pr10_cold_sweep")])
        assert not fatal
        assert warnings and "trajectory regression" in warnings[0]
        assert "fig8_cold_sweep" in warnings[0] and "2.6" in warnings[0]

    def test_custom_tolerance(self):
        records = [record(speedup_soa=2.0), record(speedup_soa=1.7)]
        assert not cbh.check_history(records, tolerance=0.2)[1]
        assert cbh.check_history(records, tolerance=0.1)[1]

    def test_schema_errors_reported_before_trajectory(self):
        bad = record(speedup_soa=2.0)
        del bad["utc"]
        fatal, warnings = cbh.check_history([bad, record(speedup_soa=0.5)])
        assert fatal and not warnings


class TestMain:
    def _write(self, path, records):
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")

    def test_ok_history(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        self._write(path, [record(), record(speedup_soa=2.2)])
        assert cbh.main(["--file", str(path)]) == 0
        assert "2 record(s) OK" in capsys.readouterr().out

    def test_missing_file_is_ok(self, tmp_path):
        assert cbh.main(["--file", str(tmp_path / "none.jsonl")]) == 0

    def test_empty_file_is_ok(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("")
        assert cbh.main(["--file", str(path)]) == 0

    def test_broken_json_fails_with_location(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"bench": oops}\n')
        with pytest.raises(SystemExit) as excinfo:
            cbh.main(["--file", str(path)])
        assert ":1" in str(excinfo.value)

    def test_contract_violation_fails(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        self._write(path, [record(stats_identical=False)])
        assert cbh.main(["--file", str(path)]) == 1
        assert "stats_identical" in capsys.readouterr().err

    def test_regression_is_advisory_by_default(self, tmp_path, capsys):
        path = tmp_path / "hist.jsonl"
        self._write(path, [record(speedup_soa=2.5), record(speedup_soa=1.0)])
        assert cbh.main(["--file", str(path)]) == 0
        assert "WARNING" in capsys.readouterr().err

    def test_strict_promotes_regression_to_failure(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        self._write(path, [record(speedup_soa=2.5), record(speedup_soa=1.0)])
        assert cbh.main(["--file", str(path), "--strict"]) == 1

    def test_committed_history_is_valid(self):
        """The repo's own trajectory file must always pass the gate."""
        committed = os.path.join(os.path.dirname(__file__), "..",
                                 "benchmarks", "results",
                                 "bench_history.jsonl")
        if not os.path.exists(committed):
            pytest.skip("no committed bench history")
        records = cbh.load_history(committed)
        fatal, _ = cbh.check_history(records)
        assert fatal == []
