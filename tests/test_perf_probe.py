"""Unit tests for the perf probe's pure record-building and pairing
logic — no timing runs involved (the probe's timed path is exercised by
``scripts/ci.sh perf``)."""

import importlib.util
import os
import sys

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                       "perf_probe.py")
_spec = importlib.util.spec_from_file_location("perf_probe", _SCRIPT)
perf_probe = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("perf_probe", perf_probe)
_spec.loader.exec_module(perf_probe)


def _pair(ref=2.0, soa=1.0, identical=True, job="BFS/VT/HiGraph"):
    stats_ref = {"scatter_cycles": 10, "edges_processed": 5}
    stats_soa = dict(stats_ref) if identical else {"scatter_cycles": 11,
                                                  "edges_processed": 5}
    return perf_probe.pair_result(
        job,
        {"reference": ref, "soa": soa},
        {"reference": stats_ref, "soa": stats_soa})


class TestPairResult:
    def test_speedup_and_identity(self):
        pair = _pair(ref=3.0, soa=1.5)
        assert pair["speedup_soa"] == pytest.approx(2.0)
        assert pair["soa_seconds"] == pytest.approx(1.5)
        assert pair["stats_identical"] is True
        assert pair["job"] == "BFS/VT/HiGraph"

    def test_times_reference_and_soa_only(self):
        assert perf_probe.ENGINES_TIMED == ("reference", "soa")
        assert "batched_seconds" not in _pair()

    def test_divergent_stats_flagged(self):
        assert _pair(identical=False)["stats_identical"] is False


class TestMedianJobSpeedup:
    def test_odd_count_is_exact_median(self):
        pairs = [_pair(ref=r, soa=1.0) for r in (1.0, 9.0, 2.0)]
        assert perf_probe.median_job_speedup(pairs) == pytest.approx(2.0)

    def test_robust_to_one_outlier(self):
        pairs = [_pair(ref=r, soa=1.0) for r in (2.0, 2.1, 2.2, 2.3, 50.0)]
        assert perf_probe.median_job_speedup(pairs) == pytest.approx(2.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            perf_probe.median_job_speedup([])


class TestBuildRecord:
    def _record(self, pairs, **kw):
        kw.setdefault("datasets", ["VT"])
        kw.setdefault("algorithms", ["BFS"])
        kw.setdefault("scales", {"VT": 1.0})
        kw.setdefault("equivalence_class", "cycle-exact-v1")
        kw.setdefault("utc", "2026-07-30T00:00:00+00:00")
        kw.setdefault("python_version", "3.11.7")
        kw.setdefault("machine", "x86_64")
        return perf_probe.build_record(pairs, **kw)

    def test_totals_and_speedup(self):
        record = self._record([_pair(ref=2.0, soa=1.0),
                               _pair(ref=4.0, soa=1.0)])
        assert record["jobs"] == 2
        assert record["reference_seconds"] == pytest.approx(6.0)
        assert record["soa_seconds"] == pytest.approx(2.0)
        assert record["speedup_soa"] == pytest.approx(3.0)
        assert record["median_job_speedup_soa"] == pytest.approx(4.0)
        assert record["bench"] == "fig8_cold_sweep"
        assert record["stats_identical"] is True
        for historical in ("batched_seconds", "speedup",
                           "median_job_speedup"):
            assert historical not in record

    def test_record_passes_the_history_schema(self):
        from repro.analysis.history import validate_record
        assert validate_record(self._record([_pair()]), 1) == []

    def test_single_divergent_pair_poisons_the_record(self):
        record = self._record([_pair(), _pair(identical=False), _pair()])
        assert record["stats_identical"] is False

    def test_ffwd_telemetry_embedded(self):
        ffwd = {"cycles_simulated": 5000, "prologue_reuse": 3}
        record = self._record([_pair()], ffwd=ffwd)
        assert record["ffwd"] == ffwd

    def test_ffwd_optional(self):
        assert "ffwd" not in self._record([_pair()])

    def test_injected_provenance(self):
        record = self._record([_pair()])
        assert record["utc"] == "2026-07-30T00:00:00+00:00"
        assert record["python"] == "3.11.7"
        assert record["machine"] == "x86_64"

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            self._record([])

    def test_bench_name_override(self):
        record = self._record([_pair()], bench="pr10_cold_sweep")
        assert record["bench"] == "pr10_cold_sweep"


class TestPr10Fields:
    def test_derived_from_soa_timings(self):
        record = perf_probe.build_record(
            [_pair(ref=10.0, soa=1.0)], datasets=["VT"],
            algorithms=["PRx10"], scales={"VT": 1.0},
            equivalence_class="cycle-exact-v1",
            utc="2026-08-08T00:00:00+00:00", python_version="3.11.7",
            machine="x86_64", bench="pr10_cold_sweep")
        fields = perf_probe.pr10_fields(record)
        assert fields["pr10_seconds"] == record["soa_seconds"]
        assert fields["speedup_soa_pr10"] == pytest.approx(10.0)


class TestResolveOutPath:
    def test_default_creates_results_dir(self, tmp_path):
        default = tmp_path / "benchmarks" / "results" / "bench_history.jsonl"
        out = perf_probe.resolve_out_path(str(default), default=str(default))
        assert out == str(default)
        assert default.parent.is_dir()

    def test_explicit_existing_parent_ok(self, tmp_path):
        out = tmp_path / "history.jsonl"
        resolved = perf_probe.resolve_out_path(
            str(out), default=os.path.join(str(tmp_path), "elsewhere.jsonl"))
        assert resolved == str(out)

    def test_explicit_missing_parent_is_clear_error(self, tmp_path):
        out = tmp_path / "no" / "such" / "dir" / "history.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            perf_probe.resolve_out_path(
                str(out), default=os.path.join(str(tmp_path), "d.jsonl"))
        message = str(excinfo.value)
        assert "parent directory does not exist" in message
        assert "no" in message

    def test_missing_parent_via_cli_has_no_traceback(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            perf_probe.main(["--out",
                             str(tmp_path / "missing" / "h.jsonl")])
