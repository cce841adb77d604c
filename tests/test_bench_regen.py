"""Tests for the cache-driven report regeneration pipeline.

The heavyweight property — a warm cache regenerates the FULL report
byte-for-byte with ZERO simulator invocations — is asserted by running
every section twice at a tiny ``REPRO_SCALE`` and forbidding
``execute_job`` on the second pass.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

import repro.graph.datasets as datasets_mod
import repro.sweep.executor as executor_mod
from repro.api import LocalSession
from repro.bench import bench_graph_spec, table1_config_rows
from repro.bench.regen import (
    FIGURE_SECTIONS,
    SECTIONS,
    RegenContext,
    regenerate,
    resolve_sections,
)
from repro.bench.report import REGEN_HINT, build_report, section_status
from repro.errors import SweepError

#: Scale every Table 2 stand-in down to toy size for pipeline tests.
TINY_SCALE = "0.01"


@pytest.fixture()
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", TINY_SCALE)


def _regenerate(results_dir, cache=None, **kwargs):
    """``regenerate`` sweeping through a serial ``LocalSession`` over the
    cache directory ``cache`` (none when ``None``)."""
    session = LocalSession(cache_dir=cache)
    cache_dir = None if cache is None else str(session.cache.root)
    return regenerate(str(results_dir), sweep=session.sweep,
                      cache_dir=cache_dir, **kwargs)


def _forbid_simulation(monkeypatch):
    def _refuse(job, engine):
        raise AssertionError(
            f"simulator invoked on a warm cache for job {job.describe()}")
    monkeypatch.setattr(executor_mod, "execute_job", _refuse)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_every_section_reachable_by_alias(self):
        reachable = {key for keys in FIGURE_SECTIONS.values() for key in keys}
        assert reachable == set(SECTIONS)

    def test_resolve_defaults_to_all(self):
        assert resolve_sections(None) == list(SECTIONS)
        assert resolve_sections([]) == list(SECTIONS)

    def test_resolve_mixes_keys_and_aliases_in_report_order(self):
        got = resolve_sections(["fig10", "table1_configs", "fig8"])
        assert got == ["table1_configs", "fig08_speedup",
                       "fig10a_opt_throughput", "fig10b_starvation"]

    def test_resolve_rejects_unknown(self):
        with pytest.raises(SweepError, match="unknown report section"):
            resolve_sections(["fig99"])


# ----------------------------------------------------------------------
# The tentpole property: warm cache => byte-identical report, zero sims
# ----------------------------------------------------------------------

class TestColdWarm:
    def test_full_report_cold_then_warm(self, tmp_path, tiny_scale, monkeypatch):
        results = tmp_path / "results"
        cache = tmp_path / "cache"

        cold = _regenerate(results, cache, charts=True)
        assert cold.total_jobs > 0
        assert cold.executed > 0
        # every unique cell simulated exactly once; the only cold-run
        # "hits" are cells shared across sections (e.g. PR/R14 appears
        # in both the Fig. 8/9 matrix and the latency ablation)
        assert cold.executed + cold.cache_hits == cold.total_jobs
        assert cold.cache_hits < cold.total_jobs
        cold_report = (results / "REPORT.md").read_bytes()
        cold_tables = {key: (results / f"{key}.txt").read_bytes()
                       for key in SECTIONS}
        # every section made it into the consolidated report, and every
        # declared chart was drawn from its rows and embedded under it
        text = cold_report.decode("utf-8")
        for spec in SECTIONS.values():
            assert f"## {spec.heading}\n" in text
        assert "Missing sections" not in text
        charted = [key for key, spec in SECTIONS.items() if spec.chart]
        assert sorted(p.name for p in results.glob("*.chart.txt")) == \
            sorted(f"{key}.chart.txt" for key in charted)
        for key in charted:
            chart = (results / f"{key}.chart.txt").read_text()
            assert f"```\n{chart}```\n" in text, key

        # warm pass: same config, but the simulator is now off limits,
        # and so is building a graph: Table 2 sizes are closed-form and
        # the sliced run's stats carry its raw slice-load total
        (results / "REPORT.md").unlink()
        _forbid_simulation(monkeypatch)
        loaded = []
        real_load = datasets_mod.load

        def counting_load(*args, **kwargs):
            loaded.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(datasets_mod, "load", counting_load)
        warm = _regenerate(results, cache, charts=True)

        assert warm.executed == 0 and loaded == []
        assert warm.cache_hits == warm.total_jobs == cold.total_jobs
        assert (results / "REPORT.md").read_bytes() == cold_report
        for key in SECTIONS:
            assert (results / f"{key}.txt").read_bytes() == cold_tables[key], key

    def test_provenance_sidecar_accounts_for_the_run(self, tmp_path, tiny_scale):
        results = tmp_path / "results"
        report = _regenerate(results, tmp_path / "cache",
                             sections=["latency"])
        payload = json.loads((results / "REPORT.provenance.json").read_text())
        assert payload["code_version"] == report.code_version
        assert payload["totals"]["jobs"] == 4
        assert payload["totals"]["executed"] == 4
        [record] = payload["sections"]
        assert record["section"] == "ablation_latency"
        assert len(record["job_seconds"]) == 4
        assert all(s > 0 for s in record["job_seconds"])

    def test_report_is_independent_of_the_cache_dir(self, tmp_path,
                                                     tiny_scale):
        """Two regenerations over two cache directories holding the same
        entries write the same REPORT.md; only the sidecar names the
        directory."""
        first, second = tmp_path / "first", tmp_path / "second"
        _regenerate(first / "results", first / "cache",
                    sections=["latency"])
        shutil.copytree(first / "cache", second / "cache")
        _regenerate(second / "results", second / "cache",
                    sections=["latency"])
        assert (first / "results" / "REPORT.md").read_bytes() == \
            (second / "results" / "REPORT.md").read_bytes()
        sidecar = json.loads(
            (second / "results" / "REPORT.provenance.json").read_text())
        assert Path(sidecar["cache_dir"]).resolve() == \
            (second / "cache").resolve()

    def test_shared_matrix_charged_once(self, tmp_path, tiny_scale):
        report = _regenerate(tmp_path / "results", tmp_path / "cache",
                             sections=["fig8", "fig9"])
        by_key = {r["section"]: r for r in report.sections}
        assert by_key["fig08_speedup"]["jobs"] == 72       # 4 alg x 6 ds x 3 cfg
        assert by_key["fig09_throughput"]["jobs"] == 0     # shared sweep
        assert report.executed == 72


class TestSectionFilter:
    def test_section_filter_writes_only_selected(self, tmp_path, tiny_scale):
        results = tmp_path / "results"
        report = regenerate(str(results), sections=["table1", "fig4"])
        assert {r["section"] for r in report.sections} == \
            {"table1_configs", "fig04_crossbar_frequency"}
        produced = {p.name for p in results.iterdir()}
        assert produced == {"table1_configs.txt", "fig04_crossbar_frequency.txt",
                            "REPORT.md", "REPORT.provenance.json"}
        text = (results / "REPORT.md").read_text()
        # unselected sections are flagged, with the regeneration hint
        assert "Missing sections" in text
        assert REGEN_HINT in text

    def test_pure_sections_need_no_cache_and_no_sim(self, tmp_path, monkeypatch):
        _forbid_simulation(monkeypatch)
        report = regenerate(str(tmp_path / "results"),
                            sections=["table1", "fig4", "fig7", "area"])
        assert report.total_jobs == 0
        assert report.cache_dir is None


# ----------------------------------------------------------------------
# Staleness
# ----------------------------------------------------------------------

class TestStaleness:
    def _warm(self, tmp_path):
        results = tmp_path / "results"
        cache = tmp_path / "cache"
        _regenerate(results, cache, sections=["latency"])
        return results, cache

    def test_fresh_after_regeneration(self, tmp_path, tiny_scale):
        results, cache = self._warm(tmp_path)
        status = section_status(str(results), str(cache))
        assert status["ablation_latency"] == "fresh"
        assert status["fig08_speedup"] == "missing"

    def test_txt_older_than_cache_is_stale_and_flagged(self, tmp_path, tiny_scale):
        results, cache = self._warm(tmp_path)
        old = (results / "ablation_latency.txt")
        os.utime(old, (1, 1))                      # 1970: older than any entry
        status = section_status(str(results), str(cache))
        assert status["ablation_latency"] == "stale"
        text = build_report(str(results), cache_dir=str(cache))
        assert "*Stale:" in text
        assert REGEN_HINT in text

    def test_no_cache_dir_never_stale(self, tmp_path, tiny_scale):
        results, _cache = self._warm(tmp_path)
        os.utime(results / "ablation_latency.txt", (1, 1))
        status = section_status(str(results), None)
        assert status["ablation_latency"] == "fresh"

    def test_full_regeneration_scans_no_cache(self, tmp_path, tiny_scale,
                                              monkeypatch):
        """Every table of a full report was written from the cache in
        the same pass, so none can be stale and the cache is not walked."""
        from repro.sweep import ResultCache
        results, cache = self._warm(tmp_path)

        def refuse(self):
            raise AssertionError("a full regeneration scanned the cache")

        monkeypatch.setattr(ResultCache, "newest_mtime", refuse)
        _regenerate(results, cache)
        text = (results / "REPORT.md").read_text()
        assert "*Stale:" not in text and "Missing sections" not in text

    def test_partial_regeneration_flags_a_table_it_did_not_write(
            self, tmp_path, tiny_scale):
        results, cache = self._warm(tmp_path)
        os.utime(results / "ablation_latency.txt", (1, 1))
        _regenerate(results, cache, sections=["table1"])
        text = (results / "REPORT.md").read_text()
        assert text.count("*Stale:") == 1
        latency = text.index("## Ablation — latency vs throughput")
        assert text.index("*Stale:") > latency
        assert os.stat(results / "ablation_latency.txt").st_mtime == 1


# ----------------------------------------------------------------------
# Row builders match the direct (non-sweep) simulations
# ----------------------------------------------------------------------

class TestRowBuilders:
    def test_latency_rows_match_direct_simulation(self, tiny_scale):
        from repro.accel import graphdyns, higraph, simulate
        from repro.algorithms import BFS, PageRank
        from repro.graph import chain

        rows, _ = RegenContext().build(SECTIONS["ablation_latency"])
        expected = []
        latency_graph = chain(256)
        r14 = bench_graph_spec("R14").load()
        for maker, label in ((higraph, "HiGraph"), (graphdyns, "GraphDynS")):
            stats = simulate(maker(), latency_graph, BFS()).stats
            expected.append(("chain-BFS (latency-bound)", label,
                             stats.total_cycles))
        for maker, label in ((higraph, "HiGraph"), (graphdyns, "GraphDynS")):
            stats = simulate(maker(), r14, PageRank(iterations=2)).stats
            expected.append(("R14-PR (throughput-bound)", label,
                             stats.total_cycles))
        got = [(r["workload"], r["design"], r["cycles"]) for r in rows]
        assert got == expected

    def test_slicing_rows_match_direct_sliced_simulation(self, tiny_scale):
        from repro.accel import SlicedAcceleratorSim, higraph, slice_load_cycles
        from repro.algorithms import PageRank
        from repro.graph import partition_by_destination

        rows, _ = RegenContext().build(SECTIONS["discussion_slicing"])
        g = bench_graph_spec("R14").load()
        slices = partition_by_destination(g, 4)
        sim = SlicedAcceleratorSim(higraph(), g, PageRank(iterations=2),
                                   slices=slices, offchip_bytes_per_cycle=64.0)
        stats = sim.run().stats
        total_load = sum(slice_load_cycles(s.num_edges, 64.0)
                         for s in slices) * stats.iterations
        row = rows[0]
        assert row["slices"] == stats.slices == 4
        assert row["double_buffer_total"] == stats.total_cycles
        assert row["exposed_load_cycles"] == stats.slice_load_cycles
        assert row["raw_load_cycles"] == total_load
        assert row["gteps_double_buffered"] == stats.gteps

    def test_table1_rows_shape(self):
        rows = table1_config_rows()
        assert [r["design"] for r in rows] == \
            ["GraphDynS", "HiGraph-mini", "HiGraph"]
        assert all(abs(r["frequency_ghz"] - 1.0) < 1e-9 for r in rows)
