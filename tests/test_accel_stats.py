"""Unit tests for SimStats derived metrics, and a check that every
counter is written by both engines."""

import dataclasses

import pytest

from repro.accel import (
    AcceleratorSim,
    SimStats,
    SlicedAcceleratorSim,
    ablation,
    graphdyns,
    higraph,
    higraph_mini,
)
from repro.accel.engine import ENGINES, SoaEngine
from repro.algorithms import make_algorithm
from repro.graph import partition_by_destination, rmat


def make(cycles=1000, edges=8000, freq=1.0, **kw):
    stats = SimStats(config_name="X", algorithm="BFS", graph_name="g",
                     frequency_ghz=freq, **kw)
    stats.scatter_cycles = cycles
    stats.edges_processed = edges
    return stats


class TestDerivedMetrics:
    def test_gteps_definition(self):
        # 8000 edges / 1000 cycles at 1 GHz = 8 giga-edges/second
        assert make().gteps == pytest.approx(8.0)

    def test_gteps_scales_with_frequency(self):
        assert make(freq=0.5).gteps == pytest.approx(4.0)

    def test_total_cycles_sums_phases(self):
        s = make()
        s.apply_cycles = 100
        s.slice_load_cycles = 50
        assert s.total_cycles == 1150

    def test_seconds(self):
        assert make().seconds == pytest.approx(1000 / 1e9)

    def test_zero_cycles_safe(self):
        s = SimStats()
        assert s.gteps == 0.0
        assert s.edges_per_cycle == 0.0

    def test_speedup_over(self):
        fast, slow = make(cycles=500), make(cycles=1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)
        assert slow.speedup_over(fast) == pytest.approx(0.5)

    def test_speedup_accounts_for_frequency(self):
        # same cycles, half the clock -> half the speed
        a, b = make(freq=1.0), make(freq=0.5)
        assert a.speedup_over(b) == pytest.approx(2.0)

    def test_edges_per_cycle(self):
        assert make().edges_per_cycle == pytest.approx(8.0)

    def test_summary_keys(self):
        s = make().summary()
        for key in ("config", "algorithm", "graph", "cycles", "edges",
                    "gteps", "edges_per_cycle", "vpe_starvation_cycles"):
            assert key in s


class TestStatsSchemaError:
    """``StatsSchemaError`` derives from ``repro.errors`` and keeps the
    historical ValueError contract by dual inheritance (callers catching
    ValueError still work)."""

    def test_unknown_fields_raise_both_taxonomies(self):
        from repro.errors import ReproError, StatsSchemaError
        with pytest.raises(StatsSchemaError):
            SimStats.from_dict({"no_such_counter": 1})
        with pytest.raises(ValueError):
            SimStats.from_dict({"no_such_counter": 1})
        with pytest.raises(ReproError):
            SimStats.from_dict({"no_such_counter": 1})


# ----------------------------------------------------------------------
# Every counter gets written
# ----------------------------------------------------------------------

#: every int and float SimStats field: the counters an engine fills
COUNTERS = [f.name for f in dataclasses.fields(SimStats)
            if type(f.default) in (int, float)]


def _counter_runs(engine: str) -> list[SimStats]:
    """Nine runs that between them exercise every site implementation,
    both iteration kinds and the sliced simulator."""
    graph = rmat(9, 6.0, seed=3)
    sims = [AcceleratorSim(maker(), graph, make_algorithm(name, **kwargs),
                           engine=engine)
            for maker in (higraph, higraph_mini, graphdyns, ablation)
            for name, kwargs in (("BFS", {}), ("PR", {"iterations": 2}))]
    sliced = SlicedAcceleratorSim(
        higraph(), graph, make_algorithm("PR", iterations=2),
        slices=partition_by_destination(graph, 4),
        offchip_bytes_per_cycle=1.0, engine=engine)
    engines = [sim.engine for sim in (*sims, *sliced.slice_sims)]
    if engine == "soa" and not all(isinstance(e, SoaEngine) for e in engines):
        pytest.skip("no soa kernel here: every soa run fell back")
    return [sim.run().stats for sim in (*sims, sliced)]


@pytest.fixture(scope="module")
def counter_runs():
    return {engine: _counter_runs(engine) for engine in ENGINES}


class TestEveryCounterIsWritten:
    """A counter no engine writes reads 0 in every table and shows
    nothing; the differential law cannot see it, since both engines
    agree on 0."""

    def test_sliced_pagerank_writes_every_integer_counter(self):
        """A counter nothing writes is dead weight in every cache entry,
        serve reply and ``to_dict()``.  A 2-slice GraphDynS PageRank run
        touches every conflict site, so each integer field must be
        nonzero."""
        graph = rmat(10, 16.0)
        sim = SlicedAcceleratorSim(graphdyns(), graph,
                                   make_algorithm("PR", iterations=3),
                                   slices=partition_by_destination(graph, 2))
        stats = sim.run(source=0).stats
        counters = {f.name: getattr(stats, f.name)
                    for f in dataclasses.fields(stats)
                    if isinstance(getattr(stats, f.name), int)}
        assert "iterations" in counters and "slice_load_cycles" in counters
        assert [name for name, value in counters.items() if not value] == []

    def test_every_field_but_the_labels_is_a_counter(self):
        labels = {"config_name", "algorithm", "graph_name"}
        assert set(COUNTERS) == {
            f.name for f in dataclasses.fields(SimStats)} - labels

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("counter", COUNTERS)
    def test_counter_is_nonzero_in_some_run(self, counter_runs, engine,
                                            counter):
        assert any(getattr(stats, counter) for stats in counter_runs[engine])
