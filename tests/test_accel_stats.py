"""Unit tests for SimStats derived metrics."""

import pytest

from repro.accel import SimStats


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

    def test_vpe_utilization(self):
        s = make()
        s.vpe_busy_cycles = 75
        s.vpe_starvation_cycles = 25
        assert s.vpe_utilization == pytest.approx(0.75)
        assert SimStats().vpe_utilization == 0.0

    def test_edges_per_cycle(self):
        assert make().edges_per_cycle == pytest.approx(8.0)

    def test_summary_keys(self):
        s = make().summary()
        for key in ("config", "algorithm", "graph", "cycles", "edges",
                    "gteps", "edges_per_cycle", "vpe_starvation_cycles"):
            assert key in s


class TestEveryCounterIsWritten:
    def test_sliced_pagerank_writes_every_integer_counter(self):
        """A counter nothing writes is dead weight in every cache entry,
        serve reply and ``to_dict()``.  A 2-slice GraphDynS PageRank run
        touches every conflict site, so each integer field must be
        nonzero."""
        from dataclasses import fields

        from repro.accel import SlicedAcceleratorSim, graphdyns
        from repro.algorithms import make_algorithm
        from repro.graph.generators import rmat
        from repro.graph.partition import partition_by_destination
        graph = rmat(10, 16.0)
        sim = SlicedAcceleratorSim(graphdyns(), graph,
                                   make_algorithm("PR", iterations=3),
                                   slices=partition_by_destination(graph, 2))
        stats = sim.run(source=0).stats
        counters = {f.name: getattr(stats, f.name) for f in fields(stats)
                    if isinstance(getattr(stats, f.name), int)}
        assert "iterations" in counters and "slice_load_cycles" in counters
        assert [name for name, value in counters.items() if not value] == []
