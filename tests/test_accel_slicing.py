"""Tests for the large-graph slicing mode (§5.3 Discussion)."""

import numpy as np
import pytest

from repro.accel import SlicedAcceleratorSim, higraph, simulate, slice_load_cycles
from repro.accel.engine import ENGINES
from repro.accel.slicing import _exposed_load_cycles
from repro.algorithms import BFS, SSSP, PageRank, run_reference
from repro.errors import ConfigError, ReproError
from repro.graph import erdos_renyi, partition_by_destination, rmat


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8.0, seed=21)


class TestSlicedCorrectness:
    @pytest.mark.parametrize("num_slices", [1, 2, 4])
    def test_matches_reference_bfs(self, graph, num_slices):
        slices = partition_by_destination(graph, num_slices)
        sim = SlicedAcceleratorSim(higraph(), graph, BFS(), slices=slices)
        ref = run_reference(graph, BFS(), source=0)
        res = sim.run(source=0)
        assert np.array_equal(res.properties, ref.properties)

    def test_matches_reference_pr(self, graph):
        slices = partition_by_destination(graph, 3)
        sim = SlicedAcceleratorSim(higraph(), graph, PageRank(iterations=3),
                                   slices=slices)
        ref = run_reference(graph, PageRank(iterations=3), source=0)
        res = sim.run(source=0)
        assert np.allclose(res.properties, ref.properties, rtol=1e-9)

    def test_single_slice_equals_unsliced_result(self, graph):
        slices = partition_by_destination(graph, 1)
        sliced = SlicedAcceleratorSim(higraph(), graph, SSSP(),
                                      slices=slices).run()
        plain = simulate(higraph(), graph, SSSP())
        assert np.array_equal(sliced.properties, plain.properties)

    def test_auto_partition_from_budget(self):
        g = rmat(8, 16.0, seed=22)
        budget = g.memory_footprint(id_bits=19).total_bytes // 2
        cfg = higraph(onchip_memory_bytes=budget)
        sim = SlicedAcceleratorSim(cfg, g, BFS())
        assert len(sim.slices) >= 2
        ref = run_reference(g, BFS(), source=0)
        assert np.array_equal(sim.run().properties, ref.properties)


class TestSlicedAccounting:
    def test_slice_count_recorded(self, graph):
        slices = partition_by_destination(graph, 4)
        res = SlicedAcceleratorSim(higraph(), graph, BFS(), slices=slices).run()
        assert res.stats.slices == 4

    def test_slicing_costs_compute_cycles(self, graph):
        """More slices -> more scatter passes -> more compute cycles
        (compare with off-chip transfer factored out: double buffering
        can make the *total* cheaper by hiding loads)."""
        fast_link = 1e9
        one = SlicedAcceleratorSim(higraph(), graph, BFS(),
                                   slices=partition_by_destination(graph, 1),
                                   offchip_bytes_per_cycle=fast_link).run()
        four = SlicedAcceleratorSim(higraph(), graph, BFS(),
                                    slices=partition_by_destination(graph, 4),
                                    offchip_bytes_per_cycle=fast_link).run()
        assert four.stats.scatter_cycles > one.stats.scatter_cycles

    def test_load_cycles_model(self):
        # 1000 edges * 23 bits / 8 = 2875 bytes at 64 B/cycle -> 45 cycles
        assert slice_load_cycles(1000, 64.0) == 45

    def test_double_buffer_hides_fast_loads(self):
        # loads fully hidden behind compute except the first
        assert _exposed_load_cycles([10, 10, 10], [50, 50, 50]) == 10

    def test_double_buffer_exposes_slow_loads(self):
        assert _exposed_load_cycles([100, 100], [30, 999]) == 100 + 70

    def test_empty_slice_list(self):
        assert _exposed_load_cycles([], []) == 0

    def test_exposed_cycles_in_stats(self, graph):
        slices = partition_by_destination(graph, 2)
        res = SlicedAcceleratorSim(higraph(), graph, BFS(), slices=slices,
                                   offchip_bytes_per_cycle=1.0).run()
        assert res.stats.slice_load_cycles > 0
        # slow off-chip link dominates the runtime
        fast = SlicedAcceleratorSim(higraph(), graph, BFS(), slices=slices,
                                    offchip_bytes_per_cycle=1e9).run()
        assert res.stats.total_cycles > fast.stats.total_cycles

    @pytest.mark.parametrize("engine", ENGINES)
    def test_raw_load_streams_every_slice_every_iteration(self, graph,
                                                          engine):
        """The un-overlapped total the §5.3 section reports as
        ``raw_load_cycles``: every iteration streams each slice once."""
        slices = partition_by_destination(graph, 4)
        stats = SlicedAcceleratorSim(
            higraph(), graph, PageRank(iterations=3), slices=slices,
            offchip_bytes_per_cycle=8.0, engine=engine).run().stats
        per_iteration = sum(slice_load_cycles(s.num_edges, 8.0)
                            for s in slices)
        assert stats.iterations == 3
        assert stats.slice_raw_load_cycles == 3 * per_iteration
        assert stats.slice_load_cycles < stats.slice_raw_load_cycles

    def test_bad_bandwidth_rejected(self, graph):
        with pytest.raises(ConfigError):
            SlicedAcceleratorSim(higraph(), graph, BFS(),
                                 offchip_bytes_per_cycle=0)

    def test_bad_bandwidth_is_a_repro_error(self, graph):
        """Callers catching the library taxonomy see config errors too."""
        with pytest.raises(ReproError):
            SlicedAcceleratorSim(higraph(), graph, BFS(),
                                 offchip_bytes_per_cycle=-3.0)


class TestLoadCyclesBoundaries:
    """Degenerate inputs must fail loudly or cost exactly nothing."""

    def test_zero_edge_slice_costs_nothing(self):
        assert slice_load_cycles(0, 64.0) == 0
        assert slice_load_cycles(0, 0.001) == 0

    def test_negative_edges_rejected(self):
        with pytest.raises(ConfigError):
            slice_load_cycles(-1, 64.0)

    @pytest.mark.parametrize("bandwidth",
                             [0, 0.0, -1.0, float("inf"), float("nan")])
    def test_degenerate_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ConfigError):
            slice_load_cycles(1000, bandwidth)

    def test_single_edge_rounds_up_to_one_cycle(self):
        # 1 edge * 23 bits / 8 = 2.875 bytes, far below one 64 B beat
        assert slice_load_cycles(1, 64.0) == 1
