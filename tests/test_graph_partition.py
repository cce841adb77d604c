"""Tests for graph slicing (paper §5.3 Discussion)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.graph import (
    erdos_renyi,
    partition_by_destination,
    partition_for_budget,
    rmat,
    slice_count_for_budget,
)


def assert_tiles(graph, slices):
    """The slices' destination intervals cover [0, V) in order, and
    together they hold every edge exactly once."""
    assert sum(s.num_edges for s in slices) == graph.num_edges
    bounds = [(s.dst_lo, s.dst_hi) for s in sorted(slices, key=lambda s: s.index)]
    assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == graph.num_vertices


class TestPartition:
    def test_single_slice_when_fits(self):
        g = rmat(6, 4.0, seed=2)
        budget = g.memory_footprint().total_bytes + 1024
        slices = partition_for_budget(g, budget)
        assert len(slices) == 1
        assert_tiles(g, slices)

    def test_slices_tile_edges(self):
        g = rmat(8, 8.0, seed=4)
        slices = partition_by_destination(g, 4)
        assert_tiles(g, slices)
        assert sum(s.num_edges for s in slices) == g.num_edges

    def test_each_slice_respects_interval(self):
        g = erdos_renyi(64, 512, seed=3)
        for s in partition_by_destination(g, 4):
            if s.graph.num_edges:
                assert s.graph.dst.min() >= s.dst_lo
                assert s.graph.dst.max() < s.dst_hi

    def test_budget_partition_fits(self):
        g = rmat(9, 8.0, seed=5)
        full = g.memory_footprint()
        budget = (full.offset_bytes + full.property_bytes
                  + full.active_and_tproperty_bytes
                  + (full.edge_bytes + full.edge_info_bytes) // 3)
        slices = partition_for_budget(g, budget)
        assert len(slices) >= 3
        assert_tiles(g, slices)

    def test_impossible_budget_rejected(self):
        g = rmat(8, 4.0, seed=6)
        with pytest.raises(CapacityError):
            slice_count_for_budget(g, 16)  # 16 bytes: vertex arrays can't fit

    def test_zero_slices_rejected(self):
        with pytest.raises(CapacityError):
            partition_by_destination(rmat(4, 2.0), 0)

    def test_tiling_oracle_detects_gap(self):
        g = erdos_renyi(32, 64, seed=1)
        slices = partition_by_destination(g, 2)
        with pytest.raises(AssertionError):
            assert_tiles(g, [slices[0]])

    @given(num_slices=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_any_slice_count_tiles(self, num_slices):
        g = erdos_renyi(50, 300, seed=8)
        assert_tiles(g, partition_by_destination(g, num_slices))

