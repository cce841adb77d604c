"""Tests for graph slicing (paper §5.3 Discussion) and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.graph import (
    CSRGraph,
    destination_slice_edges,
    erdos_renyi,
    load_edge_list,
    load_npz,
    partition_by_destination,
    partition_for_budget,
    rmat,
    save_edge_list,
    save_npz,
    slice_count_for_budget,
    validate_partition,
)


class TestPartition:
    def test_single_slice_when_fits(self):
        g = rmat(6, 4.0, seed=2)
        budget = g.memory_footprint().total_bytes + 1024
        slices = partition_for_budget(g, budget)
        assert len(slices) == 1
        validate_partition(g, slices)

    def test_slices_tile_edges(self):
        g = rmat(8, 8.0, seed=4)
        slices = partition_by_destination(g, 4)
        validate_partition(g, slices)
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
        validate_partition(g, slices)

    def test_impossible_budget_rejected(self):
        g = rmat(8, 4.0, seed=6)
        with pytest.raises(CapacityError):
            slice_count_for_budget(g, 16)  # 16 bytes: vertex arrays can't fit

    def test_zero_slices_rejected(self):
        with pytest.raises(CapacityError):
            partition_by_destination(rmat(4, 2.0), 0)

    def test_validate_partition_detects_gap(self):
        g = erdos_renyi(32, 64, seed=1)
        slices = partition_by_destination(g, 2)
        bad = [slices[0]]
        with pytest.raises(CapacityError):
            validate_partition(g, bad)

    @pytest.mark.parametrize("num_slices", [1, 7, 64],
                             ids=["one", "not-dividing-V", "more-than-V"])
    def test_slice_edge_counts_match_partition(self, num_slices):
        g = erdos_renyi(50, 300, seed=8)
        assert destination_slice_edges(g, num_slices) == \
            [s.num_edges for s in partition_by_destination(g, num_slices)]

    def test_slice_edge_counts_of_edgeless_graph(self):
        g = CSRGraph.from_edges(10, [])
        assert destination_slice_edges(g, 3) == \
            [s.num_edges for s in partition_by_destination(g, 3)] == [0, 0, 0]

    def test_slice_edge_counts_reject_zero_slices(self):
        with pytest.raises(CapacityError):
            destination_slice_edges(rmat(4, 2.0), 0)

    @given(num_slices=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_any_slice_count_tiles(self, num_slices):
        g = erdos_renyi(50, 300, seed=8)
        validate_partition(g, partition_by_destination(g, num_slices))


class TestIO:
    def test_edge_list_round_trip(self, tmp_path):
        g = erdos_renyi(20, 60, seed=7, name="io-test")
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        g2 = load_edge_list(path, num_vertices=20)
        assert g == g2

    def test_edge_list_without_weights_defaults_to_one(self, tmp_path):
        path = tmp_path / "simple.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        g = load_edge_list(path)
        assert list(g.weights) == [1, 1]
        assert g.num_vertices == 3

    def test_edge_list_bad_line_rejected(self, tmp_path):
        from repro.errors import GraphFormatError
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_edge_list_non_integer_rejected(self, tmp_path):
        from repro.errors import GraphFormatError
        path = tmp_path / "bad2.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError):
            load_edge_list(path)

    def test_npz_round_trip(self, tmp_path):
        g = rmat(7, 4.0, seed=9, name="npz-test")
        path = tmp_path / "g.npz"
        save_npz(g, path)
        g2 = load_npz(path)
        assert g == g2
        assert g2.name == "npz-test"

    def test_empty_edge_list(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        g = load_edge_list(path)
        assert g.num_vertices == 0
        assert g.num_edges == 0
