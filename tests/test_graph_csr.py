"""Unit tests for the CSR graph container (paper Fig. 1 structures)."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, chain


def small_graph():
    # 0 -> 1 (w=3), 0 -> 2 (w=5), 2 -> 1 (w=1)
    return CSRGraph.from_edges(3, [(0, 1), (0, 2), (2, 1)], [3, 5, 1], name="small")


class TestConstruction:
    def test_from_edges_counts(self):
        g = small_graph()
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_offsets_encode_degrees(self):
        g = small_graph()
        assert list(g.offsets) == [0, 2, 2, 3]

    def test_default_weights_are_ones(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        assert list(g.weights) == [1]

    def test_edge_order_within_vertex_preserved(self):
        g = CSRGraph.from_edges(4, [(1, 3), (1, 0), (1, 2)], [7, 8, 9])
        assert list(g.edges()) == [(1, 3, 7), (1, 0, 8), (1, 2, 9)]

    def test_unsorted_sources_are_sorted(self):
        g = CSRGraph.from_edges(3, [(2, 0), (0, 1), (1, 2)])
        assert list(g.edges()) == [(0, 1, 1), (1, 2, 1), (2, 0, 1)]

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.mean_degree == 0.0

    def test_vertices_without_edges(self):
        g = CSRGraph.from_edges(5, [(0, 4)])
        assert g.out_degree(1) == 0
        assert g.out_degree(0) == 1

    def test_dedup_keeps_first(self):
        g = CSRGraph.from_edges(2, [(0, 1), (0, 1)], [5, 9], dedup=True)
        assert g.num_edges == 1
        assert list(g.weights) == [5]

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(2, np.zeros((2, 3), dtype=np.int64))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph.from_edges(2, [(0, 1)], [1, 2])


class TestValidation:
    def test_nonzero_first_offset_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]), np.array([1, 1]))

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0]), np.array([1, 1]))

    def test_offset_edge_count_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([0, 0]), np.array([1, 1]))

    def test_destination_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5]), np.array([1]))

    def test_negative_destination_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([-1]), np.array([1]))


class TestQueries:
    def test_out_degree_array(self):
        g = small_graph()
        assert list(g.out_degree()) == [2, 0, 1]

    def test_edges_iterator(self):
        g = small_graph()
        assert list(g.edges()) == [(0, 1, 3), (0, 2, 5), (2, 1, 1)]

    def test_edge_sources_expansion(self):
        g = small_graph()
        assert list(g.edge_sources()) == [0, 0, 2]

    def test_mean_degree(self):
        assert chain(5).mean_degree == pytest.approx(4 / 5)


class TestTransforms:
    def test_subgraph_by_destination(self):
        g = small_graph()
        sub = g.subgraph_by_destination(1, 2)  # only edges into vertex 1
        assert sorted(sub.edges()) == [(0, 1, 3), (2, 1, 1)]
        assert sub.num_vertices == g.num_vertices  # ids preserved

    def test_equality(self):
        assert small_graph() == small_graph()
        assert small_graph() != chain(3)


class TestMemoryFootprint:
    def test_19_bit_quantization(self):
        g = small_graph()
        fp = g.memory_footprint()
        # 3 edges * 19 bits = 57 bits -> 8 bytes
        assert fp.edge_bytes == 8
        assert fp.edge_info_bytes == 8

    def test_total_is_sum(self):
        fp = small_graph().memory_footprint()
        assert fp.total_bytes == (fp.offset_bytes + fp.edge_bytes + fp.edge_info_bytes
                                  + fp.property_bytes + fp.active_and_tproperty_bytes)

    def test_r14_layout_scale(self):
        """Full R14 (1M edges, 19-bit entries) must fit HiGraph's 16 MB
        on-chip memory — the premise of the paper's Fig. 7 layout."""
        from repro.graph import load
        fp = load("R14").memory_footprint()
        assert fp.total_bytes <= 16 * 2**20
