"""Unit + property tests for synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GenerationError
from repro.graph import (
    chain,
    complete,
    erdos_renyi,
    grid_2d,
    inverse_star,
    preferential_attachment,
    rmat,
    star,
)


class TestRmat:
    def test_sizes(self):
        g = rmat(8, 4.0, seed=3)
        assert g.num_vertices == 256
        assert g.num_edges == 1024

    def test_deterministic_under_seed(self):
        a, b = rmat(7, 3.0, seed=42), rmat(7, 3.0, seed=42)
        assert a == b

    def test_seed_changes_graph(self):
        assert rmat(7, 3.0, seed=1) != rmat(7, 3.0, seed=2)

    def test_weights_positive_integers(self):
        g = rmat(7, 3.0, seed=5)
        assert g.weights.min() >= 1
        assert g.weights.dtype == np.int64

    def test_skew_creates_hubs(self):
        """Graph500 parameters concentrate edges on low-id vertices."""
        g = rmat(10, 16.0, seed=7)
        deg = g.out_degree()
        top_share = np.sort(deg)[::-1][: len(deg) // 20].sum() / g.num_edges
        assert top_share > 0.25  # top 5% of vertices own >25% of edges

    def test_uniform_probabilities_flat(self):
        g = rmat(10, 16.0, a=0.25, b=0.25, c=0.25, seed=7)
        deg = g.out_degree()
        assert deg.max() < 20 * max(1, deg.mean())

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(GenerationError):
            rmat(4, 2.0, a=0.9, b=0.2, c=0.2)

    def test_invalid_scale_rejected(self):
        with pytest.raises(GenerationError):
            rmat(-1, 2.0)

    @given(scale=st.integers(min_value=0, max_value=8),
           ef=st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_rmat_always_valid(self, scale, ef):
        g = rmat(scale, ef, seed=11)
        g.validate()
        assert g.num_vertices == 1 << scale


class TestOtherGenerators:
    def test_erdos_renyi_edge_count(self):
        g = erdos_renyi(100, 500, seed=1)
        assert g.num_edges == 500
        assert g.num_vertices == 100

    def test_erdos_renyi_needs_vertices(self):
        with pytest.raises(GenerationError):
            erdos_renyi(0, 5)

    def test_preferential_attachment_in_degree_skew(self):
        g = preferential_attachment(500, 4, seed=9)
        in_deg = np.bincount(g.dst, minlength=g.num_vertices)
        assert in_deg.max() > 8 * max(1.0, in_deg.mean())

    def test_preferential_attachment_rejects_tiny(self):
        with pytest.raises(GenerationError):
            preferential_attachment(1, 2)

    def test_chain(self):
        g = chain(4)
        assert list(g.edges()) == [(0, 1, 1), (1, 2, 1), (2, 3, 1)]

    def test_star(self):
        g = star(3)
        assert g.num_vertices == 4
        assert list(g.edges()) == [(0, 1, 1), (0, 2, 1), (0, 3, 1)]

    def test_inverse_star_hotspot(self):
        g = inverse_star(5)
        assert all(d == 0 for _, d, _ in g.edges())

    def test_complete(self):
        g = complete(4)
        assert g.num_edges == 12
        assert all(s != d for s, d, _ in g.edges())

    def test_grid_2d_degrees(self):
        g = grid_2d(3, 3)
        deg = g.out_degree()
        assert deg[4] == 4          # centre
        assert deg[0] == 2          # corner
        assert g.num_edges == 2 * (3 * 2 + 3 * 2)

    def test_grid_rejects_empty(self):
        with pytest.raises(GenerationError):
            grid_2d(0, 3)


class TestDatasets:
    def test_table2_registry_matches_paper(self):
        from repro.graph import TABLE2
        assert TABLE2["VT"].num_edges == 103_689
        assert TABLE2["R14"].num_vertices == 16_384
        assert TABLE2["R14"].num_edges == 1_048_576
        assert TABLE2["R16"].num_edges == 4_194_304
        assert TABLE2["TW"].degree == 22

    def test_dataset_order_matches_figures(self):
        from repro.graph import DATASET_ORDER
        assert DATASET_ORDER == ("VT", "EP", "SL", "TW", "R14", "R16")

    def test_load_full_scale_sizes(self):
        from repro.graph import load
        g = load("R14")
        assert g.num_vertices == 16_384
        assert g.num_edges == 1_048_576

    def test_load_preserves_mean_degree_under_scaling(self):
        from repro.graph import TABLE2, load
        spec = TABLE2["TW"]
        g = load("TW", scale=0.25)
        assert g.mean_degree == pytest.approx(spec.mean_degree, rel=0.01)

    def test_load_unknown_rejected(self):
        from repro.errors import GenerationError
        from repro.graph import load
        with pytest.raises(GenerationError):
            load("nope")

    def test_load_bad_scale_rejected(self):
        from repro.errors import GenerationError
        from repro.graph import load
        with pytest.raises(GenerationError):
            load("VT", scale=0.0)

    def test_fixture_loads_by_key_without_scale_or_seed(self):
        from repro.graph import load
        assert load("chain256").num_edges == 255
        with pytest.raises(GenerationError, match="takes no scale or seed"):
            load("chain256", scale=0.5)
        with pytest.raises(GenerationError, match="takes no scale or seed"):
            load("chain256", seed=3)

    def test_load_deterministic(self):
        from repro.graph import load
        assert load("EP", scale=0.05) == load("EP", scale=0.05)

    @pytest.mark.parametrize("key", ("VT", "EP", "SL", "TW", "R14", "R16"))
    def test_shape_matches_generated_graph(self, key):
        from repro.bench.harness import DEFAULT_BENCH_SCALES
        from repro.graph import datasets, load
        for scale in (DEFAULT_BENCH_SCALES[key], 0.1, 0.02):
            g = load(key, scale=scale)
            assert datasets.shape(key, scale) == \
                (g.num_vertices, g.num_edges), (key, scale)

    def test_shape_validates_like_load(self):
        from repro.graph import datasets
        with pytest.raises(GenerationError):
            datasets.shape("nope")
        with pytest.raises(GenerationError):
            datasets.shape("VT", scale=0.0)

    def test_shape_preserves_paper_degree(self):
        from repro.graph import DATASET_ORDER, TABLE2, datasets
        for key in DATASET_ORDER:
            vertices, edges = datasets.shape(key, 0.05)
            spec = TABLE2[key]
            assert edges / vertices == pytest.approx(
                spec.num_edges / spec.num_vertices, rel=0.01)
