"""Unit + property tests for synthetic graph generators."""

import hashlib
import json
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import DEFAULT_BENCH_SCALES
from repro.errors import GenerationError
from repro.graph import (
    CSRGraph,
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


def _edge_list_rmat(scale, edge_factor, a, b, c, seed, max_weight=63):
    """The edge-list construction ``rmat`` replaced, kept as the
    reference its in-place build must equal byte for byte."""
    num_vertices = 1 << scale
    num_edges = int(round(edge_factor * num_vertices))
    rng = np.random.default_rng(seed)
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for _level in range(scale):
        r = rng.random(num_edges)
        src = (src << 1) | (r >= a + b).astype(np.int64)
        dst = (dst << 1) | ((r >= a) & (r < a + b) | (r >= a + b + c)).astype(np.int64)
    perm = rng.permutation(num_vertices).astype(np.int64)
    weights = rng.integers(1, max_weight + 1, size=num_edges, dtype=np.int64)
    return CSRGraph.from_edges(num_vertices, np.stack([perm[src], perm[dst]], axis=1),
                               weights)


#: Runs in the child: the anonymous RSS that generating the six
#: bench-scale stand-ins adds, after one warm-up load.
RETENTION = """
import json
from repro.bench.harness import DEFAULT_BENCH_SCALES
from repro.graph import datasets

def rss_anon():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) * 1024

datasets.load("VT", scale=0.01)
before = rss_anon()
graphs = [datasets.load(key, scale=scale)
          for key, scale in DEFAULT_BENCH_SCALES.items()]
print(json.dumps({"grew": rss_anon() - before,
                  "kept": sum(g.offsets.nbytes + g.dst.nbytes + g.weights.nbytes
                              for g in graphs)}))
"""


class TestRmatInPlace:
    """``rmat`` builds its CSR arrays in place: the bytes of the edge-list
    construction it replaced, with fewer temporaries, none left
    resident."""

    #: sha256 over ``offsets``, ``dst`` and ``weights`` (little-endian
    #: int64) as the edge-list construction generated them
    DIGESTS = {
        ("VT", 1.0, None): "95ae29a801be02abf420a692b4dd8a347392175c31a72811c8db77b7c4ccc33d",
        ("EP", 0.125, None): "c0d4b63d5d0d678404663b08eae5b08bcc9bc4c40f7ab7616f00a8ad723c9de9",
        ("SL", 0.125, None): "244698cb3b8de949bf68a8cfcdb9e5a98a4d47f7727626302d79a912714d7521",
        ("TW", 0.0625, None): "53d342fb3aa454688f122eba31abfba14877169157dfa2746ad40588c381df6e",
        ("R14", 0.125, None): "aef91166917c75ad8084ed0687c5290b215e9de4efdb003b95bcefd884b16b9b",
        ("R16", 0.03125, None): "305b2c15bd31d11a38f622b451f93bb94cdc2c3db240610330e7bcb3720ef91f",
        ("R14", 1.0, None): "b43a41884f1c0ad4d390194a79661f7c424a92121ef2b310340a76bd9757094a",
        ("R14", 0.125, 3): "87cb2bd5a8fd03306511cc05069a0eb60caba411374381ff1738b794756a3095",
    }

    @given(scale=st.integers(min_value=0, max_value=10),
           ef=st.floats(min_value=0.5, max_value=16.0),
           a=st.floats(min_value=0.01, max_value=0.55),
           b=st.floats(min_value=0.0, max_value=0.2),
           c=st.floats(min_value=0.0, max_value=0.2),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_edge_list_construction(self, scale, ef, a, b, c, seed):
        assert rmat(scale, ef, a=a, b=b, c=c, seed=seed) == \
            _edge_list_rmat(scale, ef, a, b, c, seed)

    @pytest.mark.parametrize("key, scale, seed", list(DIGESTS))
    def test_content_is_pinned(self, key, scale, seed):
        from repro.graph import load
        graph = load(key, scale=scale, seed=seed)
        digest = hashlib.sha256()
        for arr in (graph.offsets, graph.dst, graph.weights):
            digest.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        assert digest.hexdigest() == self.DIGESTS[key, scale, seed]

    @pytest.mark.parametrize("key, scale",
                             [("R14", 1.0), ("VT", DEFAULT_BENCH_SCALES["VT"])])
    def test_temporaries_peak_under_bound(self, key, scale):
        from repro.graph import load
        load(key, scale=0.01)      # imports happen outside the window
        tracemalloc.start()
        try:
            graph = load(key, scale=scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = graph.offsets.nbytes + graph.dst.nbytes + graph.weights.nbytes
        # the edge-list construction peaked at 6.0x
        assert peak <= 3.25 * kept

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="RssAnon and glibc's heap are Linux/glibc facts")
    def test_freed_temporaries_are_not_kept_resident(self):
        proc = subprocess.run([sys.executable, "-c", RETENTION],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        # the edge-list construction grew 22-24 MB for 9.7 MB of arrays
        assert got["grew"] <= got["kept"] + 4 * 2**20, got
