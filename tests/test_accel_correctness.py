"""Integration tests: every simulated design must compute exactly what the
functional golden model computes, for every algorithm, on assorted graphs.

This is the core guarantee of the reproduction — the cycle-level pipeline
(queues, arbiters, networks, replay engines, dispatchers, coalescing)
reorders work aggressively but may never lose, duplicate, or corrupt an
edge update.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    AcceleratorSim,
    SlicedAcceleratorSim,
    ablation,
    graphdyns,
    higraph,
    higraph_mini,
    simulate,
)
from repro.algorithms import BFS, SSSP, SSWP, PageRank, run_reference
from repro.errors import ConfigError
from repro.graph import (
    CSRGraph,
    chain,
    complete,
    erdos_renyi,
    grid_2d,
    inverse_star,
    partition_by_destination,
    rmat,
    star,
)

CONFIGS = {
    "HiGraph": higraph(),
    "HiGraph-mini": higraph_mini(),
    "GraphDynS": graphdyns(),
}

GRAPHS = {
    "chain": chain(12),
    "star": star(9),
    "inverse-star": inverse_star(9),
    "grid": grid_2d(5, 5),
    "er": erdos_renyi(80, 400, seed=11),
    "rmat": rmat(7, 8.0, seed=12),
    "complete": complete(9),
}

ALGORITHMS = {
    "BFS": BFS,
    "SSSP": SSSP,
    "SSWP": SSWP,
    "PR": lambda: PageRank(iterations=4),
}


def assert_matches_reference(config, graph, algorithm, source=0):
    ref = run_reference(graph, algorithm, source=source)
    res = simulate(config, graph, algorithm, source=source)
    if algorithm.name == "PR":
        assert np.allclose(res.properties, ref.properties, rtol=1e-9, atol=1e-15)
    else:
        assert np.array_equal(res.properties, ref.properties)
    assert res.stats.edges_processed == ref.total_edges
    assert res.stats.iterations == ref.num_iterations
    return res


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("aname", list(ALGORITHMS))
@pytest.mark.parametrize("cname", list(CONFIGS))
class TestAllDesignsMatchReference:
    def test_matches_golden_model(self, cname, aname, gname):
        assert_matches_reference(CONFIGS[cname], GRAPHS[gname],
                                 ALGORITHMS[aname]())


class TestAblationCorrectness:
    """Every Fig. 10 ablation point computes identical results too."""

    @pytest.mark.parametrize("opts", [(False, False, False), (True, False, False),
                                      (True, True, False), (True, True, True),
                                      (False, False, True), (False, True, False)])
    def test_ablation_configs_match_reference(self, opts):
        o, e, d = opts
        cfg = ablation(opt_o=o, opt_e=e, opt_d=d)
        assert_matches_reference(cfg, GRAPHS["rmat"], BFS())

    def test_combining_disabled_matches_reference(self):
        cfg = higraph(vertex_combining=False)
        assert_matches_reference(cfg, GRAPHS["rmat"], PageRank(iterations=3))
        assert_matches_reference(cfg, GRAPHS["inverse-star"], SSSP())


class TestEdgeCases:
    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [])
        res = simulate(higraph(), g, BFS())
        assert res.properties.size == 0
        assert res.stats.total_cycles == 0

    def test_single_vertex_no_edges(self):
        g = CSRGraph.from_edges(1, [])
        res = simulate(higraph(), g, BFS(), source=0)
        assert res.properties[0] == 0.0

    def test_isolated_source(self):
        g = CSRGraph.from_edges(5, [(1, 2)])
        res = simulate(higraph(), g, BFS(), source=0)
        assert res.properties[0] == 0.0
        assert np.isinf(res.properties[1])

    def test_self_loop(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
        assert_matches_reference(higraph(), g, SSSP())

    def test_parallel_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (0, 1), (1, 2)],
                                [5, 2, 9, 1])
        assert_matches_reference(higraph(), g, SSSP())
        assert_matches_reference(graphdyns(), g, SSWP())

    @pytest.mark.parametrize("offset", [-1, 9], ids=["-1", "V+9"])
    @pytest.mark.parametrize("engine", ["reference", "soa"])
    @pytest.mark.parametrize("sliced", [False, True],
                             ids=["plain", "sliced"])
    def test_source_out_of_range(self, sliced, engine, offset):
        """Both simulators refuse the source before any engine sees it."""
        g = rmat(7, 5.0, seed=3)
        source = offset if offset < 0 else g.num_vertices + offset
        if sliced:
            sim = SlicedAcceleratorSim(higraph(), g, BFS(),
                                       slices=partition_by_destination(g, 2),
                                       engine=engine)
        else:
            sim = AcceleratorSim(higraph(), g, BFS(), engine=engine)
        with pytest.raises(ConfigError, match="out of range"):
            sim.run(source=source)

    def test_different_sources(self):
        g = GRAPHS["er"]
        for src in (0, 7, 33):
            assert_matches_reference(higraph(), g, BFS(), source=src)

    def test_max_iterations_truncates(self):
        res = simulate(higraph(), chain(10), BFS(), max_iterations=2)
        assert res.stats.iterations == 2

    def test_hotspot_graph_all_updates_reach_one_vertex(self):
        """inverse-star + PageRank: every source is active and every
        edge reduces into vertex 0 — the worst case for dataflow
        propagation; combining must keep the sum exact."""
        g = inverse_star(64)
        for cfg in CONFIGS.values():
            res = assert_matches_reference(cfg, g, PageRank(iterations=2))
            assert res.stats.edges_processed == 128


class TestDeterminism:
    def test_same_run_twice_identical(self):
        g = GRAPHS["rmat"]
        a = simulate(higraph(), g, PageRank(iterations=3))
        b = simulate(higraph(), g, PageRank(iterations=3))
        assert np.array_equal(a.properties, b.properties)
        assert a.stats.total_cycles == b.stats.total_cycles
        assert a.stats.vpe_starvation_cycles == b.stats.vpe_starvation_cycles


class TestPropertyBased:
    @given(seed=st.integers(0, 500), v=st.integers(2, 50), e=st.integers(1, 250))
    @settings(max_examples=12, deadline=None)
    def test_random_graphs_bfs_higraph(self, seed, v, e):
        g = erdos_renyi(v, e, seed=seed)
        assert_matches_reference(higraph(), g, BFS())

    @given(seed=st.integers(0, 500), v=st.integers(2, 50), e=st.integers(1, 250))
    @settings(max_examples=8, deadline=None)
    def test_random_graphs_sssp_graphdyns(self, seed, v, e):
        g = erdos_renyi(v, e, seed=seed)
        assert_matches_reference(graphdyns(), g, SSSP())

    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_random_graphs_pr_mini(self, seed):
        g = erdos_renyi(40, 200, seed=seed)
        assert_matches_reference(higraph_mini(), g, PageRank(iterations=3))
