"""Golden-model tests: VCPM reference engine vs independent oracles.

BFS/SSSP are checked against networkx; SSWP against a hand-rolled
maximin Dijkstra; PageRank against an independent dense power iteration.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    SSSP,
    SSWP,
    PageRank,
    make_algorithm,
    run_reference,
)
from repro.algorithms.base import PROCESS_FORMS, REDUCE_FORMS, Algorithm
from repro.errors import ConfigError
from repro.graph import CSRGraph, chain, erdos_renyi, inverse_star, rmat, star


def to_networkx(g: CSRGraph) -> nx.DiGraph:
    ng = nx.DiGraph()
    ng.add_nodes_from(range(g.num_vertices))
    for s, d, w in g.edges():
        if ng.has_edge(s, d):
            # keep the smallest parallel weight: matches min-reduce semantics
            w = min(w, ng[s][d]["weight"])
        ng.add_edge(s, d, weight=w)
    return ng


def sswp_oracle(g: CSRGraph, source: int) -> np.ndarray:
    """Maximin widest path via a Dijkstra variant (independent of VCPM)."""
    import heapq
    width = np.zeros(g.num_vertices)
    width[source] = np.inf
    heap = [(-np.inf, source)]
    done = np.zeros(g.num_vertices, dtype=bool)
    while heap:
        negw, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        lo, hi = g.offsets[u], g.offsets[u + 1]
        for d, w in zip(g.dst[lo:hi], g.weights[lo:hi]):
            cand = min(width[u], w)
            if cand > width[d]:
                width[d] = cand
                heapq.heappush(heap, (-cand, d))
    return width


GRAPHS = {
    "chain": chain(10),
    "star": star(6),
    "inverse-star": inverse_star(6),
    "er": erdos_renyi(60, 300, seed=5),
    "rmat": rmat(7, 6.0, seed=6),
}


@pytest.mark.parametrize("gname", list(GRAPHS))
class TestAgainstOracles:
    def test_bfs_matches_networkx(self, gname):
        g = GRAPHS[gname]
        res = run_reference(g, BFS(), source=0)
        lengths = nx.single_source_shortest_path_length(to_networkx(g), 0)
        for v in range(g.num_vertices):
            expected = lengths.get(v, np.inf)
            assert res.properties[v] == expected, f"vertex {v}"

    def test_sssp_matches_networkx(self, gname):
        g = GRAPHS[gname]
        res = run_reference(g, SSSP(), source=0)
        lengths = nx.single_source_dijkstra_path_length(to_networkx(g), 0)
        for v in range(g.num_vertices):
            expected = lengths.get(v, np.inf)
            assert res.properties[v] == expected, f"vertex {v}"

    def test_sswp_matches_maximin_dijkstra(self, gname):
        g = GRAPHS[gname]
        res = run_reference(g, SSWP(), source=0)
        oracle = sswp_oracle(g, 0)
        assert np.array_equal(res.properties, oracle)

    def test_pagerank_matches_power_iteration(self, gname):
        g = GRAPHS[gname]
        iters, d = 15, 0.85
        res = run_reference(g, PageRank(damping=d, iterations=iters), source=0)
        # independent dense power iteration (no mass redistribution for
        # dangling vertices — same formulation as the VCPM kernels)
        v = g.num_vertices
        rank = np.full(v, 1.0 / v)
        deg = np.maximum(g.out_degree(), 1)
        srcs = g.edge_sources()
        for _ in range(iters):
            contrib = np.zeros(v)
            np.add.at(contrib, g.dst, rank[srcs] / deg[srcs])
            rank = (1 - d) / v + d * contrib
        assert np.allclose(res.properties, rank, rtol=1e-10, atol=1e-15)


class TestSemantics:
    def test_bfs_levels_iterate_by_frontier(self):
        res = run_reference(chain(5), BFS(), source=0)
        # chain: frontier advances one vertex per iteration, converging
        # when the final apply changes nothing
        actives = [list(t.active_vertices) for t in res.iterations]
        assert actives == [[0], [1], [2], [3], [4]]

    def test_edges_traversed_counts_out_degree_of_active(self):
        g = star(4)
        res = run_reference(g, BFS(), source=0)
        assert res.iterations[0].edges_traversed == 4

    def test_pr_runs_fixed_iterations_all_active(self):
        g = erdos_renyi(30, 100, seed=2)
        res = run_reference(g, PageRank(iterations=4), source=0)
        assert res.num_iterations == 4
        for t in res.iterations:
            assert len(t.active_vertices) == g.num_vertices

    def test_max_iterations_override(self):
        res = run_reference(chain(10), BFS(), source=0, max_iterations=2)
        assert res.num_iterations == 2

    @pytest.mark.parametrize("kwargs, problem", [
        ({"iterations": 0}, "iterations must be >= 1, got 0"),
        ({"iterations": -3}, "iterations must be >= 1, got -3"),
        ({"damping": 1.5}, "damping must be in [0, 1], got 1.5"),
        ({"damping": -0.1}, "damping must be in [0, 1], got -0.1"),
        ({"damping": float("nan")}, "damping must be in [0, 1], got nan"),
    ])
    def test_pagerank_refuses_parameters_it_cannot_run(self, kwargs,
                                                       problem):
        with pytest.raises(ConfigError) as info:
            PageRank(**kwargs)
        assert problem in str(info.value)

    def test_unreachable_stays_infinite(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        res = run_reference(g, BFS(), source=0)
        assert res.properties[2] == np.inf

    def test_source_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            run_reference(chain(3), BFS(), source=7)

    def test_empty_graph(self):
        g = CSRGraph.from_edges(0, [])
        res = run_reference(g, BFS(), source=0)
        assert res.properties.size == 0

    def test_sswp_rejects_zero_weights(self):
        g = CSRGraph.from_edges(2, [(0, 1)], [0])
        with pytest.raises(ConfigError):
            run_reference(g, SSWP(), source=0)

    def test_sssp_rejects_negative_weights(self):
        g = CSRGraph.from_edges(2, [(0, 1)], [-1])
        with pytest.raises(ConfigError):
            run_reference(g, SSSP(), source=0)

    def test_make_algorithm_roster(self):
        assert make_algorithm("bfs").name == "BFS"
        assert make_algorithm("SSSP").name == "SSSP"
        assert make_algorithm("sswp").name == "SSWP"
        assert make_algorithm("PR", iterations=3).default_iterations == 3
        with pytest.raises(ValueError):
            make_algorithm("dfs")

    def test_scatter_value_pagerank_divides_by_degree(self):
        pr = PageRank()
        prop = np.array([0.4, 0.6])
        deg = np.array([2, 0])
        sv = pr.scatter_value(prop, deg)
        assert sv[0] == pytest.approx(0.2)
        assert sv[1] == pytest.approx(0.6)  # dangling: degree clamped to 1

    def test_scalar_and_vector_kernels_agree(self):
        """Each shipped algorithm's scalar kernels equal its vectorized
        ones exactly, on ties and infinities too, its identity is
        Reduce's identity, and between them the six declare every
        closed form."""
        rng = np.random.default_rng(0)
        algorithms = [make_algorithm(name)
                      for name in ("BFS", "SSSP", "SSWP", "PR", "CC", "REACH")]
        assert {a.reduce_op for a in algorithms} == set(REDUCE_FORMS)
        assert {a.process_op for a in algorithms} == set(PROCESS_FORMS)
        sprop = np.concatenate([rng.uniform(0, 20, 50), [np.inf, 0.0, 7.0]])
        w = np.concatenate([rng.integers(1, 20, 50), [3, 0, 7]])
        a = np.concatenate([rng.uniform(0, 10, 50), [np.inf, 2.0, -np.inf]])
        b = np.concatenate([rng.uniform(0, 10, 50), [1.0, 2.0, 5.0]])
        for alg in algorithms:
            vec = alg.process_edge_vec(sprop, w)
            scal = [alg.process_edge(s, x)
                    for s, x in zip(sprop.tolist(), w.tolist())]
            assert np.array_equal(vec, scal), alg.name
            t = a.copy()
            alg.reduce_at(t, np.arange(a.size), b)
            scal = [alg.reduce(x, y) for x, y in zip(a.tolist(), b.tolist())]
            assert np.array_equal(t, scal), alg.name
            assert [alg.reduce(alg.identity(), y) for y in b.tolist()] \
                == b.tolist(), alg.name


class TestDeclarations:
    """A kernel comes from a declared closed form or from the class."""

    def test_a_class_that_declares_and_writes_nothing_is_refused(self):
        with pytest.raises(TypeError, match=r"declares no reduce_op .* "
                           r"write reduce, reduce_at, identity, apply"):
            class Bare(Algorithm):
                def init_prop(self, graph, source):
                    return np.zeros(graph.num_vertices)

    def test_an_undeclared_process_edge_must_be_written(self):
        with pytest.raises(TypeError, match=r"declares no process_op .* "
                           r"write process_edge, process_edge_vec"):
            class Scaled(SSSP):
                process_op = "mul"


class TestPropertyBased:
    @given(seed=st.integers(0, 1000), v=st.integers(2, 40), e=st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_bfs_triangle_inequality(self, seed, v, e):
        g = erdos_renyi(v, e, seed=seed)
        res = run_reference(g, BFS(), source=0)
        lvl = res.properties
        for s, d, _ in g.edges():
            if np.isfinite(lvl[s]):
                assert lvl[d] <= lvl[s] + 1

    @given(seed=st.integers(0, 1000), v=st.integers(2, 40), e=st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_sssp_relaxation_fixpoint(self, seed, v, e):
        g = erdos_renyi(v, e, seed=seed)
        res = run_reference(g, SSSP(), source=0)
        dist = res.properties
        for s, d, w in g.edges():
            if np.isfinite(dist[s]):
                assert dist[d] <= dist[s] + w

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_pagerank_conserves_at_most_unit_mass(self, seed):
        g = erdos_renyi(25, 120, seed=seed)
        res = run_reference(g, PageRank(iterations=8), source=0)
        assert 0 < res.properties.sum() <= 1.0 + 1e-9
        assert np.all(res.properties > 0)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_sswp_width_never_exceeds_max_weight(self, seed):
        g = erdos_renyi(25, 120, seed=seed)
        res = run_reference(g, SSWP(), source=0)
        finite = res.properties[np.isfinite(res.properties)]
        others = np.delete(finite, 0) if len(finite) else finite
        if g.num_edges and len(others):
            assert others.max() <= g.weights.max()
