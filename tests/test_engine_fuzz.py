"""Seeded differential fuzzer over every registered scatter engine.

Each case derives everything — graph topology, algorithm, accelerator
configuration, source vertex, sliced vs. unsliced execution — from one
integer seed through a deterministic ``numpy.random.default_rng``
stream, runs the workload on *every* engine in
:data:`repro.accel.engine.ENGINES`, and requires byte-identical
``SimStats.to_dict()`` plus bit-identical result properties against the
``reference`` engine.

Scaling and replay:

* ``REPRO_FUZZ_CASES=<n>`` runs ``n`` cases (default
  :data:`DEFAULT_CASES`, sized for the tier-1 budget; CI's fuzz smoke
  stage and nightly runs raise it).
* ``REPRO_FUZZ_SEED=<s>`` replays a single failing case: the failure
  message of every case embeds the exact one-line command.

The case generator lives in :func:`build_case` so a failure can also be
reproduced interactively (``build_case(seed)`` returns the graph,
config, algorithm name and mode that seed denotes).
"""

import os

import numpy as np
import pytest

from repro.accel import (
    SlicedAcceleratorSim,
    ablation,
    graphdyns,
    higraph,
    higraph_mini,
    simulate,
)
from repro.accel.engine import ENGINES
from repro.algorithms import make_algorithm
from repro.graph.generators import erdos_renyi, grid_2d, rmat, star
from repro.graph.partition import partition_by_destination
from test_engine_differential import _make_algorithm, divergence_message

#: Cases run when ``REPRO_FUZZ_CASES`` is unset — small enough for the
#: tier-1 suite, large enough to cross every generator branch.
DEFAULT_CASES = 8

#: Base seed; case ``i`` uses seed ``FUZZ_SEED_BASE + i`` so a failure
#: names one integer that regenerates the whole case.
FUZZ_SEED_BASE = 20220714

_ALGORITHMS = ("BFS", "SSSP", "SSWP", "PR", "CC")

#: (channels, radix) pairs valid for every site choice: MDP sites
#: require the channel count to be a power of the radix.  (9, 3) gives
#: a radix-3 MDP network and a crossbar whose bank count is no power
#: of two.
_GEOMETRIES = ((8, 2), (16, 2), (16, 4), (32, 2), (4, 2), (9, 3))


def _fuzz_case_count() -> int:
    raw = os.environ.get("REPRO_FUZZ_CASES", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_CASES


def _fuzz_seeds():
    forced = os.environ.get("REPRO_FUZZ_SEED", "")
    if forced.strip():
        return [int(forced)]
    return [FUZZ_SEED_BASE + i for i in range(_fuzz_case_count())]


def _random_graph(rng):
    family = rng.integers(0, 4)
    if family == 0:
        scale = int(rng.integers(6, 9))
        ratio = float(rng.uniform(3.0, 8.0))
        return rmat(scale, ratio, seed=int(rng.integers(1, 1 << 30)),
                    name=f"fuzz-rmat{scale}")
    if family == 1:
        n = int(rng.integers(60, 400))
        m = int(rng.integers(2 * n, 8 * n))
        return erdos_renyi(n, m, seed=int(rng.integers(1, 1 << 30)),
                           name=f"fuzz-er{n}")
    if family == 2:
        return star(int(rng.integers(20, 250)))
    side = int(rng.integers(4, 14))
    return grid_2d(side, side + int(rng.integers(0, 3)))


def _random_config(rng):
    channels, radix = _GEOMETRIES[int(rng.integers(0, len(_GEOMETRIES)))]
    overrides = dict(
        front_channels=channels,
        back_channels=channels,
        radix=radix,
        fifo_depth=int(rng.integers(radix, radix + 14)),
        epe_queue_depth=int(rng.integers(1, 5)),
        fe_out_depth=int(rng.integers(1, 5)),
        vertex_combining=bool(rng.integers(0, 2)),
    )
    groups = [g for g in (1, 2, 3, 4, 8) if channels % g == 0]
    overrides["dispatcher_group"] = int(groups[int(rng.integers(0, len(groups)))])
    makers = (higraph, higraph_mini, graphdyns,
              lambda **kw: ablation(opt_o=True, opt_d=True, **kw),
              lambda **kw: ablation(opt_e=True, **kw))
    maker = makers[int(rng.integers(0, len(makers)))]
    return maker(**overrides)


def build_case(seed):
    """Everything one fuzz seed denotes, as a dict (deterministic)."""
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng)
    config = _random_config(rng)
    algorithm = _ALGORITHMS[int(rng.integers(0, len(_ALGORITHMS)))]
    source = int(rng.integers(0, graph.num_vertices))
    sliced = bool(rng.integers(0, 4) == 0)  # 1-in-4 cases run sliced
    num_slices = int(rng.integers(2, 5)) if sliced else 0
    return dict(seed=seed, graph=graph, config=config,
                algorithm=algorithm, source=source, sliced=sliced,
                num_slices=num_slices)


def _run_case(case, engine):
    if case["sliced"]:
        slices = partition_by_destination(case["graph"], case["num_slices"])
        sim = SlicedAcceleratorSim(case["config"], case["graph"],
                                   _make_algorithm(case["algorithm"]),
                                   slices=slices, engine=engine)
        return sim.run(source=case["source"])
    return simulate(case["config"], case["graph"],
                    _make_algorithm(case["algorithm"]),
                    source=case["source"], engine=engine)


def _replay_command(seed):
    return (f"REPRO_FUZZ_SEED={seed} PYTHONPATH=src python -m pytest "
            f"tests/test_engine_fuzz.py -k fuzz_case -x")


@pytest.mark.parametrize("seed", _fuzz_seeds())
def test_fuzz_case(seed):
    case = build_case(seed)
    mode = (f"sliced[{case['num_slices']}]" if case["sliced"]
            else "unsliced")
    ref = _run_case(case, "reference")
    for engine in ENGINES:
        if engine == "reference":
            continue
        res = _run_case(case, engine)
        if res.stats.to_dict() != ref.stats.to_dict():
            pytest.fail(
                f"fuzz seed {seed} ({mode}): "
                + divergence_message(
                    engine, case["algorithm"], case["graph"],
                    case["config"], case["source"],
                    ref.stats.to_dict(), res.stats.to_dict(),
                    repro=_replay_command(seed)))
        assert np.array_equal(ref.properties, res.properties), (
            f"fuzz seed {seed} ({mode}): properties diverge "
            f"reference vs {engine}; reproduce: {_replay_command(seed)}")


def _pr_iterations() -> int:
    """Iterations for the multi-iteration PageRank cases
    (``REPRO_FUZZ_PR_ITERS`` raises it for nightly runs)."""
    raw = os.environ.get("REPRO_FUZZ_PR_ITERS", "")
    try:
        return max(2, int(raw))
    except ValueError:
        return 10


def _pr_seeds():
    forced = os.environ.get("REPRO_FUZZ_SEED", "")
    if forced.strip():
        return [int(forced)]
    count = max(2, _fuzz_case_count() // 4)
    return [FUZZ_SEED_BASE + 1000 + i for i in range(count)]


@pytest.mark.parametrize("seed", _pr_seeds())
def test_fuzz_pr_multi_iteration(seed):
    """Multi-iteration PageRank: every phase after the first starts from
    the arbiter state and counter totals the previous phase left
    resident in the kernel — the cross-phase carry the 2-iteration
    default cases barely touch."""
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng)
    config = _random_config(rng)
    iters = _pr_iterations()
    ref = simulate(config, graph, make_algorithm("PR", iterations=iters),
                   engine="reference")
    for engine in ENGINES:
        if engine == "reference":
            continue
        res = simulate(config, graph,
                       make_algorithm("PR", iterations=iters),
                       engine=engine)
        if res.stats.to_dict() != ref.stats.to_dict():
            pytest.fail(
                f"fuzz seed {seed} (PRx{iters}): "
                + divergence_message(
                    engine, "PR", graph, config, 0,
                    ref.stats.to_dict(), res.stats.to_dict(),
                    repro=_replay_command(seed)))
        assert np.array_equal(ref.properties, res.properties), (
            f"fuzz seed {seed} (PRx{iters}): properties diverge "
            f"reference vs {engine}")


def test_case_builder_is_deterministic():
    """The same seed must denote the same case in every process —
    otherwise the replay command in a failure message is useless."""
    a, b = build_case(FUZZ_SEED_BASE), build_case(FUZZ_SEED_BASE)
    assert a["algorithm"] == b["algorithm"]
    assert a["source"] == b["source"]
    assert a["sliced"] == b["sliced"]
    assert a["config"].to_dict() == b["config"].to_dict()
    assert a["graph"].num_vertices == b["graph"].num_vertices
    assert a["graph"].num_edges == b["graph"].num_edges
    assert np.array_equal(a["graph"].dst, b["graph"].dst)


def test_seed_env_replays_single_case(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_SEED", "12345")
    assert _fuzz_seeds() == [12345]
    monkeypatch.delenv("REPRO_FUZZ_SEED")
    monkeypatch.setenv("REPRO_FUZZ_CASES", "3")
    assert len(_fuzz_seeds()) == 3
