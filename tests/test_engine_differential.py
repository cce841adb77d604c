"""Differential suite: every non-reference engine must be cycle-exact.

The equivalence contract (see ``repro.accel.engine``) is that the
``soa`` engine produces **identical** ``SimStats`` — every counter, not
just totals — and identical result properties to the ``reference``
engine, for every configuration, graph and algorithm.
``assert_engines_agree`` runs *all* registered engines, so a new
engine joins the matrix by registering itself; failures report the
first diverging stats key plus a one-line reproducer.  This suite
enforces the contract over

* the tier-1 matrix: the three Table 1 designs x all five algorithms x
  structured + skewed graphs (every conflict-site implementation pair
  is exercised: mdp/crossbar offset, mdp/central edge, mdp/crossbar
  propagation, with and without vertex combining);
* every Fig. 8 job (the ``matrix_jobs`` list ``ci.sh differential``
  checks at the bench scales) with its dataset at a small scale;
* randomized rmat / Erdos-Renyi / star / grid graphs;
* the sliced (large-graph) execution mode;
* multi-phase PageRank runs, whose arbiter state (odd-even parity,
  rotating scan starts, round-robin pointers, stall memos) and conflict
  counters stay resident in the kernel across phases;
* phases no real frontier presents (duplicate actives past |V| active
  vertices and |E| edges), and every way the kernel can fail to load,
  each of which fails the ``soa`` run naming its cause;
* concurrent soa runs on threads (the kernel keeps no file-scope
  state), and the kernel's self-described layout: a reordered field
  list still runs identically, unknown fields are rejected, and every
  exported code is one the Python side can send;
* engine-selection plumbing: the default, the one hand-off to
  ``reference`` (an algorithm without closed forms), and the tracer's
  reference-only restriction.
"""

import ctypes
import re
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.accel import (
    AcceleratorSim,
    PipelineTracer,
    SlicedAcceleratorSim,
    ablation,
    graphdyns,
    higraph,
    higraph_mini,
    resolve_engine,
    simulate,
)
from repro.accel.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    ReferenceEngine,
    SoaEngine,
)
from repro.accel.engine import soa as soa_module
from repro.accel.engine import soakernel
from repro.accel.stats import SimStats
from repro.algorithms import PAPER_ALGORITHMS, make_algorithm, run_reference
from repro.bench.harness import matrix_jobs, paper_configs
from repro.errors import ConfigError, SimulationError
from repro.graph import DATASET_ORDER
from repro.graph.datasets import SCALE_ENV_VAR
from repro.graph.generators import erdos_renyi, grid_2d, rmat, star
from repro.graph.partition import partition_by_destination
from repro.sweep.executor import execute_job

ALL_ALGORITHMS = ("BFS", "SSSP", "SSWP", "PR", "CC")


def _make_algorithm(name):
    if name == "PR":
        return make_algorithm("PR", iterations=2)
    return make_algorithm(name)


def first_divergence(expected, actual):
    """First ``SimStats.to_dict()`` key the two runs disagree on.

    Returns ``(key, expected_value, actual_value)`` or ``None`` when the
    dicts are identical.  Keys missing on either side count as diverging
    (value reported as the string ``"<absent>"``).
    """
    for key in list(expected) + [k for k in actual if k not in expected]:
        lhs = expected.get(key, "<absent>")
        rhs = actual.get(key, "<absent>")
        if lhs != rhs:
            return key, lhs, rhs
    return None


def divergence_message(engine, algorithm_name, graph, config, source,
                       ref_stats, other_stats, repro=None):
    """One-line failure report: first diverging key + a reproducer.

    ``repro`` overrides the reproducer line (the fuzzer passes its seed
    replay command); the default points at the closest CLI invocation.
    """
    div = first_divergence(ref_stats, other_stats)
    key, exp, got = div if div else ("<none>", "?", "?")
    if repro is None:
        repro = (f"PYTHONPATH=src python -m repro simulate "
                 f"--algorithm {algorithm_name} --engine {engine} "
                 f"--source {source}  # graph={graph.name} "
                 f"config={config.name}")
    return (f"SimStats diverge: reference vs {engine} for "
            f"{algorithm_name} on {graph.name} / {config.name}: "
            f"first diverging key {key!r}: reference={exp!r} "
            f"{engine}={got!r}\n  reproduce: {repro}")


def assert_engines_agree(config, graph, algorithm_name, source=0):
    """Run every registered engine; stats + properties must match the
    reference byte-for-byte.  Returns ``{engine: result}``."""
    results = {}
    for engine in ENGINES:
        results[engine] = simulate(config, graph,
                                   _make_algorithm(algorithm_name),
                                   source=source, engine=engine)
    ref = results["reference"]
    for engine, res in results.items():
        if engine == "reference":
            continue
        if res.stats.to_dict() != ref.stats.to_dict():
            pytest.fail(divergence_message(
                engine, algorithm_name, graph, config, source,
                ref.stats.to_dict(), res.stats.to_dict()))
        assert np.array_equal(ref.properties, res.properties), (
            f"properties diverge: reference vs {engine} for "
            f"{algorithm_name} on {graph.name} / {config.name}")
    return results


def assert_pr_agrees(config, graph, iterations, slices=None):
    """PageRank x ``iterations`` on soa must equal reference byte for
    byte: every phase after the first starts from the arbiter state and
    counter totals the previous phase left in the kernel's struct."""
    results = {}
    for engine in ENGINES:
        alg = make_algorithm("PR", iterations=iterations)
        if slices is None:
            results[engine] = simulate(config, graph, alg, engine=engine)
        else:
            results[engine] = SlicedAcceleratorSim(
                config, graph, alg, slices=slices, engine=engine).run()
    ref = results["reference"]
    for engine, res in results.items():
        assert res.stats.to_dict() == ref.stats.to_dict(), divergence_message(
            engine, f"PRx{iterations}", graph, config, 0,
            ref.stats.to_dict(), res.stats.to_dict())
        assert np.array_equal(res.properties, ref.properties), engine


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not tried yet, caching under ``tmp_path``."""
    monkeypatch.setattr(soakernel, "_LIB", None)
    monkeypatch.setenv(soakernel.CACHE_ENV_VAR, str(tmp_path / "so"))
    return tmp_path


def _kernel_variant(monkeypatch, tmp_path, edit):
    """Point the loader at a copy of the real kernel source with
    ``edit(text)`` applied."""
    real = soakernel._SOURCE.read_text()
    text = edit(real)
    assert text != real, "the kernel edit did not apply"
    path = tmp_path / "kernel.c"
    path.write_text(text)
    monkeypatch.setattr(soakernel, "_SOURCE", path)


class TestTier1Matrix:
    """Three Table 1 designs x five algorithms on a skewed graph."""

    @pytest.fixture(scope="class")
    def skewed(self):
        return rmat(9, 8.0, seed=11, name="rmat9")

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("maker", [higraph, higraph_mini, graphdyns],
                             ids=["HiGraph", "HiGraph-mini", "GraphDynS"])
    def test_matrix_cell(self, maker, algorithm, skewed):
        assert_engines_agree(maker(), skewed, algorithm)


class TestFig8Matrix:
    """Every Fig. 8 job — four algorithms x six datasets x three Table 1
    designs, built by ``matrix_jobs`` — with the datasets at a small
    scale.  ``scripts/ci.sh differential`` runs the same comparison at
    the bench scales."""

    SCALE = "0.003"

    @pytest.mark.parametrize("config", list(paper_configs()))
    @pytest.mark.parametrize("dataset", DATASET_ORDER)
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_job(self, monkeypatch, algorithm, dataset, config):
        monkeypatch.setenv(SCALE_ENV_VAR, self.SCALE)
        [job] = matrix_jobs(algorithms=[algorithm], datasets=[dataset],
                            configs={config: paper_configs()[config]})
        runs = {engine: execute_job(job, engine) for engine in ENGINES}
        want = runs["reference"].to_dict()
        # an empty traversal would make the comparison vacuous
        assert want["edges_processed"] > 0, job.describe()
        for engine, stats in runs.items():
            div = first_divergence(want, stats.to_dict())
            assert div is None, (
                f"SimStats diverge: reference vs {engine} for "
                f"{job.describe()}: first diverging key {div}")


class TestSiteAblations:
    """Every conflict-site implementation pair, one site at a time."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(8, 6.0, seed=5, name="rmat8")

    @pytest.mark.parametrize("opts", [
        dict(),
        dict(opt_o=True),
        dict(opt_e=True),
        dict(opt_d=True),
        dict(opt_o=True, opt_e=True, opt_d=True),
    ], ids=["baseline", "opt-o", "opt-e", "opt-d", "opt-oed"])
    def test_ablation_steps(self, opts, graph):
        assert_engines_agree(ablation(**opts), graph, "PR")

    def test_no_vertex_combining(self, graph):
        assert_engines_agree(higraph(vertex_combining=False), graph, "PR")
        assert_engines_agree(graphdyns(vertex_combining=False), graph, "SSSP")

    @pytest.mark.parametrize("make", [
        lambda: higraph(front_channels=16, back_channels=16, radix=4,
                        fifo_depth=12, dispatcher_group=2,
                        epe_queue_depth=2),
        lambda: higraph(front_channels=9, back_channels=9, radix=3,
                        fifo_depth=5, dispatcher_group=3),
        lambda: higraph(front_channels=27, back_channels=27, radix=3,
                        dispatcher_group=3),
        lambda: graphdyns(back_channels=6, dispatcher_group=3),
        lambda: graphdyns(back_channels=12),
        lambda: ablation(opt_e=True, back_channels=24, dispatcher_group=3,
                         fifo_depth=6),
        lambda: higraph(front_channels=64, back_channels=512, radix=8,
                        dispatcher_group=8),
    ], ids=["radix4-16", "radix3-9-fifo5", "radix3-27", "graphdyns-6",
            "graphdyns-12", "opt-e-blocks3", "wide-512"])
    def test_odd_geometry(self, graph, make):
        """Radix 4 and radix 3 MDP networks with uneven dispatcher
        grouping and shallow queues, and crossbars whose bank count is
        no power of two: the geometries where a cached bank or a
        divide-free ring wrap would first go wrong.  ``opt-e-blocks3``
        puts 8 dispatchers of 3 banks behind a radix-2 range network
        whose block widths (3, 6, 12) are no power of its radix, with a
        block line of 4, so its routing tables and its stalls and
        rejects all matter; ``wide-512`` has more banks than any fixed
        256-entry scratch array, fewer front channels than banks, and a
        64-dispatcher radix-8 range network."""
        assert_engines_agree(make(), graph, "SSSP")
        assert_pr_agrees(make(), graph, iterations=3)

    def test_route_scratch_past_256(self):
        """A stage pass routes every non-empty source queue through the
        kernel's scratch arrays; here up to 280 of a 512-bank stage's
        queues hold a record at once, so a scratch of any fixed size up
        to 256 entries would overrun."""
        graph = rmat(9, 6.0, seed=5, name="rmat9")
        assert_pr_agrees(higraph(front_channels=64, back_channels=512,
                                 radix=8, dispatcher_group=8),
                         graph, iterations=3)

    def test_single_dispatcher(self, graph):
        """num_dispatchers == 1: the range network degenerates away."""
        cfg = higraph(back_channels=8, front_channels=8,
                      dispatcher_group=8)
        assert_engines_agree(cfg, graph, "BFS")


class TestRandomizedGraphs:
    """Random graph families x algorithms x both site stacks."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_rmat(self, algorithm, seed):
        graph = rmat(8, 5.0, seed=seed, name=f"rmat8-{seed}")
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(graphdyns(), graph, algorithm)

    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "PR"))
    def test_erdos_renyi(self, algorithm, seed):
        graph = erdos_renyi(300, 2400, seed=seed, name=f"er-{seed}")
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(graphdyns(), graph, algorithm)

    @pytest.mark.parametrize("algorithm", ("BFS", "SSWP", "CC"))
    def test_star(self, algorithm):
        """One hub fanning out: the propagation hotspot worst case."""
        graph = star(200)
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(higraph_mini(), graph, algorithm)

    @pytest.mark.parametrize("algorithm", ("BFS", "SSSP", "CC"))
    def test_grid(self, algorithm):
        """Long-diameter grid: many sparse-frontier iterations."""
        graph = grid_2d(12, 12)
        assert_engines_agree(higraph(), graph, algorithm)
        assert_engines_agree(graphdyns(), graph, algorithm)

    @pytest.mark.parametrize("seed", [3])
    def test_matches_golden_model(self, seed):
        """Both engines also equal the functional golden model.

        Min/max-reduce algorithms are order-insensitive, so they match
        bit-exactly; PR sums in hardware delivery order, which differs
        from the golden model's vectorized summation at ULP level only.
        """
        graph = rmat(8, 5.0, seed=seed, name=f"rmat8-{seed}")
        for algorithm in ALL_ALGORITHMS:
            soa = simulate(higraph(), graph, _make_algorithm(algorithm),
                           engine="soa")
            golden = run_reference(graph, _make_algorithm(algorithm), source=0)
            if algorithm == "PR":
                np.testing.assert_allclose(soa.properties, golden.properties,
                                           rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(soa.properties, golden.properties)

    def test_nonzero_source(self):
        graph = rmat(8, 5.0, seed=9, name="rmat8-9")
        assert_engines_agree(higraph(), graph, "BFS", source=37)
        assert_engines_agree(graphdyns(), graph, "SSSP", source=101)


class TestSlicedMode:
    def test_sliced_equivalence(self):
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        slices = partition_by_destination(graph, 3)
        results = {}
        for engine in ENGINES:
            sim = SlicedAcceleratorSim(higraph(), graph,
                                       _make_algorithm("SSSP"),
                                       slices=slices, engine=engine)
            results[engine] = sim.run(source=0)
        for engine in ENGINES:
            assert (results[engine].stats.to_dict()
                    == results["reference"].stats.to_dict()), engine
            assert np.array_equal(results[engine].properties,
                                  results["reference"].properties), engine

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("maker", [graphdyns, higraph],
                             ids=["GraphDynS", "HiGraph"])
    def test_single_slice_equals_unsliced(self, maker, engine):
        """A 1-slice run is the unsliced run plus slice accounting: every
        counter its slice engine harvests reaches the run's stats."""
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        plain = simulate(maker(), graph, make_algorithm("PR", iterations=3),
                         engine=engine).stats.to_dict()
        sliced = SlicedAcceleratorSim(
            maker(), graph, make_algorithm("PR", iterations=3),
            slices=partition_by_destination(graph, 1),
            engine=engine).run().stats.to_dict()
        assert plain["offset_deferrals"] > 0        # the counters are live
        for key in ("slices", "slice_load_cycles", "slice_raw_load_cycles"):
            del plain[key], sliced[key]
        assert sliced == plain


class TestEngineSelection:
    def test_registry_and_default(self):
        assert ENGINES == ("reference", "soa")
        assert DEFAULT_ENGINE == "soa"
        assert resolve_engine("Reference") == "reference"
        assert resolve_engine() == resolve_engine(None) == "soa"
        sim = AcceleratorSim(higraph(), star(8), _make_algorithm("BFS"))
        assert type(sim.engine) is SoaEngine and sim.engine.name == "soa"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("warp-10")

    def test_retired_batched_engine_rejected(self):
        with pytest.raises(ConfigError):
            resolve_engine("batched")

    def test_tracer_forces_reference(self):
        graph = star(16)
        sim = AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                             tracer=PipelineTracer())
        assert sim.engine.name == "reference"
        with pytest.raises(SimulationError):
            AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                           tracer=PipelineTracer(), engine="soa")


class TestWindowBoundaries:
    """Adversarial cases around the FIFO block line.

    A FIFO stalls or rejects only above ``fifo_depth - radix``, and the
    kernel's range network inserts unchecked while its whole in-flight
    population fits under that line (``_soa_march.c``).  These
    configurations force every boundary: populations that cross the
    line mid-phase and mid-drain, combining on the last cycle under
    it, and minimum depths where backpressure never clears.
    """

    @pytest.fixture(scope="class")
    def hub(self):
        # one hot destination: maximum combining + deep hot queues
        return star(150)

    @pytest.fixture(scope="class")
    def skewed(self):
        return rmat(8, 6.0, seed=23, name="rmat8-23")

    def test_minimum_depth_never_leaves_backpressure(self, skewed):
        """fifo_depth == radix: the block line is zero, every nonempty
        FIFO rejects, and the checked path runs end to end."""
        cfg = higraph(fifo_depth=2, radix=2)
        assert_engines_agree(cfg, skewed, "SSSP")
        assert_engines_agree(cfg, skewed, "PR")

    @pytest.mark.parametrize("depth", [3, 5, 11])
    def test_window_opens_and_closes_mid_phase(self, depth, skewed):
        """Shallow FIFOs keep the in-flight total crossing the block
        line, flipping between the no-backpressure and checked variants
        many times per phase (including mid-drain)."""
        cfg = higraph(fifo_depth=depth, epe_queue_depth=2, fe_out_depth=2)
        assert_engines_agree(cfg, skewed, "BFS")
        assert_engines_agree(cfg, skewed, "SSWP")

    def test_combining_on_the_last_prewindow_cycle(self, hub):
        """A hot-vertex drain merges records right up to the cycle the
        no-backpressure window opens; counters must not skew."""
        for depth in (4, 8, 160):
            assert_engines_agree(higraph(fifo_depth=depth), hub, "PR")
            assert_engines_agree(higraph_mini(fifo_depth=depth), hub, "CC")

    def test_combining_disabled_at_small_depth(self, hub):
        cfg = higraph(vertex_combining=False, fifo_depth=4)
        assert_engines_agree(cfg, hub, "PR")

    def test_central_and_crossbar_sites_at_small_depth(self, skewed):
        """GraphDynS-style sites under constant backpressure."""
        cfg = graphdyns(fifo_depth=3, epe_queue_depth=2)
        assert_engines_agree(cfg, skewed, "SSSP")
        assert_engines_agree(cfg, skewed, "PR")

    def test_pr_arbiter_state_crosses_phases(self, skewed):
        """Arbiter state that does not return to its start between
        PageRank phases must carry over exactly."""
        for maker in (higraph, graphdyns):
            assert_engines_agree(maker(), skewed, "PR")

    def test_sliced_mode_with_shallow_fifos(self):
        graph = rmat(8, 6.0, seed=29, name="rmat8-29")
        slices = partition_by_destination(graph, 3)
        cfg = higraph(fifo_depth=5, epe_queue_depth=2)
        results = {}
        for engine in ENGINES:
            sim = SlicedAcceleratorSim(cfg, graph, _make_algorithm("PR"),
                                       slices=slices, engine=engine)
            results[engine] = sim.run(source=0)
        for engine in ENGINES:
            assert (results[engine].stats.to_dict()
                    == results["reference"].stats.to_dict()), engine
            assert np.array_equal(results[engine].properties,
                                  results["reference"].properties), engine

    @pytest.mark.parametrize("seed", [41, 42])
    def test_randomized_graphs_at_window_boundary_depths(self, seed):
        graph = rmat(7, 7.0, seed=seed, name=f"rmat7-{seed}")
        for depth in (2, 6):
            cfg = higraph(front_channels=8, back_channels=8,
                          fifo_depth=depth, dispatcher_group=2)
            for algorithm in ("BFS", "SSSP", "PR"):
                assert_engines_agree(cfg, graph, algorithm)


class TestDegenerateGeometries:
    """Minimal and lopsided networks every engine must survive.

    The smallest legal MDP geometry is two channels at radix 2 (one
    stage, one switch; a single-channel MDP network is a ConfigError),
    and the smallest legal FIFO is ``fifo_depth == radix`` — both
    boundary the SoA kernel's ring indexing at occupancy == capacity.
    """

    @pytest.fixture(scope="class")
    def small(self):
        return rmat(7, 5.0, seed=17, name="rmat7-17")

    def test_two_channel_minimum_network(self, small):
        cfg = higraph().with_(front_channels=2, back_channels=2, radix=2,
                              fifo_depth=2, dispatcher_group=1)
        assert_engines_agree(cfg, small, "BFS")
        assert_engines_agree(cfg, small, "PR")

    def test_single_channel_mdp_rejected_for_every_engine(self):
        graph = star(16)
        with pytest.raises(ConfigError):
            cfg = higraph(front_channels=1, back_channels=1)
            for engine in ENGINES:
                simulate(cfg, graph, _make_algorithm("BFS"), engine=engine)

    def test_single_part_frontends(self):
        """A frontier smaller than the channel count: most channels get
        zero parts, the rest exactly one (the part-stream degenerate
        case — each channel's lazy piece iterator yields at most once)."""
        graph = grid_2d(5, 5)
        cfg = higraph(front_channels=16, back_channels=16)
        assert_engines_agree(cfg, graph, "BFS")
        assert_engines_agree(cfg, graph, "SSSP", source=24)

    def test_depth_one_issue_and_output_queues(self, small):
        cfg = higraph(issue_queue_depth=1, fe_out_depth=1,
                      epe_queue_depth=1)
        assert_engines_agree(cfg, small, "SSSP")


class TestEngineAlternation:
    """Engines must coexist in one process without leaking state."""

    def test_algorithm_without_closed_forms_runs_on_reference(
            self, monkeypatch):
        """The one hand-off: an algorithm that declares no closed-form
        Reduce runs on reference, decided without loading the kernel,
        and byte-identical to a reference run."""
        def no_kernel():
            raise AssertionError("the hand-off loaded the kernel")

        monkeypatch.setattr(soa_module, "load_kernel", no_kernel)
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")

        def custom():
            alg = _make_algorithm("SSSP")
            alg.reduce_op = None        # an arbitrary Reduce: no closed form
            return alg

        sim = AcceleratorSim(higraph(), graph, custom(), engine="soa")
        assert type(sim.engine) is ReferenceEngine
        ref = simulate(higraph(), graph, custom(), engine="reference")
        bare = sim.run(source=0)
        assert bare.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(bare.properties, ref.properties)

    @pytest.mark.parametrize("maker", [graphdyns, higraph],
                             ids=["GraphDynS", "HiGraph"])
    def test_kernel_bound_soa_marches_every_phase_in_c(self, maker):
        """With the kernel bound, every cycle of every phase is marched
        in C (``SoaEngine`` has no Python march), and the result is
        still the reference's byte for byte."""
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        sim = AcceleratorSim(maker(), graph,
                             make_algorithm("PR", iterations=6),
                             engine="soa")
        assert type(sim.engine) is SoaEngine
        result = sim.run(source=0)
        ref = simulate(maker(), graph, make_algorithm("PR", iterations=6),
                       engine="reference")
        assert result.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(result.properties, ref.properties)

    def test_reachability_fuzzes_through_soa(self):
        """REACH declares max-reduce with an identity process kernel —
        the sixth algorithm exercises the proc=0 kernel path."""
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        ref = simulate(higraph(), graph, make_algorithm("REACH"),
                       engine="reference")
        res = simulate(higraph(), graph, make_algorithm("REACH"),
                       engine="soa")
        assert res.stats.to_dict() == ref.stats.to_dict()
        assert np.array_equal(ref.properties, res.properties)


class TestResidentArbiterState:
    """Multi-phase PageRank: the kernel keeps arbiter state and conflict
    counters in its struct for the whole run, so every phase after the
    first must start exactly where the previous one stopped.

    The inputs are the ones that once drove the retired window memo's
    partial and periodic replays — phases that differ only in frontend
    arbiter state, parity flips on skewed degrees, long runs — now
    plain soa-vs-reference checks.
    """

    def test_frontend_flip_on_lockstep_channels(self):
        """Rotating-scan frontend drift over a stable MDP propagation
        site, uniform-degree channels."""
        assert_pr_agrees(ablation(opt_d=True), grid_2d(12, 12), 6)

    def test_fig10_ablation_step(self):
        cfg = ablation(opt_e=True, opt_d=True, front_channels=16,
                       back_channels=16)
        assert_pr_agrees(cfg, grid_2d(12, 12), 6)

    def test_parity_flips_on_skewed_degrees(self):
        """Odd-length phases flip the odd-even parity every phase, and
        skewed degrees make arbitration genuinely parity-dependent."""
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        assert_pr_agrees(higraph(), graph, 8)

    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_long_pr_runs_stay_identical(self, maker):
        graph = erdos_renyi(300, 2400, seed=7, name="er-7")
        assert_pr_agrees(maker(), graph, 8)


class TestSlicedMultiPhase:
    """Sliced PageRank: each slice owns its own engine, hence its own
    resident arbiter state and counters, and re-presents the same
    frontier every iteration."""

    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_every_slice_stays_identical(self, maker):
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        assert_pr_agrees(maker(), graph, 6,
                         slices=partition_by_destination(graph, 3))


class TestOversizedPhases:
    """A direct ``scatter_phase()`` may present duplicate actives, which
    no real frontier has: more than |V| active entries, or more expected
    deliveries than |E|.  The soa engine grows its active-vertex part
    buffers, and the following normal phase still matches."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat(7, 6.0, seed=5, name="rmat7-5")

    @staticmethod
    def _phases(graph):
        v = graph.num_vertices
        # 138 copies of a zero-degree vertex plus one vertex twice: more
        # actives than vertices, few edges
        zero = int(np.flatnonzero(graph.out_degree() == 0)[0])
        many = np.array([zero] * 138 + [3, 3], dtype=np.int64)
        assert many.size > v
        # every vertex twice: more expected edges than the graph has
        doubled = np.tile(np.arange(v, dtype=np.int64), 2)
        return [many, doubled]

    def _run(self, config, graph, algorithm, engine):
        alg = make_algorithm(algorithm)
        sim = AcceleratorSim(config, graph, alg, engine=engine)
        stats = SimStats()
        prop = alg.init_prop(graph, 0)
        sprop = alg.scatter_value(prop, sim.out_degree)
        identity = alg.identity()
        normal = alg.initial_active(graph, 0)
        many, doubled = self._phases(graph)
        tprops = []
        for active in (many, normal, doubled, normal):
            tprop = np.full(graph.num_vertices, identity)
            sim.engine.scatter_phase(active, sprop, tprop, stats)
            tprops.append(tprop)
        sim.engine.harvest(stats)
        return type(sim.engine), stats.to_dict(), tprops

    @pytest.mark.parametrize("algorithm", ["BFS", "PR", "SSSP"])
    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_duplicate_active_phases_match_reference(self, graph, maker,
                                                     algorithm):
        _, ref_stats, ref_tprops = self._run(maker(), graph, algorithm,
                                             "reference")
        kind, soa_stats, soa_tprops = self._run(maker(), graph, algorithm,
                                                "soa")
        assert kind is SoaEngine
        assert soa_stats == ref_stats
        assert soa_stats["edges_processed"] > 2 * graph.num_edges
        for ref, soa in zip(ref_tprops, soa_tprops):
            assert np.array_equal(ref, soa)


class TestKernelGuards:
    """The C call's two failure codes, and a tProperty the kernel cannot
    index, surface as SimulationError."""

    def _sim(self):
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        return AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                              engine="soa")

    def test_non_convergence_raises(self):
        sim = self._sim()
        # promise more edges than the graph holds: the march can never
        # reach them and must stop at the cycle limit
        sim.engine.out_degree = sim.out_degree + 1
        with pytest.raises(SimulationError, match="did not converge"):
            sim.run(source=0)

    def test_struct_skew_raises(self):
        sim = self._sim()
        sim.engine._st.magic = 0
        with pytest.raises(SimulationError, match="rejected its state"):
            sim.run(source=0)

    @pytest.mark.parametrize("make", [
        lambda v: [0.0] * v,
        lambda v: np.zeros(v, dtype=np.float32),
        lambda v: np.zeros(v - 1),
        lambda v: np.zeros(2 * v)[::2],
    ], ids=["list", "float32", "short", "strided"])
    def test_tprop_the_kernel_cannot_index_is_refused(self, make):
        sim = self._sim()
        active = np.arange(4, dtype=np.int64)
        sprop = np.zeros(sim.graph.num_vertices)
        with pytest.raises(SimulationError, match="C-contiguous float64"):
            sim.engine.scatter_phase(active, sprop,
                                     make(sim.graph.num_vertices),
                                     SimStats())


class TestKernelLoadFailures:
    """Every way the kernel can fail to load fails the ``soa`` run:
    ``load_kernel()`` and the simulator both raise ``SimulationError``
    naming the cause, and no run is handed to the reference engine."""

    def _source(self, tmp_path, text):
        path = tmp_path / "kernel.c"
        path.write_text(text)
        return path

    def _assert_load_fails(self, cause):
        with pytest.raises(SimulationError, match=cause) as failed:
            soakernel.load_kernel()
        assert str(failed.value).startswith("soa kernel unavailable: ")
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        with pytest.raises(SimulationError, match=cause):
            AcceleratorSim(higraph(), graph, _make_algorithm("SSSP"),
                           engine="soa")

    def test_no_compiler(self, fresh_loader, monkeypatch):
        monkeypatch.delenv(soakernel.CACHE_ENV_VAR)
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_loader))
        monkeypatch.setattr(soakernel, "_find_compiler", lambda: None)
        self._assert_load_fails("no C compiler found")
        assert not any(fresh_loader.rglob("*.so"))

    def test_source_that_fails_to_compile(self, fresh_loader, monkeypatch):
        """The cause carries the tail of the compiler's stderr."""
        monkeypatch.setattr(soakernel, "_SOURCE", self._source(
            fresh_loader, "#define SOA_ABI_VERSION 4\nnot C at all;\n"))
        self._assert_load_fails(r"exited \d+ compiling .*kernel\.c:\n"
                                r"(.|\n)*error")
        assert not any(fresh_loader.rglob("*.so"))

    def test_abi_version_disagrees_with_source(self, fresh_loader,
                                               monkeypatch):
        monkeypatch.setattr(soakernel, "_SOURCE", self._source(
            fresh_loader,
            "#define SOA_ABI_VERSION 5\n"
            "long long soa_abi_version(void) { return 4; }\n"
            "long long soa_march(void *st) { return 0; }\n"))
        self._assert_load_fails("reports ABI 4, its source declares 5")
        assert any(fresh_loader.rglob("*.so"))      # built, then refused

    def test_source_without_abi_define(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(soakernel, "_SOURCE", self._source(
            fresh_loader, "long long soa_abi_version(void) { return 4; }\n"))
        self._assert_load_fails("defines no SOA_ABI_VERSION")

    def test_unreadable_source(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(soakernel, "_SOURCE", fresh_loader / "gone.c")
        self._assert_load_fails("cannot read its source: .*gone.c")

    def test_layout_table_disagrees_with_sizeof(self, fresh_loader,
                                                monkeypatch):
        _kernel_variant(monkeypatch, fresh_loader, lambda text: text.replace(
            "(i64)sizeof(SoaState)}", "(i64)sizeof(SoaState) + 8}"))
        self._assert_load_fails(r"sizes SoaState at (\d+) bytes, ctypes at")
        assert any(fresh_loader.rglob("*.so"))      # built, then refused

    def test_layout_table_lacks_a_bound_name(self, fresh_loader,
                                             monkeypatch):
        """The kernel compiles and runs, but its table no longer names
        ``magic2``, which the Python side binds: a load failure."""
        _kernel_variant(monkeypatch, fresh_loader, lambda text: re.sub(
            r"\bmagic2\b", "magic_end", text))
        self._assert_load_fails("layout table lacks magic2")
        assert any(fresh_loader.rglob("*.so"))

    def test_kernel_without_a_layout_table(self, fresh_loader, monkeypatch):
        _kernel_variant(monkeypatch, fresh_loader, lambda text: text.replace(
            "*soa_layout(void)", "*soa_layout_table(void)"))
        self._assert_load_fails("undefined symbol: soa_layout")
        assert any(fresh_loader.rglob("*.so"))

    def test_kernel_without_an_abi_probe(self, fresh_loader, monkeypatch):
        _kernel_variant(monkeypatch, fresh_loader, lambda text: text.replace(
            "i64 soa_abi_version(void)", "i64 soa_abi(void)"))
        self._assert_load_fails("undefined symbol: soa_abi_version")
        assert any(fresh_loader.rglob("*.so"))


class TestKernelBuildKey:
    """The cached ``.so`` is named after the whole build (source, flags,
    compiler), so a warm cache never loads a build made another way."""

    def test_flags_change_the_so_name(self, monkeypatch):
        source = soakernel._SOURCE.read_text()
        monkeypatch.setattr(soakernel, "_compiler_identity",
                            lambda cc: "cc (GCC) 12.2.0")
        before = soakernel._so_path(source, "cc")
        monkeypatch.setattr(soakernel, "BUILD_FLAGS",
                            (*soakernel.BUILD_FLAGS, "-g"))
        assert soakernel._so_path(source, "cc") != before

    def test_compiler_identity_changes_the_so_name(self, monkeypatch):
        source = soakernel._SOURCE.read_text()
        monkeypatch.setattr(soakernel, "_compiler_identity",
                            lambda cc: "cc (GCC) 12.2.0")
        before = soakernel._so_path(source, "cc")
        monkeypatch.setattr(soakernel, "_compiler_identity",
                            lambda cc: "cc (GCC) 13.1.0")
        assert soakernel._so_path(source, "cc") != before

    def test_build_passes_the_hashed_flags(self, monkeypatch, tmp_path):
        seen = []

        def run(argv, **kwargs):
            seen.append(argv)
            raise OSError("not compiling in this test")

        monkeypatch.setattr(soakernel.subprocess, "run", run)
        with pytest.raises(SimulationError, match="not compiling"):
            soakernel._build("cc", soakernel._SOURCE, tmp_path / "k.so")
        assert seen[0][0] == "cc"
        assert seen[0][1:1 + len(soakernel.BUILD_FLAGS)] == list(
            soakernel.BUILD_FLAGS)

    def test_warm_cache_loads_without_a_recompile(self, monkeypatch):
        soakernel.load_kernel()          # built (or found) in the cache
        monkeypatch.setattr(soakernel, "_LIB", None)

        def build(*args):
            raise AssertionError("a cached kernel was compiled again")

        monkeypatch.setattr(soakernel, "_build", build)
        assert isinstance(soakernel.load_kernel(), soakernel.Kernel)


class TestSelfDescribingLayout:
    """The kernel exports its own struct layout and named constants;
    the Python side builds its ctypes struct from them and looks every
    code up by name, so there is no mirror left to drift."""

    @pytest.mark.parametrize("first, second, between", [
        (("I64", "fifo_depth"), ("I64", "block_len"), " "),
        (("CI64P", "offsets"), ("CI64P", "dst"), " "),
        (("I64", "proc"), ("F64", "proc_const"), " \\\n    "),
    ], ids=["scalars", "pointers", "mixed-kinds"])
    def test_reordered_field_list_runs_identically(self, fresh_loader,
                                                   monkeypatch, first,
                                                   second, between):
        """Swapping two rows of the C field list moves both fields; the
        loaded struct follows, and the stats stay reference-identical."""
        row = "F({}, {})".format
        _kernel_variant(monkeypatch, fresh_loader, lambda text: text.replace(
            row(*first) + between + row(*second),
            row(*second) + between + row(*first)))
        kernel = soakernel.load_kernel()
        assert (getattr(kernel.State, second[1]).offset
                < getattr(kernel.State, first[1]).offset)
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        for maker in (higraph, graphdyns):
            sim = AcceleratorSim(maker(), graph, _make_algorithm("PR"),
                                 engine="soa")
            assert sim.engine._kernel is kernel
            ref = simulate(maker(), graph, _make_algorithm("PR"),
                           engine="reference")
            assert sim.run(source=0).stats.to_dict() == ref.stats.to_dict()

    def test_state_rejects_unknown_fields(self):
        st = soakernel.load_kernel().State()
        st.fifo_depth = 4
        with pytest.raises(AttributeError):
            st.fifo_dpeth = 4

    def test_scalar_reduce_ops_are_the_kernel_reduce_codes(self):
        """Every reduce form a shipped algorithm declares has a kernel
        code, and every kernel code is some algorithm's form."""
        consts = soakernel.load_kernel().consts
        declared = {make_algorithm(name).reduce_op
                    for name in (*PAPER_ALGORITHMS, "CC", "REACH")}
        assert set(soa_module._RED_CODES) == declared
        assert set(soa_module._RED_CODES.values()) == {
            name for name in consts if name.startswith("RED_")}

    def test_every_exported_code_can_be_sent(self):
        consts = soakernel.load_kernel().consts
        sent = set(soa_module._RED_CODES.values())
        for identity in (True, False):
            for weights in (True, False):
                for const in (None, 1.0):
                    for op in ("add", "min", "max"):
                        sent.add(soa_module._proc_code(types.SimpleNamespace(
                            process_is_identity=identity,
                            uses_weights=weights, process_const=const,
                            process_op=op)))
        sent.discard(None)
        exported = {name for name in consts
                    if name.startswith(("RED_", "PROC_"))}
        assert exported == sent

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS + ("REACH",))
    def test_every_algorithm_marches_in_the_kernel(self, algorithm):
        """Each shipped algorithm's reduce and process codes are ones
        the kernel exports, so each binds a SoaEngine and marches in C
        (a name lookup that missed would fail the bind)."""
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        sim = AcceleratorSim(higraph(), graph, _make_algorithm(algorithm),
                             engine="soa")
        assert type(sim.engine) is SoaEngine
        ref = simulate(higraph(), graph, _make_algorithm(algorithm),
                       engine="reference")
        assert sim.run(source=0).stats.to_dict() == ref.stats.to_dict()

    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_arrays_are_marshalled_in_their_field_kind(self, maker):
        """Every pointer the bound struct holds points at an array whose
        dtype is the one its field's kind names: int64, float64, or
        opaque records of the size the kernel exports for the kind."""
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")
        engine = AcceleratorSim(maker(), graph, _make_algorithm("SSSP"),
                                engine="soa").engine
        kinds = engine._kernel.kinds
        records = engine._kernel.records
        by_address = {a.ctypes.data: a for a in engine._keep}
        bound = [name for name, kind in kinds.items()
                 if kind.endswith("*") and getattr(engine._st, name)]
        assert len(bound) > 20
        rings = 0
        for name in bound:
            array = by_address[getattr(engine._st, name)]
            kind = kinds[name]
            if kind in soa_module._DTYPES:
                assert array.dtype == soa_module._DTYPES[kind], name
            else:
                assert array.dtype.kind == "V", name
                assert array.itemsize == records[kind[:-1]], name
                # 8-byte fields: the rings must start 8-byte aligned
                assert array.ctypes.data % 8 == 0, name
                rings += 1
        assert rings == 1       # pn_q on an MDP site, px_q on a crossbar

    def test_loaded_layout_is_read_only(self):
        """One loaded kernel serves every run on every thread, so its
        layout maps cannot be edited in place."""
        kernel = soakernel.load_kernel()
        with pytest.raises(TypeError):
            kernel.kinds["magic"] = "f64"
        with pytest.raises(TypeError):
            kernel.consts["SOA_MAGIC"] = 0


def _table_lib(rows):
    """A stand-in for a loaded kernel whose ``soa_layout()`` returns
    ``rows`` of ``(kind, name, value)``, NULL-terminated as in C."""
    table = (soakernel._LayoutRow * (len(rows) + 1))(
        *(soakernel._LayoutRow(kind.encode(), name.encode(), value)
          for kind, name, value in rows))
    return types.SimpleNamespace(soa_layout=lambda: table)


#: a small table the loader binds: five 8-byte fields, two constants
_TABLE = (
    ("i64", "magic", 0), ("f64", "scale", 8), ("i64*", "idx", 16),
    ("f64*", "vals", 24), ("i64", "magic2", 32),
    ("const", "SOA_MAGIC", 0x50A), ("const", "RED_MIN", 1),
    ("sizeof", "SoaState", 40))


def _edit_table(**rows):
    """``_TABLE`` with the rows named by keyword replaced (a tuple) or
    dropped (``None``)."""
    out = []
    for row in _TABLE:
        new = rows.get(row[1], row)
        if new is not None:
            out.append(new)
    return out


class TestLayoutBinding:
    """``_bind_layout`` builds the ctypes struct from whatever table the
    kernel exports, and refuses any table ctypes cannot lay out exactly
    as the table says C did, naming what differs."""

    def test_a_consistent_table_binds(self):
        state, kinds, consts, records = soakernel._bind_layout(
            _table_lib(_TABLE))
        assert [name for name, _ in state._fields_] == [
            "magic", "scale", "idx", "vals", "magic2"]
        assert ctypes.sizeof(state) == 40
        assert kinds == {"magic": "i64", "scale": "f64", "idx": "i64*",
                         "vals": "f64*", "magic2": "i64"}
        assert consts == {"SOA_MAGIC": 0x50A, "RED_MIN": 1}
        assert records == {}

    def test_fields_follow_offsets_not_table_order(self):
        """The struct is laid out in offset order, wherever the rows
        sit in the table."""
        rows = list(_TABLE[::-1])
        state, *_ = soakernel._bind_layout(_table_lib(rows))
        assert [name for name, _ in state._fields_] == [
            "magic", "scale", "idx", "vals", "magic2"]
        state, *_ = soakernel._bind_layout(_table_lib(_edit_table(
            idx=("i64*", "idx", 24), vals=("f64*", "vals", 16))))
        assert state.vals.offset == 16 and state.idx.offset == 24

    @pytest.mark.parametrize("kind, ctype", [
        ("i64", ctypes.c_longlong), ("f64", ctypes.c_double),
        ("i64*", ctypes.c_void_p), ("f64*", ctypes.c_void_p)])
    def test_each_kind_binds_an_eight_byte_slot(self, kind, ctype):
        state, kinds, *_ = soakernel._bind_layout(_table_lib(_edit_table(
            scale=(kind, "scale", 8))))
        assert dict(state._fields_)["scale"] is ctype
        assert ctypes.sizeof(ctype) == 8
        assert kinds["scale"] == kind

    def test_a_sized_record_kind_binds_a_pointer(self):
        """A field may point at records of any kind the table sizes."""
        rows = _edit_table(vals=("Rec*", "vals", 24)) + [
            ("sizeof", "Rec", 32)]
        state, kinds, _, records = soakernel._bind_layout(_table_lib(rows))
        assert dict(state._fields_)["vals"] is ctypes.c_void_p
        assert kinds["vals"] == "Rec*"
        assert records == {"Rec": 32}

    def test_bound_state_rejects_unknown_fields(self):
        state, *_ = soakernel._bind_layout(_table_lib(_TABLE))
        st = state()
        st.idx = 4096
        assert st.idx == 4096
        with pytest.raises(AttributeError):
            st.indx = 4096

    @pytest.mark.parametrize("rows, cause", [
        (_edit_table(scale=("f32", "scale", 8)), "gives scale the kind 'f32'"),
        (_edit_table(vals=("f64*", "idx", 24)), "names idx twice"),
        (_edit_table(SOA_MAGIC=None), "lacks SOA_MAGIC$"),
        (_edit_table(magic=("i64", "guard", 0)), "lacks magic$"),
        (_edit_table(magic2=("i64", "guard", 32)), "lacks magic2$"),
        (_edit_table(SoaState=("sizeof", "SoaState", 48)),
         "sizes SoaState at 48 bytes, ctypes at 40"),
        (_edit_table(SoaState=None), "lacks the size of SoaState$"),
        (_edit_table(vals=("f64*", "vals", 16)),
         "puts vals at offset 16, ctypes at 24"),
        (_edit_table(vals=("f64*", "vals", 32),
                     magic2=("i64", "magic2", 40)),
         "puts vals at offset 32, ctypes at 24"),
        (_edit_table(scale=("f64", "scale", 4)),
         "puts scale at offset 4, ctypes at 8"),
        (_edit_table(vals=("Rec*", "vals", 24)), "gives vals the kind 'Rec[*]'"),
        (_edit_table(vals=("SoaState*", "vals", 24)),
         "gives vals the kind 'SoaState[*]'"),
        ([], "lacks the size of SoaState, SOA_MAGIC, magic, magic2$"),
    ], ids=["unknown-kind", "duplicate-name", "no-SOA_MAGIC", "no-magic",
            "no-magic2", "sizeof-disagrees", "no-sizeof", "shared-offset",
            "gap-before-a-field", "misaligned-offset", "unsized-record",
            "struct-pointer", "empty"])
    def test_a_table_ctypes_cannot_match_is_refused(self, rows, cause):
        with pytest.raises(SimulationError, match=cause):
            soakernel._bind_layout(_table_lib(rows))


class TestPerMarchState:
    """The kernel's per-march working totals live in the run's struct.
    ``soa_march()`` zeroes them on entry because every queue is empty at
    a phase boundary; each march must therefore leave them drained."""

    OCCUPANCY = ("fe_total", "iq_total", "fn_count", "fx_count",
                 "rn_count", "disp_count", "epe_count", "rp_busy_total",
                 "ce_cnt", "pn_count", "px_count")

    @pytest.mark.parametrize("maker", [higraph, graphdyns, higraph_mini],
                             ids=["HiGraph", "GraphDynS", "HiGraph-mini"])
    def test_every_march_drains_its_occupancy_totals(self, maker):
        graph = rmat(8, 6.0, seed=23, name="rmat8-23")
        sim = AcceleratorSim(maker(), graph,
                             make_algorithm("PR", iterations=3),
                             engine="soa")
        engine = sim.engine
        kernel = engine._kernel
        left = []

        def march(state_ref):
            rc = kernel.soa_march(state_ref)
            left.append({name: getattr(engine._st, name)
                         for name in self.OCCUPANCY
                         if getattr(engine._st, name)})
            return rc

        engine._kernel = types.SimpleNamespace(soa_march=march)
        sim.run(source=0)
        assert len(left) >= 3
        assert left == [{}] * len(left)


class TestThreadedRuns:
    """soa simulations on threads equal the same runs done serially:
    ctypes releases the GIL for each march, and the kernel keeps every
    piece of per-call state in the run's own struct."""

    CASES = [(maker, algorithm, seed)
             for maker in (graphdyns, higraph_mini, higraph)
             for algorithm in ("BFS", "SSSP", "PR")
             for seed in (31, 32)]

    @staticmethod
    def _run(case):
        maker, algorithm, seed = case
        graph = rmat(8, 6.0, seed=seed, name=f"rmat8-{seed}")
        result = simulate(maker(), graph,
                          make_algorithm(algorithm, **(
                              {"iterations": 3} if algorithm == "PR"
                              else {})),
                          engine="soa")
        return result.stats.to_dict(), result.properties.tobytes()

    def test_thread_pool_equals_serial(self):
        serial = [self._run(case) for case in self.CASES]
        threaded = self._on_threads(self._run, self.CASES)
        for case, want, got in zip(self.CASES, serial, threaded):
            assert got == want, case

    @staticmethod
    def _on_threads(run, jobs):
        """``run`` over ``jobs`` on four threads, in order."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the Python glue too
        try:
            with ThreadPoolExecutor(4) as pool:
                return list(pool.map(run, jobs, timeout=300))
        finally:
            sys.setswitchinterval(interval)

    def test_threads_wait_for_the_first_kernel_load(self, fresh_loader):
        """Eight soa simulators built at once over an empty kernel cache:
        the threads that arrive while the first one compiles wait for
        its kernel; none reads a half-set memo and hands its run to
        reference."""
        graph = rmat(7, 5.0, seed=17, name="rmat7-17")

        def build(_):
            return type(AcceleratorSim(higraph(), graph,
                                       _make_algorithm("BFS"),
                                       engine="soa").engine)

        assert self._on_threads(build, range(8)) == [SoaEngine] * 8

    def test_threads_sharing_one_graph(self):
        """Eight runs of one design over one graph object at once: the
        kernel only reads the graph arrays every struct points into."""
        graph = rmat(8, 6.0, seed=33, name="rmat8-33")

        def run(algorithm):
            result = simulate(higraph(), graph, _make_algorithm(algorithm),
                              engine="soa")
            return result.stats.to_dict(), result.properties.tobytes()

        jobs = ["SSSP", "PR"] * 4
        serial = [run(job) for job in jobs]
        assert self._on_threads(run, jobs) == serial

    def test_sliced_runs_on_threads(self):
        """Sliced PageRank marches one engine per slice; several sliced
        runs at once still equal the serial runs."""
        graph = rmat(8, 6.0, seed=13, name="rmat8-13")
        slices = partition_by_destination(graph, 3)

        def run(maker):
            result = SlicedAcceleratorSim(
                maker(), graph, make_algorithm("PR", iterations=3),
                slices=slices, engine="soa").run()
            return result.stats.to_dict(), result.properties.tobytes()

        jobs = [higraph, graphdyns, higraph_mini] * 2
        serial = [run(job) for job in jobs]
        assert self._on_threads(run, jobs) == serial


class TestBackendStateIsolation:
    """Regression: site-③ sink vectors must be per-instance.

    ``backend.py`` used to hand ``MdpNetworkSim.deliver`` and
    ``ArbitratedCrossbar.tick`` module-level shared *mutable* lists; a
    consumer mutation corrupted every other live simulator of the same
    width.  They are per-instance immutable tuples now.
    """

    def test_no_shared_module_state(self):
        import repro.accel.backend as backend
        assert not hasattr(backend, "_ALL_READY")
        assert not hasattr(backend, "_UNIT_BUDGET")

    def test_mdp_sink_vector_is_private_and_immutable(self):
        from repro.accel.backend import MdpPropagation
        a = MdpPropagation(higraph())
        b = MdpPropagation(higraph())
        assert a.sink_ready is not b.sink_ready
        with pytest.raises(TypeError):
            a.sink_ready[0] = False

    def test_crossbar_budget_is_private_and_immutable(self):
        from repro.accel.backend import CrossbarPropagation
        a = CrossbarPropagation(graphdyns())
        b = CrossbarPropagation(graphdyns())
        assert a.unit_budget is not b.unit_budget
        with pytest.raises(TypeError):
            a.unit_budget[0] = 0

    def test_two_interleaved_sims_do_not_alias(self):
        """Interleaving two live simulators must equal running each
        alone — the historical failure mode of the shared vectors."""
        graph = rmat(7, 5.0, seed=21, name="rmat7-21")
        solo = [simulate(higraph(), graph, _make_algorithm("BFS"),
                         engine="reference").stats.to_dict(),
                simulate(graphdyns(), graph, _make_algorithm("BFS"),
                         engine="reference").stats.to_dict()]
        sims = [AcceleratorSim(higraph(), graph, _make_algorithm("BFS"),
                               engine="reference"),
                AcceleratorSim(graphdyns(), graph, _make_algorithm("BFS"),
                               engine="reference")]
        # poke one sim's sink vector usage by running them turn-about
        results = [sim.run(source=0).stats.to_dict() for sim in sims]
        assert results == solo
