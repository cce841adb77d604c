"""Tests for the benchmark harness, figure runners and report builder."""

import numpy as np
import pytest

from repro.accel import higraph
from repro.bench import (
    BENCH_PR_ITERATIONS,
    DEFAULT_BENCH_SCALES,
    FIG12_BUFFER_SIZES,
    SECTIONS,
    bench_graph_spec,
    bench_scale,
    build_report,
    collect_results,
    format_table,
    matrix_jobs,
    paper_configs,
)
from repro.bench.figures import (
    FIGURE_DATASET,
    LATENCY_CHAIN,
    combining_ablation_jobs,
    fig10_jobs,
    fig11_jobs,
    fig12_jobs,
    latency_ablation_jobs,
    sec54_radix_jobs,
    slicing_jobs,
)
from repro.bench.harness import bench_algorithm_entry
from repro.bench.regen import RegenContext
from repro.errors import GenerationError
from repro.graph import DATASET_ORDER, chain
from repro.graph.datasets import SCALE_ENV_VAR
from repro.sweep import run_sweep


def _matrix(jobs=1, cache=None, **kw):
    """(algorithm, dataset, config) -> stats of a swept matrix."""
    outcome = run_sweep(matrix_jobs(**kw), num_workers=jobs, cache=cache)
    return {(job.tags["algorithm"], job.tags["graph"], job.tags["config"]):
            stats for job, stats in zip(outcome.jobs, outcome.stats)}


class TestHarness:
    def test_default_scales_cover_all_datasets(self):
        assert set(DEFAULT_BENCH_SCALES) == set(DATASET_ORDER)

    def test_bench_scale_env_override(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "0.5")
        assert bench_scale("R16") == 0.5
        monkeypatch.delenv(SCALE_ENV_VAR)
        assert bench_scale("R16") == DEFAULT_BENCH_SCALES["R16"]

    @pytest.mark.parametrize("raw", ["abc", "", "0,5"])
    def test_non_numeric_scale_env_names_the_variable(self, raw,
                                                      monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, raw)
        with pytest.raises(GenerationError) as info:
            bench_scale("VT")
        assert str(info.value) == \
            f"{SCALE_ENV_VAR} must be a number, got {raw!r}"

    def test_bench_graphs_have_bounded_size(self):
        for key in DATASET_ORDER:
            g = bench_graph_spec(key).load()
            assert g.num_edges <= 140_000, key

    def test_bench_pr_iterations(self):
        assert bench_algorithm_entry("PR") == (
            "PR", {"iterations": BENCH_PR_ITERATIONS})
        assert bench_algorithm_entry("BFS") == "BFS"

    def test_paper_configs_order_and_names(self):
        cfgs = paper_configs()
        assert list(cfgs) == ["GraphDynS", "HiGraph-mini", "HiGraph"]

    def test_matrix_jobs_tiny(self):
        matrix = _matrix(algorithms=("BFS",), datasets=("VT",),
                         configs={"HiGraph": higraph()})
        stats = matrix["BFS", "VT", "HiGraph"]
        assert stats.edges_processed > 0
        assert stats.gteps > 0

    def test_matrix_jobs_parallel_and_cached_identical(self, tmp_path):
        """The sweep engine must not change a single counter: serial,
        threaded and cache-hit matrices agree bit for bit."""
        kw = dict(algorithms=("BFS", "PR"), datasets=("VT",))
        serial = _matrix(**kw)
        parallel = _matrix(jobs=2, **kw)
        cached_cold = _matrix(cache=tmp_path / "cache", **kw)
        cached_warm = _matrix(cache=tmp_path / "cache", **kw)
        for key, stats in serial.items():
            for other in (parallel, cached_cold, cached_warm):
                assert other[key].to_dict() == stats.to_dict(), key

    def test_matrix_jobs_use_bench_pr_iterations(self):
        matrix = _matrix(algorithms=("PR",), datasets=("VT",),
                         configs={"HiGraph": higraph()})
        assert matrix["PR", "VT", "HiGraph"].iterations == BENCH_PR_ITERATIONS


class TestFormatting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.50" in text and "0.12" in text

    def test_format_empty(self):
        assert format_table([]) == "(no rows)\n"

    def test_format_subset_columns(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        assert "b" not in text.splitlines()[0]


class TestFigureRunners:
    @pytest.fixture()
    def build(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "0.01")
        return lambda key: RegenContext().build(SECTIONS[key])[0]

    def test_fig11_rows_structure(self, build):
        rows = build("fig11_scalability")
        designs = {r["design"] for r in rows}
        assert designs == {"GraphDynS", "HiGraph"}
        hi = [r for r in rows if r["design"] == "HiGraph"]
        assert [r["back_channels"] for r in hi] == [32, 64, 128, 256]
        for r in hi:
            assert r["frequency_ghz"] == 1.0

    def test_fig12_rows_structure(self, build):
        rows = build("fig12_buffer_size")
        assert len(rows) == 2 * len(FIG12_BUFFER_SIZES)
        assert {r["design"] for r in rows} == {"MDP-network", "FIFO+crossbar"}


#: Each figure planner and the report sections whose titles name its
#: dataset (the latency ablation's rows name it instead).
FIGURE_PLANNERS = [
    (fig10_jobs, ("fig10a_opt_throughput", "fig10b_starvation")),
    (fig11_jobs, ("fig11_scalability",)),
    (fig12_jobs, ("fig12_buffer_size",)),
    (sec54_radix_jobs, ("sec54_radix",)),
    (slicing_jobs, ("discussion_slicing",)),
    (combining_ablation_jobs, ("ablation_combining",)),
    (latency_ablation_jobs, ()),
]


class TestFigurePlanners:
    @pytest.mark.parametrize("planner, sections", FIGURE_PLANNERS,
                             ids=[p.__name__ for p, _ in FIGURE_PLANNERS])
    def test_plans_the_figure_dataset_its_titles_name(self, planner,
                                                      sections):
        """Every planner runs FIGURE_DATASET at its bench scale (the
        latency ablation adds its chain fixture), and the section titles
        built from it name that dataset."""
        specs = {job.graph for job in planner()} - {LATENCY_CHAIN}
        assert specs == {bench_graph_spec(FIGURE_DATASET)}
        for key in sections:
            assert f"{FIGURE_DATASET})" in SECTIONS[key].table_title, key

    def test_latency_chain_resolves_to_the_generated_chain(self):
        """The latency ablation plans its chain symbolically; the spec
        resolves to the arrays ``chain(256)`` builds."""
        got, want = LATENCY_CHAIN.load(), chain(256)
        assert (got.name, got.num_vertices) == (want.name, want.num_vertices)
        for arrays in ("offsets", "dst", "weights"):
            assert np.array_equal(getattr(got, arrays), getattr(want, arrays))


class TestReport:
    def test_collect_and_build(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig08_speedup.txt").write_text("fake table\n")
        found = collect_results(str(results))
        assert found == {"fig08_speedup": "fake table\n"}
        report = build_report(str(results))
        assert "Fig. 8" in report
        assert "fake table" in report
        assert "Missing sections" in report   # the rest not produced

    def test_report_of_every_section(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        for key in SECTIONS:
            (results / f"{key}.txt").write_text(f"{key} data\n")
        text = build_report(str(results))
        assert "Missing sections" not in text
        headings = [line[3:] for line in text.splitlines()
                    if line.startswith("## ")]
        assert headings == [spec.heading for spec in SECTIONS.values()]

    def test_empty_results_dir(self, tmp_path):
        report = build_report(str(tmp_path))
        assert "Missing sections" in report
