"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "R14"
        assert args.config == "all"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--dataset", "nope"])


class TestCommands:
    def test_datasets_prints_table2(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in ("VT", "EP", "SL", "TW", "R14", "R16"):
            assert key in out
        assert "1048576" in out   # R14 edges

    def test_frequency_lookup(self, capsys):
        assert main(["frequency", "--crossbar-ports", "64"]) == 0
        out = capsys.readouterr().out
        assert "0.720 GHz" in out

    def test_frequency_mdp(self, capsys):
        assert main(["frequency", "--mdp-channels", "32"]) == 0
        out = capsys.readouterr().out
        assert "mdp(32 channels" in out

    def test_netlist_summary(self, capsys):
        assert main(["netlist", "--channels", "8", "--radix", "2"]) == 0
        out = capsys.readouterr().out
        assert "fifo_instances" in out
        assert "24" in out        # 8 channels x 3 stages

    def test_netlist_writes_verilog(self, tmp_path, capsys):
        target = tmp_path / "net.v"
        assert main(["netlist", "--channels", "4", "-o", str(target)]) == 0
        text = target.read_text()
        assert "module mdp_network_n4_r2" in text

    def test_simulate_single_config(self, capsys):
        assert main(["simulate", "--dataset", "VT", "--scale", "0.05",
                     "--algorithm", "BFS", "--config", "higraph"]) == 0
        out = capsys.readouterr().out
        assert "HiGraph" in out
        assert "gteps" in out

    def test_simulate_all_configs(self, capsys):
        assert main(["simulate", "--dataset", "VT", "--scale", "0.05",
                     "--algorithm", "PR", "--pr-iterations", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("GraphDynS", "HiGraph", "HiGraph-mini"):
            assert name in out

    @pytest.mark.parametrize("argv, problem", [
        pytest.param(argv, problem, id=" ".join(argv)) for argv, problem in [
            (["simulate", "--source", "999999"], "source 999999 out of range"),
            (["simulate", "--source", "-1"], "source -1 out of range"),
            (["simulate", "--algorithm", "FOO"], "unknown algorithm 'FOO'"),
            (["simulate", "--scale", "0"], "scale must be in (0, 1], got 0.0"),
            (["simulate", "--scale", "2"], "scale must be in (0, 1], got 2.0"),
            (["simulate", "--algorithm", "PR", "--pr-iterations", "0"],
             "PageRank iterations must be >= 1, got 0"),
            (["netlist", "--channels", "3"], "3 is not a power of 2"),
            (["netlist", "--radix", "3"], "16 is not a power of 3"),
            (["netlist", "--depth", "0"], "fifo_depth and data_width must"),
            (["netlist", "-o", "/nonexistent/dir/x.v"],
             "No such file or directory: '/nonexistent/dir/x.v'"),
            (["frequency", "--crossbar-ports", "-5"], "needs >= 2 ports"),
            (["frequency", "--mdp-channels", "-4"], "needs >= 2 channels"),
            (["frequency", "--mdp-channels", "16", "--radix", "0"],
             "radix must be >= 2, got 0"),
            (["report", "--results-dir", "{tmp}", "--section", "nope"],
             "unknown report section 'nope'"),
            (["cache", "gc", "--cache-dir", "{tmp}", "--max-age", "nan"],
             "malformed age 'nan'"),
            (["serve", "status", "--connect", "/nonexistent/repro.sock"],
             "cannot reach daemon at /nonexistent/repro.sock"),
            (["sweep", "--datasets", "NOPE"], "unknown dataset 'NOPE'"),
            (["sweep", "--configs", "nope"], "unknown config 'nope'"),
            (["sweep", "--axis", "fifo_depth"],
             "--axis expects FIELD=V1,V2,..., got 'fifo_depth'"),
            (["sweep", "--figure", "fig8", "--scale", "0.1"],
             "--scale cannot apply"),
            (["sweep", "--datasets", "VT", "--scale", "0.03", "--algorithms",
              "PR", "--pr-iterations", "-3", "--cache-dir", "{tmp}"],
             "PageRank iterations must be >= 1, got -3"),
            (["serve"], "--socket PATH is required to start a daemon"),
            (["serve", "reload"], "reload: --connect SOCKET is required"),
            (["cache", "info", "--cache-dir", "{tmp}/gone"],
             "no such cache directory: "),
            (["cache", "gc", "--cache-dir", "{tmp}"], "gc: nothing to do"),
        ]])
    def test_bad_input_exits_2_with_one_line(self, argv, problem, tmp_path,
                                             capsys):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{argv[0]} failed: ") and problem in line


class TestSweepCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_serial_no_cache(self, capsys):
        assert main(["sweep", "--datasets", "VT", "--scale", "0.03",
                     "--algorithms", "BFS", "--configs", "higraph",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 1 jobs" in out
        assert "cache hits: 0" in out

    def test_parallel_matches_serial_and_cache_warms(self, tmp_path, capsys):
        argv = ["sweep", "--datasets", "VT", "--scale", "0.03",
                "--algorithms", "BFS,PR", "--cache-dir", str(tmp_path)]
        assert main(argv + ["--jobs", "2"]) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # identical table rows regardless of workers / cache state
        table = lambda text: text.split("\n\njobs:")[0]
        assert table(cold) == table(warm)
        assert "cache hits: 6 (100%)" in warm
        assert "executed: 0" in warm

    def test_axis_expansion(self, capsys):
        assert main(["sweep", "--datasets", "VT", "--scale", "0.03",
                     "--algorithms", "BFS", "--configs", "higraph",
                     "--axis", "fifo_depth=40,160", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 jobs" in out
        assert "fifo_depth" in out

    def test_unknown_dataset_fails_cleanly(self, capsys):
        assert main(["sweep", "--datasets", "NOPE"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_unknown_config_fails_cleanly(self, capsys):
        assert main(["sweep", "--datasets", "VT", "--configs", "nope"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_malformed_axis_fails_cleanly(self, capsys):
        assert main(["sweep", "--datasets", "VT", "--axis", "fifo_depth"]) == 2
        assert "--axis expects" in capsys.readouterr().err

    _TINY = ["sweep", "--datasets", "VT", "--scale", "0.03",
             "--algorithms", "BFS", "--configs", "higraph", "--no-cache"]

    @pytest.mark.parametrize("axis, value", [
        ("fifo_depth", "160.5"), ("vertex_combining", "maybe"),
        ("fifo_depth", "abc")])
    def test_axis_value_of_another_type_fails_cleanly(self, axis, value,
                                                      capsys):
        """Named, with exit 2: not a traceback, not a guess at the
        value, not an unknown-field message."""
        assert main(self._TINY + ["--axis", f"{axis}={value}"]) == 2
        assert f"sweep axis {axis}: {value!r} is not" in \
            capsys.readouterr().err

    def test_bool_axis_takes_0_and_1(self, capsys):
        assert main(self._TINY + ["--axis", "vertex_combining=0,1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[3] for row in rows[3:5]] == ["False", "True"]

    def test_unknown_axis_field_is_named(self, capsys):
        assert main(self._TINY + ["--axis", "bogus=1"]) == 2
        assert "unknown sweep axis field(s): ['bogus']" in \
            capsys.readouterr().err

    def test_non_numeric_scale_env_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "abc")
        argv = [arg for arg in self._TINY if arg not in ("--scale", "0.03")]
        assert main(argv) == 2
        assert "REPRO_SCALE must be a number, got 'abc'" in \
            capsys.readouterr().err


class TestSweepFigure:
    def test_figure_runs_pure_section(self, capsys):
        # fig4 comes from the timing model: no sweep jobs, no cache needed
        assert main(["sweep", "--figure", "fig4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4: frequency vs crossbar ports" in out
        assert "jobs: 0" in out

    @pytest.mark.parametrize("figure, table, chart", [
        ("fig11", "Fig. 11: throughput vs back-end channels (PR, R14)",
         "GTEPS vs back-end channels"),
        ("fig4", "Fig. 4: frequency vs crossbar ports",
         "crossbar frequency (GHz) vs ports"),
    ])
    def test_figure_prints_table_and_chart(self, figure, table, chart,
                                           capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert main(["sweep", "--figure", figure, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert table in out and chart in out
        assert out.index(table) < out.index(chart)
        assert "█" in out[out.index(chart):]

    def test_figure_warms_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        argv = ["sweep", "--figure", "latency", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "executed: 4" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "executed: 0" in warm
        assert "cache hits: 4" in warm

    def test_unknown_figure_fails_cleanly(self, capsys):
        assert main(["sweep", "--figure", "fig99"]) == 2
        assert "unknown report section" in capsys.readouterr().err

    def test_figure_refuses_matrix_flags(self, capsys):
        assert main(["sweep", "--figure", "fig4", "--scale", "0.03",
                     "--datasets", "VT"]) == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "--datasets" in err
        assert "REPRO_SCALE" in err


class TestReportCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.results_dir.endswith("results")
        assert args.cache_dir is None
        assert args.jobs == 1
        assert args.section == []

    def test_list_sections(self, capsys):
        assert main(["report", "--list-sections"]) == 0
        out = capsys.readouterr().out
        assert "table1_configs" in out
        assert "fig10" in out

    def test_pure_sections_end_to_end(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(["report", "--results-dir", str(results),
                     "--section", "table1", "--section", "fig4",
                     "--section", "area"]) == 0
        out = capsys.readouterr().out
        assert "sections: 3" in out
        assert (results / "REPORT.md").exists()
        assert (results / "REPORT.provenance.json").exists()
        assert (results / "table1_configs.txt").exists()
        text = (results / "REPORT.md").read_text()
        assert "Table 1 — configurations" in text
        assert "## Provenance" in text

    def test_charts_rendered_and_embedded(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(["report", "--results-dir", str(results), "--charts",
                     "--section", "fig4", "--section", "table1"]) == 0
        chart = results / "fig04_crossbar_frequency.chart.txt"
        assert chart.exists()
        assert "█" in chart.read_text()     # bars actually rendered
        # table1 has no natural chart: no file, no crash
        assert not (results / "table1_configs.chart.txt").exists()
        report = (results / "REPORT.md").read_text()
        assert "crossbar frequency (GHz) vs ports" in report

    def test_charts_off_by_default(self, tmp_path, capsys):
        results = tmp_path / "results"
        assert main(["report", "--results-dir", str(results), "--charts",
                     "--section", "fig4"]) == 0
        # a later run without --charts leaves the chart file but omits
        # the chart blocks from the rebuilt report
        assert main(["report", "--results-dir", str(results),
                     "--section", "fig4"]) == 0
        report = (results / "REPORT.md").read_text()
        assert "crossbar frequency (GHz) vs ports" not in report

    def test_existing_chart_refreshed_without_charts_flag(self, tmp_path):
        """A chart must always derive from the same rows as its table:
        regenerating a section rewrites an existing chart file even
        when --charts is not given, so it can never go stale."""
        results = tmp_path / "results"
        assert main(["report", "--results-dir", str(results), "--charts",
                     "--section", "fig4"]) == 0
        chart = results / "fig04_crossbar_frequency.chart.txt"
        fresh = chart.read_text()
        chart.write_text("stale chart from an older cache\n")
        assert main(["report", "--results-dir", str(results),
                     "--section", "fig4"]) == 0
        assert chart.read_text() == fresh

    def test_unknown_section_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path),
                     "--section", "nope"]) == 2
        assert "unknown report section" in capsys.readouterr().err


class TestEngineFlag:
    """``--engine`` on a command that plans its own jobs reaches every
    job through the session, and leaves the environment as it was."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.accel import accelerator
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        names = []
        real = accelerator.make_engine

        def spy(name, sim):
            engine = real(name, sim)
            names.append(type(engine).__name__)
            return engine

        monkeypatch.setattr(accelerator, "make_engine", spy)
        return names

    @pytest.mark.parametrize("command", ["report", "figure"])
    def test_reference_engine_builds_only_reference(
            self, command, built, tmp_path, capsys):
        import os
        environ = dict(os.environ)
        argv = {"report": ["report", "--results-dir", str(tmp_path / "r"),
                           "--section", "latency"],
                "figure": ["sweep", "--figure", "latency"]}[command]
        assert main(argv + ["--no-cache", "--engine", "reference"]) == 0
        assert "executed: 4" in capsys.readouterr().out
        assert built == ["ReferenceEngine"] * 4
        assert dict(os.environ) == environ

    @pytest.mark.parametrize("connect", [False, True],
                             ids=["local", "connect"])
    def test_sweep_engine_belongs_to_the_executor(self, connect, built,
                                                  capsys):
        """A local ``--engine reference`` runs every job on reference;
        with ``--connect`` the daemon, which runs soa, chooses."""
        import os
        import tempfile

        from repro.serve.daemon import serve_in_thread
        argv = ["sweep", "--datasets", "VT", "--scale", "0.03",
                "--algorithms", "BFS,SSSP", "--configs", "higraph",
                "--no-cache", "--engine", "reference"]
        if connect:
            with tempfile.TemporaryDirectory(dir="/tmp",
                                             prefix="repro-serve-") as d:
                sock = os.path.join(d, "d.sock")
                with serve_in_thread(sock):
                    assert main(argv + ["--connect", sock]) == 0
        else:
            assert main(argv) == 0
        assert "executed: 2" in capsys.readouterr().out
        want = "SoaEngine" if connect else "ReferenceEngine"
        assert built == [want] * 2


class TestKernelThatCannotLoad:
    """The engine a caller names is the engine that runs: a soa kernel
    that cannot build fails the run, naming why, instead of handing it
    to the reference engine."""

    def test_simulate_exits_2_naming_the_compiler(self, tmp_path):
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, CC="false", PYTHONPATH=src,
                   REPRO_SOA_CACHE=str(tmp_path / "soa"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "simulate", "--dataset", "VT",
             "--scale", "0.03", "--algorithm", "BFS", "--config", "higraph"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        (line,) = [line for line in proc.stderr.splitlines()
                   if "failed:" in line]
        assert line.startswith("simulate failed: soa kernel unavailable: ")
        assert "false exited 1 compiling" in line
        assert "Traceback" not in proc.stderr

    def test_a_failed_load_is_memoized(self, tmp_path, monkeypatch):
        """A second soa simulation in the same process raises the same
        cause without running the compiler again."""
        from repro.accel import AcceleratorSim, higraph
        from repro.accel.engine import soakernel
        from repro.algorithms import make_algorithm
        from repro.errors import SimulationError
        from repro.graph.generators import star

        monkeypatch.setattr(soakernel, "_LIB", None)
        monkeypatch.setenv(soakernel.CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.setenv("CC", "false")
        runs = []
        real_run = soakernel.subprocess.run

        def run(argv, **kwargs):
            runs.append(argv[0])
            return real_run(argv, **kwargs)

        monkeypatch.setattr(soakernel.subprocess, "run", run)
        causes = []
        for _ in range(2):
            with pytest.raises(SimulationError) as failed:
                AcceleratorSim(higraph(), star(8), make_algorithm("BFS"),
                               engine="soa")
            causes.append(str(failed.value))
        assert "false exited 1 compiling" in causes[0]
        assert causes[1] == causes[0]
        assert runs == ["false", "false"]     # --version, then the build
        assert not any(tmp_path.rglob("*.so"))


class TestCacheCommand:
    def _warm(self, tmp_path):
        assert main(["sweep", "--datasets", "VT", "--scale", "0.03",
                     "--algorithms", "BFS", "--configs", "higraph",
                     "--cache-dir", str(tmp_path)]) == 0

    def test_info(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

    def test_gc_requires_a_budget(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_nonexistent_cache_dir_is_an_error_not_a_mkdir(self, tmp_path, capsys):
        missing = tmp_path / "typoed-cahe"
        assert main(["cache", "info", "--cache-dir", str(missing)]) == 2
        assert "no such cache directory" in capsys.readouterr().err
        assert not missing.exists()
        assert main(["cache", "gc", "--cache-dir", str(missing),
                     "--max-age", "1d"]) == 2
        assert "no such cache directory" in capsys.readouterr().err
        assert not missing.exists()

    def test_gc_by_age_and_size_units(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-age", "7d", "--max-bytes", "1G"]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-age", "0s"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_gc_dry_run(self, tmp_path, capsys):
        self._warm(tmp_path)
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0", "--dry-run"]) == 0
        assert "would remove 1" in capsys.readouterr().out
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries: 1" in capsys.readouterr().out

    def test_malformed_budgets_fail_cleanly(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-age", "sevendays"]) == 2
        assert "malformed age" in capsys.readouterr().err
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "-1"]) == 2
        assert "size must be >= 0" in capsys.readouterr().err
        for option, value, what in [("--max-bytes", "inf", "size"),
                                    ("--max-bytes", "1e400", "size"),
                                    ("--max-bytes", "nan", "size"),
                                    ("--max-age", "nan", "age")]:
            assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                         option, value]) == 2
            assert f"malformed {what} {value!r}" in capsys.readouterr().err


class TestBudgetParsers:
    def test_age_units(self):
        from repro.cli import parse_age_seconds
        assert parse_age_seconds("90") == 90
        assert parse_age_seconds("90s") == 90
        assert parse_age_seconds("2m") == 120
        assert parse_age_seconds("2h") == 7200
        assert parse_age_seconds("1d") == 86400
        assert parse_age_seconds("1w") == 604800

    def test_size_units(self):
        from repro.cli import parse_size_bytes
        assert parse_size_bytes("1024") == 1024
        assert parse_size_bytes("2K") == 2048
        assert parse_size_bytes("3M") == 3 * 1024**2
        assert parse_size_bytes("1G") == 1024**3

    def test_rejects_garbage(self):
        import pytest as _pytest
        from repro.cli import parse_age_seconds, parse_size_bytes
        with _pytest.raises(ValueError):
            parse_age_seconds("x7d")
        with _pytest.raises(ValueError):
            parse_size_bytes("")
        for text in ("inf", "-inf", "1e400", "nan", "1e306t"):
            with _pytest.raises(ValueError, match="malformed size"):
                parse_size_bytes(text)
        for text in ("inf", "nan", "1e400w"):
            with _pytest.raises(ValueError, match="malformed age"):
                parse_age_seconds(text)


class TestSharedFlags:
    """The parent parsers shared by simulate/sweep/report/serve."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--engine", "reference", "--jobs", "3",
         "--cache-dir", "/tmp/c", "--no-cache"],
        ["report", "--engine", "reference", "--jobs", "3",
         "--cache-dir", "/tmp/c", "--no-cache"],
        ["serve", "--socket", "/tmp/s.sock", "--engine", "reference",
         "--jobs", "3", "--cache-dir", "/tmp/c", "--no-cache"],
    ])
    def test_execution_flags_on_every_front_end(self, argv):
        args = build_parser().parse_args(argv)
        assert args.engine == "reference"
        assert args.jobs == 3
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache

    def test_simulate_takes_engine_only(self):
        assert build_parser().parse_args(
            ["simulate", "--engine", "reference"]).engine == "reference"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--jobs", "2"])

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-cache")
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 7
        assert args.cache_dir == "/tmp/env-cache"

    def test_explicit_flags_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-cache")
        args = build_parser().parse_args(
            ["report", "--jobs", "2", "--cache-dir", "/tmp/flag"])
        assert args.jobs == 2
        assert args.cache_dir == "/tmp/flag"

    def test_malformed_jobs_env_fails_at_parse_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "several")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_serve_requires_socket_to_start_a_daemon(self, capsys):
        # argparse accepts the bare form (the verbs need no --socket);
        # the handler rejects a daemon start without one
        assert build_parser().parse_args(["serve"]).socket is None
        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err
        args = build_parser().parse_args(["serve", "--socket", "/tmp/d.sock"])
        assert args.socket == "/tmp/d.sock"
        assert args.verb is None

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_connect_flag(self, command):
        args = build_parser().parse_args(
            [command, "--connect", "/tmp/d.sock"])
        assert args.connect == "/tmp/d.sock"
        assert build_parser().parse_args([command]).connect is None


class TestServeVerbs:
    """`repro serve reload|status --connect SOCKET` client verbs."""

    @pytest.mark.parametrize("verb", ["reload", "status"])
    def test_verbs_parse_without_socket(self, verb):
        args = build_parser().parse_args(
            ["serve", verb, "--connect", "/tmp/d.sock"])
        assert args.verb == verb
        assert args.connect == "/tmp/d.sock"

    def test_unknown_verb_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "restart"])

    @pytest.mark.parametrize("verb", ["reload", "status"])
    def test_verb_requires_connect(self, verb, capsys):
        assert main(["serve", verb]) == 2
        assert "--connect" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["reload", "status"])
    def test_unreachable_daemon_is_clear_error(self, verb, capsys):
        assert main(["serve", verb, "--connect", "/tmp/no-such.sock"]) == 2
        err = capsys.readouterr().err
        assert "cannot reach daemon" in err
