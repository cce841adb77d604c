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
