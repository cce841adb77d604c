"""Tests for accelerator configurations (Table 1) and the Fig. 7 layout."""

import pytest

from repro.accel import (
    AcceleratorConfig,
    ablation,
    fig7_layout,
    graphdyns,
    higraph,
    higraph_mini,
)
from repro.accel.config import MB, _compatible_radix
from repro.errors import ConfigError


class TestTable1Presets:
    def test_higraph_matches_table1(self):
        cfg = higraph()
        assert cfg.front_channels == 32
        assert cfg.back_channels == 32
        assert cfg.onchip_memory_bytes == 16 * 2**20
        assert cfg.frequency_ghz() == 1.0

    def test_higraph_mini_matches_table1(self):
        cfg = higraph_mini()
        assert cfg.front_channels == 4
        assert cfg.back_channels == 32
        assert cfg.frequency_ghz() == 1.0

    def test_graphdyns_matches_table1(self):
        cfg = graphdyns()
        assert cfg.front_channels == 4
        assert cfg.back_channels == 32
        assert cfg.onchip_memory_bytes == 32 * 2**20
        assert cfg.offset_site == "crossbar"
        assert cfg.edge_site == "central"
        assert cfg.propagation_site == "crossbar"
        assert cfg.frequency_ghz() == pytest.approx(1.0, abs=1e-9)

    def test_all_presets_run_at_1ghz(self):
        """Table 1: every configuration is clocked at 1 GHz."""
        for cfg in (higraph(), higraph_mini(), graphdyns()):
            assert cfg.frequency_ghz() == pytest.approx(1.0, abs=1e-9)

    def test_ideal_throughput_32_gteps(self):
        """Fig. 9: 'The ideal throughput is 32 GTEPS.'"""
        assert higraph().ideal_gteps() == pytest.approx(32.0)

    def test_graphdyns_beyond_64_channels_loses_frequency(self):
        """Fig. 11: GraphDynS 'does not support more than 64 channels
        due to significant frequency decline'."""
        assert graphdyns(back_channels=64).frequency_ghz() < 0.8
        assert graphdyns(back_channels=128).frequency_ghz() < 0.55

    def test_higraph_scales_to_256_channels_at_1ghz(self):
        """§5.3: HiGraph's critical path stays under 1 ns up to 256
        channels (0.93 ns -> 0.97 ns)."""
        for ch in (32, 64, 128, 256):
            assert higraph(back_channels=ch).frequency_ghz() == 1.0


class TestAblationConfigs:
    def test_baseline_has_no_mdp(self):
        cfg = ablation()
        assert cfg.name == "Baseline"
        assert (cfg.offset_site, cfg.edge_site, cfg.propagation_site) == (
            "crossbar", "central", "crossbar")

    def test_opt_flags_rename_and_rewire(self):
        cfg = ablation(opt_o=True)
        assert cfg.name == "OPT-O"
        assert cfg.offset_site == "mdp"
        cfg = ablation(opt_o=True, opt_e=True)
        assert cfg.name == "OPT-O+E"
        assert cfg.edge_site == "mdp"
        cfg = ablation(opt_o=True, opt_e=True, opt_d=True)
        assert cfg.name == "OPT-O+E+D"
        assert cfg.propagation_site == "mdp"

    def test_full_ablation_equals_higraph_sites(self):
        full = ablation(opt_o=True, opt_e=True, opt_d=True)
        hi = higraph()
        assert (full.offset_site, full.edge_site, full.propagation_site) == (
            hi.offset_site, hi.edge_site, hi.propagation_site)


class TestValidation:
    def test_bad_site_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(offset_site="magic")

    def test_mdp_site_requires_power_of_radix(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(front_channels=12, offset_site="mdp")

    def test_crossbar_site_allows_any_count(self):
        AcceleratorConfig(front_channels=12, offset_site="crossbar",
                          back_channels=32)

    def test_dispatcher_group_must_divide_channels(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(back_channels=32, dispatcher_group=5)

    def test_fifo_depth_at_least_radix(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(fifo_depth=1)

    def test_radix4_requires_power_of_4(self):
        AcceleratorConfig(front_channels=16, back_channels=16, radix=4,
                          dispatcher_group=4)
        with pytest.raises(ConfigError):
            AcceleratorConfig(front_channels=32, back_channels=32, radix=4)

    def test_with_updates(self):
        cfg = higraph().with_(fifo_depth=64)
        assert cfg.fifo_depth == 64
        assert cfg.name == "HiGraph"


class TestPresetOverrides:
    """A preset validates its defaults and overrides together, so an
    override may make a geometry valid that the defaults alone reject."""

    def test_graphdyns_with_six_back_channels(self):
        assert graphdyns(back_channels=6, dispatcher_group=3) == (
            AcceleratorConfig(name="GraphDynS", front_channels=4,
                              back_channels=6, dispatcher_group=3,
                              offset_site="crossbar", edge_site="central",
                              propagation_site="crossbar",
                              onchip_memory_bytes=32 * MB))

    def test_higraph_at_radix_three(self):
        assert higraph(front_channels=9, back_channels=9, radix=3,
                       dispatcher_group=3) == AcceleratorConfig(
            name="HiGraph", front_channels=9, back_channels=9, radix=3,
            dispatcher_group=3, onchip_memory_bytes=16 * MB)

    def test_ablation_and_mini_take_geometry_overrides(self):
        assert ablation(opt_o=True, front_channels=9, back_channels=9,
                        radix=3, dispatcher_group=3).radix == 3
        assert higraph_mini(front_channels=9, back_channels=9, radix=3,
                            dispatcher_group=3).front_channels == 9

    @pytest.mark.parametrize("overrides", [
        dict(), dict(fifo_depth=64), dict(name="other"),
        dict(back_channels=16, dispatcher_group=2)])
    def test_valid_calls_build_the_same_configs(self, overrides):
        """Merging the overrides moves no config (and no cache key)."""
        base = AcceleratorConfig(name="HiGraph", front_channels=32,
                                 onchip_memory_bytes=16 * MB)
        assert higraph(**overrides) == base.with_(**overrides)
        assert (higraph(**overrides).config_hash()
                == base.with_(**overrides).config_hash())

    @pytest.mark.parametrize("make", [
        lambda: graphdyns(back_channels=6),
        lambda: higraph(radix=3),
        lambda: higraph_mini(dispatcher_group=5),
        lambda: ablation(opt_d=True, back_channels=12),
    ], ids=["graphdyns", "higraph", "higraph-mini", "ablation"])
    def test_invalid_override_still_raises(self, make):
        with pytest.raises(ConfigError):
            make()


class TestDispatcherGeometry:
    """An MDP edge stage wires a range network over its dispatchers, so
    their count must be a power of some radix up to the configured one."""

    @pytest.mark.parametrize("back_channels, radix", [
        (12, 2), (48, 2), (24, 4)], ids=["3@2", "12@2", "6@4"])
    def test_unwirable_dispatcher_count_rejected(self, back_channels, radix):
        with pytest.raises(ConfigError, match="num_dispatchers"):
            AcceleratorConfig(front_channels=4, back_channels=back_channels,
                              radix=radix, propagation_site="crossbar")

    def test_central_edge_site_needs_no_network(self):
        cfg = AcceleratorConfig(front_channels=4, back_channels=12,
                                edge_site="central",
                                propagation_site="crossbar")
        assert cfg.num_dispatchers == 3

    def test_compatible_radix_only_returns_a_fitting_radix(self):
        def fits(positions, r):
            return any(r ** e == positions for e in range(1, positions))

        for positions in range(1, 65):
            for radix in range(2, 9):
                fitting = [r for r in range(2, radix + 1)
                           if fits(positions, r)]
                if positions < 2:
                    assert _compatible_radix(positions, radix) is None
                elif fitting:
                    assert _compatible_radix(positions, radix) == max(fitting)
                else:
                    with pytest.raises(ConfigError, match="num_dispatchers"):
                        _compatible_radix(positions, radix)


class TestFieldValidation:
    def test_zero_dispatcher_group_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(dispatcher_group=0)

    def test_zero_central_issue_limit_rejected(self):
        """0 used to silently mean "unset" via ``or``; now it is an error."""
        with pytest.raises(ConfigError):
            AcceleratorConfig(central_issue_limit=0)

    def test_none_central_issue_limit_defaults_to_front_channels(self):
        cfg = AcceleratorConfig(central_issue_limit=None)
        assert cfg.issue_limit == cfg.front_channels

    def test_nonpositive_memory_rejected(self):
        with pytest.raises(ConfigError):
            AcceleratorConfig(onchip_memory_bytes=0)

    @pytest.mark.parametrize("ghz", [0.0, -1.0, float("inf"), float("nan")])
    def test_degenerate_target_frequency_rejected(self, ghz):
        with pytest.raises(ConfigError):
            AcceleratorConfig(target_frequency_ghz=ghz)


class TestHashingEquality:
    def test_equal_configs_hash_equal(self):
        assert higraph() == higraph()
        assert hash(higraph()) == hash(higraph())
        assert higraph().config_hash() == higraph().config_hash()

    def test_field_change_changes_hash(self):
        base = higraph()
        for variant in (base.with_(fifo_depth=80),
                        base.with_(radix=4, front_channels=16,
                                   back_channels=16, dispatcher_group=4),
                        base.with_(vertex_combining=False)):
            assert variant != base
            assert variant.config_hash() != base.config_hash()

    def test_name_participates_in_hash(self):
        """Cached stats carry config_name, so a rename is a new identity."""
        assert higraph().with_(name="other").config_hash() != higraph().config_hash()

    def test_config_hash_is_stable_across_processes(self):
        """sha256 over canonical JSON, not salted builtin hash()."""
        import subprocess
        import sys
        code = ("from repro.accel import higraph; "
                "print(higraph().config_hash())")
        out = subprocess.run([sys.executable, "-c", code], text=True,
                             capture_output=True, check=True).stdout.strip()
        assert out == higraph().config_hash()

    def test_to_dict_round_trips(self):
        cfg = graphdyns(fifo_depth=42)
        assert AcceleratorConfig(**cfg.to_dict()) == cfg


class TestFig7Layout:
    def test_arrays_match_paper_megabytes(self):
        rows = {r["array"]: r for r in fig7_layout()}
        assert rows["Edge Array"]["model_mb"] == pytest.approx(9.5, abs=0.05)
        assert rows["Edge Info Array"]["model_mb"] == pytest.approx(2.0, abs=0.05)
        assert rows["Offset Array"]["model_mb"] == pytest.approx(1.4, abs=0.05)
        assert rows["Property Array"]["model_mb"] == pytest.approx(1.2, abs=0.05)
        assert rows["ActiveVertex + tProperty Array"]["model_mb"] == pytest.approx(
            2.4, abs=0.05)

    def test_total_fits_16mb(self):
        total = sum(r["model_mb"] for r in fig7_layout())
        assert total <= 16.7   # paper rounds the same way
