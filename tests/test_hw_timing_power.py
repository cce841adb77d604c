"""Tests for the Fig. 4 timing model and §5.4 area/power."""

import pytest

from repro.errors import ConfigError
from repro.hw import (
    crossbar_area_mm2,
    crossbar_critical_path_ns,
    crossbar_frequency_ghz,
    crossbar_power_mw,
    design_frequency_ghz,
    fig4_rows,
    mdp_area_mm2,
    mdp_critical_path_ns,
    mdp_frequency_ghz,
    mdp_power_mw,
    sec54_rows,
)


class TestTimingModel:
    def test_fig4_calibration_points(self):
        """The model passes through the paper's Fig. 4 anchor points."""
        assert crossbar_frequency_ghz(4) == pytest.approx(2.23, abs=0.05)
        assert crossbar_frequency_ghz(32) == pytest.approx(1.00, abs=0.01)
        assert crossbar_frequency_ghz(256) == pytest.approx(0.30, abs=0.02)

    def test_fig4_intermediate_points_on_curve(self):
        assert crossbar_frequency_ghz(8) == pytest.approx(1.7, abs=0.15)
        assert crossbar_frequency_ghz(16) == pytest.approx(1.35, abs=0.15)
        assert crossbar_frequency_ghz(64) == pytest.approx(0.75, abs=0.08)
        assert crossbar_frequency_ghz(128) == pytest.approx(0.50, abs=0.05)

    def test_frequency_declines_sharply_with_ports(self):
        freqs = [crossbar_frequency_ghz(p) for p in (4, 8, 16, 32, 64, 128, 256)]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))
        assert freqs[0] / freqs[-1] > 7     # "declines sharply" (Fig. 4)

    def test_mdp_paper_critical_paths(self):
        """§5.1: 0.93 ns at 32 channels; §5.3: 0.97 ns at 256 channels."""
        assert mdp_critical_path_ns(32, 2) == pytest.approx(0.93, abs=0.005)
        assert mdp_critical_path_ns(256, 2) == pytest.approx(0.97, abs=0.005)

    def test_mdp_meets_1ghz_up_to_256_channels(self):
        for ch in (32, 64, 128, 256):
            assert mdp_frequency_ghz(ch, 2) >= 1.0

    def test_large_radix_recentralizes(self):
        """§5.4: 'a too large radix still encounters design
        centralization' — critical path grows with radix."""
        assert mdp_critical_path_ns(32, 16) > mdp_critical_path_ns(32, 2)
        assert mdp_frequency_ghz(32, 32) < 1.0

    def test_design_frequency_caps_at_target(self):
        assert design_frequency_ghz(crossbar_ports=4) == 1.0      # never above target
        assert design_frequency_ghz(mdp_channels=256) == 1.0

    def test_design_frequency_follows_slowest_structure(self):
        f = design_frequency_ghz(crossbar_ports=64)
        assert f == pytest.approx(crossbar_frequency_ghz(64), rel=1e-12)
        f = design_frequency_ghz(crossbar_ports=64, mdp_channels=32)
        assert f == pytest.approx(crossbar_frequency_ghz(64), rel=1e-12)

    def test_fig4_rows_shape(self):
        rows = fig4_rows()
        assert [r["ports"] for r in rows] == [4, 8, 16, 32, 64, 128, 256]
        assert all(r["frequency_ghz"] == pytest.approx(1 / r["critical_path_ns"])
                   for r in rows)

    def test_invalid_ports_rejected(self):
        with pytest.raises(ConfigError):
            crossbar_critical_path_ns(1)
        with pytest.raises(ConfigError):
            mdp_critical_path_ns(32, radix=1)


class TestAreaPowerModel:
    def test_sec54_mdp_point(self):
        """Paper: MDP-network @160 entries = 0.375 mm², 621.2 mW."""
        assert mdp_area_mm2(32, 160) == pytest.approx(0.375, abs=0.002)
        assert mdp_power_mw(32, 160) == pytest.approx(621.2, abs=2.0)

    def test_sec54_crossbar_point(self):
        """Paper: FIFO+crossbar @128 entries = 0.292 mm², 508.1 mW."""
        assert crossbar_area_mm2(32, 128) == pytest.approx(0.292, abs=0.002)
        assert crossbar_power_mw(32, 128) == pytest.approx(508.1, abs=2.0)

    def test_overhead_is_small(self):
        """'replacing crossbar with MDP-network brings little overhead'
        — under 30% on both axes at the paper's buffer sizes."""
        assert mdp_area_mm2() / crossbar_area_mm2() < 1.3
        assert mdp_power_mw() / crossbar_power_mw() < 1.3

    def test_equal_buffers_make_logic_overhead_tiny(self):
        a_mdp = mdp_area_mm2(32, 128)
        a_xbar = crossbar_area_mm2(32, 128)
        assert abs(a_mdp - a_xbar) / a_xbar < 0.1

    def test_crossbar_logic_grows_quadratically(self):
        from repro.hw.power import crossbar_logic_area_mm2
        assert crossbar_logic_area_mm2(64) == pytest.approx(
            4 * crossbar_logic_area_mm2(32))

    def test_sec54_rows_match_paper(self):
        for row in sec54_rows():
            assert row["model_area_mm2"] == pytest.approx(row["paper_area_mm2"],
                                                          rel=0.02)
            assert row["model_power_mw"] == pytest.approx(row["paper_power_mw"],
                                                          rel=0.02)

    def test_bad_geometry_rejected(self):
        from repro.hw.power import buffer_area_mm2
        with pytest.raises(ConfigError):
            buffer_area_mm2(-1, 32)
