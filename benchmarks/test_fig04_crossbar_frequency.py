"""Fig. 4 — frequency versus number of crossbar ports.

The paper's synthesis sweep shows frequency collapsing as crossbar port
count grows, the design-centralization motivation.  Regenerated from the
calibrated timing model.
"""


def test_fig4_frequency_vs_ports(section):
    rows = section("fig04_crossbar_frequency")

    freqs = {r["ports"]: r["frequency_ghz"] for r in rows}
    # paper anchor points
    assert abs(freqs[4] - 2.23) < 0.1
    assert abs(freqs[32] - 1.00) < 0.02
    assert abs(freqs[256] - 0.30) < 0.03
    # monotonic sharp decline
    ordered = [freqs[p] for p in (4, 8, 16, 32, 64, 128, 256)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    assert ordered[0] / ordered[-1] > 7
