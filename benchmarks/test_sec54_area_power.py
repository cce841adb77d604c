"""§5.4 — area and power of MDP-network versus FIFO-plus-crossbar.

Paper: MDP-network with 160-entry buffers synthesizes to 0.375 mm² /
621.2 mW; the FIFO-plus-crossbar design with 128 entries to 0.292 mm² /
508.1 mW — "replacing crossbar with MDP-network brings little
overhead".
"""


def test_sec54_area_power(section):
    rows = section("sec54_area_power")

    for row in rows:
        assert abs(row["model_area_mm2"] - row["paper_area_mm2"]) \
            < 0.02 * row["paper_area_mm2"] + 0.002
        assert abs(row["model_power_mw"] - row["paper_power_mw"]) \
            < 0.02 * row["paper_power_mw"] + 1.0

    mdp = next(r for r in rows if r["design"] == "MDP-network")
    xbar = next(r for r in rows if r["design"] == "FIFO+crossbar")
    # "little overhead": under 30% on both axes
    assert mdp["model_area_mm2"] / xbar["model_area_mm2"] < 1.3
    assert mdp["model_power_mw"] / xbar["model_power_mw"] < 1.3
