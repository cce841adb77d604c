"""Fig. 11 — throughput versus number of back-end channels (PR / R14).

Paper: GraphDynS cannot scale past 64 channels (frequency decline, Fig.
4); HiGraph synthesizes at 1 GHz from 32 to 256 channels (critical path
0.93 ns -> 0.97 ns) and its throughput keeps growing.
"""


def test_fig11_backend_channel_scaling(section):
    rows = section("fig11_scalability")

    hi = {r["back_channels"]: r for r in rows if r["design"] == "HiGraph"}
    gd = {r["back_channels"]: r for r in rows if r["design"] == "GraphDynS"}

    # HiGraph holds 1 GHz at every size and throughput grows monotonically
    for ch, row in hi.items():
        assert row["frequency_ghz"] == 1.0, ch
    assert hi[64]["gteps"] > hi[32]["gteps"]
    assert hi[128]["gteps"] > hi[64]["gteps"]
    assert hi[256]["gteps"] >= hi[128]["gteps"] * 0.95  # tail may saturate

    # GraphDynS loses frequency at 64 ports and gains little
    assert gd[64]["frequency_ghz"] < 0.8
    assert gd[64]["gteps"] < gd[32]["gteps"] * 1.4

    # HiGraph's scalability is decisively better at 64 channels
    assert hi[64]["gteps"] > gd[64]["gteps"] * 1.5
