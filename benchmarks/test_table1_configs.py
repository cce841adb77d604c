"""Table 1 — configurations used for HiGraph and baselines.

Regenerates the configuration table and checks the frequency column:
every design synthesizes to the 1 GHz target at its Table 1 geometry.
"""


def test_table1_configurations(section):
    rows = section("table1_configs")

    by_name = {r["design"]: r for r in rows}
    assert by_name["HiGraph"]["front_channels"] == 32
    assert by_name["HiGraph-mini"]["front_channels"] == 4
    assert by_name["GraphDynS"]["front_channels"] == 4
    for r in rows:
        assert r["back_channels"] == 32
        assert abs(r["frequency_ghz"] - 1.0) < 1e-9
    assert by_name["GraphDynS"]["onchip_memory_mb"] == 32
    assert by_name["HiGraph"]["onchip_memory_mb"] == 16
