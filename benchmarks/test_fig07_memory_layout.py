"""Fig. 7 — layout of HiGraph (on-chip array capacities).

The 19-bit design point (2^19 vertices, 2^22 edges) reproduces the
megabyte figures printed on the paper's floorplan.
"""


def test_fig7_memory_layout(section):
    rows = section("fig07_memory_layout")

    for row in rows:
        assert abs(row["model_mb"] - row["paper_mb"]) <= 0.06, row["array"]
    total = sum(r["model_mb"] for r in rows)
    assert total <= 16.7   # the 16 MB budget (paper rounds per-array)
