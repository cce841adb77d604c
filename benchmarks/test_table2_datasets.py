"""Table 2 — benchmark datasets.

Regenerates the dataset table: paper sizes next to the generated
stand-ins at both full registry size and the harness bench scale.
"""

from repro.graph import DATASET_ORDER, TABLE2


def test_table2_datasets(section):
    rows = section("table2_datasets")

    for row in rows:
        spec = TABLE2[row["name"]]
        # mean degree (the structural knob) is preserved within 5%
        assert abs(row["bench_degree"] - spec.mean_degree) / spec.mean_degree < 0.05
    assert {r["name"] for r in rows} == set(DATASET_ORDER)
