"""Fig. 8 — speedup over GraphDynS.

Paper: "With the same number of front-end channels, HiGraph-mini
achieves 1.19x to 1.85x speedup over GraphDynS, and 1.46x on average.
... HiGraph achieves up to 2.23x speedup over GraphDynS (1.54x on
average)."

Shape assertions (not absolute-value pinning — the substrate differs):
HiGraph beats the baseline everywhere, never loses to HiGraph-mini
meaningfully, and the average/maximum land in the paper's band.
"""

import statistics


def test_fig8_speedup_over_graphdyns(section):
    rows = section("fig08_speedup")

    mini = [r["speedup_mini"] for r in rows]
    full = [r["speedup_higraph"] for r in rows]

    # HiGraph never loses to the baseline and wins clearly somewhere
    assert min(full) > 0.97
    assert max(full) > 1.3
    # paper band: averages around 1.4-1.6x for HiGraph
    assert 1.15 < statistics.mean(full) < 1.9
    # HiGraph-mini helps on average but less than full HiGraph
    assert statistics.mean(mini) > 1.02
    assert statistics.mean(full) >= statistics.mean(mini)
    # HiGraph >= mini per-workload (more front-end channels never hurt)
    for r in rows:
        assert r["speedup_higraph"] >= r["speedup_mini"] * 0.95, r
