"""Fig. 10(b) — starvation cycles of vPE (R14).

Paper: "the number of starvation cycles reduces significantly, up to
58%.  This validates the effects of our optimizations."
"""


def test_fig10b_starvation_reduction(section):
    rows = section("fig10b_starvation")

    by_alg = {}
    for r in rows:
        by_alg.setdefault(r["algorithm"], []).append(r)

    reductions = {}
    for alg, steps in by_alg.items():
        base = steps[0]["starvation_cycles"]
        full = steps[-1]["starvation_cycles"]
        assert full < base, alg
        reductions[alg] = 1 - full / base

    # the best algorithm approaches the paper's "up to 58%" reduction
    assert max(reductions.values()) > 0.35
    # every algorithm sees a material reduction
    assert min(reductions.values()) > 0.10
