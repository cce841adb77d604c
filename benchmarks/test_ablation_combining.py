"""Design-choice ablation — vertex coalescing at the propagation site.

Both simulated designs inherit GraphDynS-style update coalescing (the
DESIGN.md substitution notes).  This ablation quantifies it: without
combining, the hot tProperty bank serializes one record per cycle and
caps every interconnect; with combining, the MDP-network's per-stage
merging compresses hotspot traffic more than the crossbar's single
input-side combining point.
"""


def test_combining_ablation(section):
    rows = section("ablation_combining")

    def g(design, combining):
        return next(r["gteps"] for r in rows
                    if r["design"] == design and r["combining"] is combining)

    # combining helps both designs on a skewed graph
    assert g("HiGraph", True) > g("HiGraph", False)
    assert g("GraphDynS", True) >= g("GraphDynS", False) * 0.98
    # the MDP-network exploits combining at least as well as the crossbar
    mdp_gain = g("HiGraph", True) / max(g("HiGraph", False), 1e-9)
    xbar_gain = g("GraphDynS", True) / max(g("GraphDynS", False), 1e-9)
    assert mdp_gain >= xbar_gain * 0.9
