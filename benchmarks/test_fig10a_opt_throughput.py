"""Fig. 10(a) — effect of each optimization on throughput (R14).

Paper claims reproduced as shape:
* cumulative optimizations never hurt;
* "when using Opt-D in optimization, the design gains more performance
  improvement" — the propagation site contributes the largest step;
* "the optimizations in front-end part almost gain no performance
  improvement on the PR algorithm".
"""


def test_fig10a_throughput_steps(section):
    rows = section("fig10a_opt_throughput")

    by_alg = {}
    for r in rows:
        by_alg.setdefault(r["algorithm"], []).append(r)

    for alg, steps in by_alg.items():
        gteps = [s["gteps"] for s in steps]
        # cumulative opts never hurt (small tolerance for sim noise)
        for before, after in zip(gteps, gteps[1:]):
            assert after >= before * 0.97, (alg, gteps)
        # full optimization is a real improvement
        assert gteps[-1] > gteps[0] * 1.15, (alg, gteps)

    # Opt-D is the largest single step on PR
    pr = [s["gteps"] for s in by_alg["PR"]]
    step_o = pr[1] - pr[0]
    step_e = pr[2] - pr[1]
    step_d = pr[3] - pr[2]
    assert step_d >= max(step_o, step_e)
    # front-end opts ~ no gain on PR (in-order offset reads)
    assert abs(step_o) < 0.1 * pr[0] + 0.5
