"""Ablation — the "trading latency for throughput" premise itself (§2.2).

The paper's opportunity statement: "increasing the traversal latency of
a single edge does not pose significant impact on overall performance"
— *because the execution channel is highly pipelined and busy*.  This
ablation probes both sides of the trade:

* a **latency-bound** workload (BFS on a long chain: the frontier is a
  single vertex, so every iteration costs one full pipeline traversal
  and the MDP-network's log2(m) extra stages are exposed), and
* a **throughput-bound** workload (PR on R-MAT: channels stay busy, the
  extra stages vanish into the pipeline and the conflict reduction
  wins).

Both pairs run as sweep jobs (``latency_ablation_jobs``), so the bench
shards/caches like every other figure.
"""


def test_latency_vs_throughput_tradeoff(section):
    rows = section("ablation_latency")

    by = {(r["workload"], r["design"]): r for r in rows}
    lat_hi = by[("chain-BFS (latency-bound)", "HiGraph")]
    lat_gd = by[("chain-BFS (latency-bound)", "GraphDynS")]
    thr_hi = by[("R14-PR (throughput-bound)", "HiGraph")]
    thr_gd = by[("R14-PR (throughput-bound)", "GraphDynS")]

    # the latency cost is real: HiGraph pays extra per-iteration cycles
    # on the serial frontier (multi-stage networks at all three sites)
    assert lat_hi["cycles_per_iteration"] >= lat_gd["cycles_per_iteration"]
    # but on the pipelined workload the trade pays off decisively
    assert thr_hi["gteps"] > thr_gd["gteps"] * 1.2
