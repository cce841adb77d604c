#!/usr/bin/env python3
"""Design-space exploration: radix, buffer depth and channel count.

Walks the §5.4 design options of the MDP-network and the Fig. 11/12
axes in one script, printing a compact report that shows why the paper
settles on radix 2 and 160-entry buffers.

The three studies are planned as one sweep-job list and executed by the
sweep engine, so the whole exploration runs on worker threads and
memoizes every simulation on disk — re-running the script (or
adding one new axis value) only simulates what is new.

Run:  python examples/design_space_exploration.py [--jobs N]
                                                  [--cache-dir DIR]
"""

import argparse

from repro.accel import higraph
from repro.hw import mdp_area_mm2, mdp_critical_path_ns, mdp_power_mw
from repro.sweep import GraphSpec, plan_jobs, run_sweep

RADICES = (2, 4, 8)
DEPTHS = (8, 40, 160, 320)
CHANNELS = (32, 64, 128)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker threads (0 = one per CPU)")
    parser.add_argument("--cache-dir", default=None,
                        help="optional sweep result cache directory")
    args = parser.parse_args()

    graph = GraphSpec("R14", scale=0.0625)
    pr = ("PR", {"iterations": 2})

    # one job list, three studies: tags say which rows belong to which
    jobs = plan_jobs([pr], [graph],
                     {"radix-study": higraph(front_channels=64,
                                             back_channels=64)},
                     sweep_axes={"radix": RADICES})
    jobs += plan_jobs([pr], [graph], {"depth-study": higraph()},
                      sweep_axes={"fifo_depth": DEPTHS})
    jobs += plan_jobs([pr], [graph], {"channel-study": higraph()},
                      sweep_axes={"back_channels": CHANNELS})
    outcome = run_sweep(jobs, num_workers=args.jobs, cache=args.cache_dir)
    stats = {tuple(sorted(job.tags.items())): s
             for job, s in zip(outcome.jobs, outcome.stats)}

    def lookup(config, **tags):
        key = {"graph": "R14", "algorithm": "PR", "config": config, **tags}
        return stats[tuple(sorted(key.items()))]

    print(f"workload: PageRank(2) on R14@0.0625 — {len(jobs)} simulations, "
          f"{outcome.workers_used} workers, {outcome.cache_hits} cache hits, "
          f"{outcome.wall_seconds:.1f}s\n")

    print("== radix (64-channel network: 64 = 2^6 = 4^3 = 8^2) ==")
    print(f"{'radix':>6s} {'crit-path':>10s} {'freq':>6s} {'GTEPS':>7s}")
    for radix in RADICES:
        s = lookup("radix-study", radix=radix)
        print(f"{radix:>6d} {mdp_critical_path_ns(64, radix):>8.3f}ns "
              f"{s.frequency_ghz:>5.2f}G {s.gteps:>7.2f}")
    print("-> small radices tie; large radix re-centralizes (freq drops).\n")

    print("== per-channel FIFO depth (paper picks 160) ==")
    print(f"{'depth':>6s} {'GTEPS':>7s} {'area mm^2':>10s} {'power mW':>9s}")
    for depth in DEPTHS:
        s = lookup("depth-study", fifo_depth=depth)
        print(f"{depth:>6d} {s.gteps:>7.2f} {mdp_area_mm2(32, depth):>10.3f} "
              f"{mdp_power_mw(32, depth):>9.1f}")
    print("-> throughput saturates near 160 entries; larger buffers only "
          "cost area/power.\n")

    print("== back-end channels (HiGraph holds 1 GHz; Fig. 11) ==")
    print(f"{'chan':>6s} {'freq':>6s} {'GTEPS':>7s}")
    for channels in CHANNELS:
        s = lookup("channel-study", back_channels=channels)
        print(f"{channels:>6d} {s.frequency_ghz:>5.2f}G {s.gteps:>7.2f}")
    print("-> throughput keeps scaling because the MDP-network's critical "
          "path barely grows.")


if __name__ == "__main__":
    main()
