#!/usr/bin/env python3
"""Process a graph larger than the on-chip memory via slicing (§5.3).

The graph is partitioned into destination-interval slices that each fit
the configured on-chip budget; one VCPM iteration scatters the active
list once per slice, and slice replacement traffic is overlapped with
compute using double buffering.

Run:  python examples/large_graph_slicing.py
"""

import numpy as np

from repro.accel import SlicedAcceleratorSim, higraph
from repro.algorithms import SSSP, run_reference
from repro.graph import partition_for_budget, rmat


def main() -> None:
    graph = rmat(scale=12, edge_factor=32, seed=13)
    footprint = graph.memory_footprint(id_bits=19)
    print(f"graph: {graph}")
    print(f"full footprint: {footprint.total_bytes / 2**20:.2f} MiB")

    # Shrink the on-chip budget so the graph genuinely does not fit.
    budget = footprint.total_bytes // 3
    config = higraph(onchip_memory_bytes=budget)
    slices = partition_for_budget(graph, budget, id_bits=19)
    print(f"on-chip budget: {budget / 2**20:.2f} MiB -> {len(slices)} slices")
    for s in slices:
        print(f"  slice {s.index}: destinations [{s.dst_lo}, {s.dst_hi}), "
              f"{s.num_edges} edges")

    bandwidth = 64.0   # bytes/cycle off-chip
    sim = SlicedAcceleratorSim(config, graph, SSSP(), slices=slices,
                               offchip_bytes_per_cycle=bandwidth)
    result = sim.run(source=0)
    stats = result.stats

    raw_load = stats.slice_raw_load_cycles
    print()
    print(f"iterations            : {stats.iterations}")
    print(f"compute cycles        : {stats.scatter_cycles + stats.apply_cycles}")
    print(f"raw slice-load cycles : {raw_load}")
    print(f"exposed load cycles   : {stats.slice_load_cycles} "
          f"(double buffering hid "
          f"{100 * (1 - stats.slice_load_cycles / max(1, raw_load)):.0f}%)")
    print(f"throughput            : {stats.gteps:.2f} GTEPS")

    reference = run_reference(graph, SSSP(), source=0)
    assert np.array_equal(result.properties, reference.properties)
    print("verified against golden model: OK")


if __name__ == "__main__":
    main()
