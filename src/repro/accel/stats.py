"""Simulation statistics and derived metrics (GTEPS, speedup, starvation)."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import StatsSchemaError


@dataclass
class SimStats:
    """Counters accumulated over one full algorithm run."""

    config_name: str = ""
    algorithm: str = ""
    graph_name: str = ""
    frequency_ghz: float = 1.0

    iterations: int = 0
    scatter_cycles: int = 0
    apply_cycles: int = 0
    edges_processed: int = 0
    active_vertices_total: int = 0

    # conflict / utilization counters
    vpe_starvation_cycles: int = 0      # paper Fig. 10(b)
    vpe_busy_cycles: int = 0
    offset_deferrals: int = 0           # site-1 conflicts
    edge_conflicts: int = 0             # site-2 conflicts / window stalls
    propagation_conflicts: int = 0      # site-3 arbitration losses or stalls

    # slicing (large-graph mode)
    slices: int = 0
    slice_load_cycles: int = 0          # off-chip transfer not hidden by overlap
    slice_raw_load_cycles: int = 0      # all off-chip transfer, hidden or not

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return self.scatter_cycles + self.apply_cycles + self.slice_load_cycles

    @property
    def seconds(self) -> float:
        """Wall time at the design frequency."""
        return self.total_cycles / (self.frequency_ghz * 1e9)

    @property
    def gteps(self) -> float:
        """Giga-traversed-edges per second — the paper's throughput metric."""
        if self.total_cycles == 0:
            return 0.0
        return self.edges_processed * self.frequency_ghz / self.total_cycles

    @property
    def edges_per_cycle(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.edges_processed / self.total_cycles

    def speedup_over(self, baseline: "SimStats") -> float:
        """Wall-time speedup of this run relative to ``baseline``."""
        if self.seconds == 0:
            return float("inf")
        return baseline.seconds / self.seconds

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """All counter fields as a JSON-serializable dict (cache format)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        """Inverse of :meth:`to_dict`; unknown keys are rejected loudly so
        a stale cache entry from an older schema cannot half-load."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise StatsSchemaError(
                f"unknown SimStats fields: {sorted(unknown)}")
        return cls(**data)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {
            "config": self.config_name,
            "algorithm": self.algorithm,
            "graph": self.graph_name,
            "iterations": self.iterations,
            "cycles": self.total_cycles,
            "edges": self.edges_processed,
            "frequency_ghz": round(self.frequency_ghz, 3),
            "gteps": round(self.gteps, 3),
            "edges_per_cycle": round(self.edges_per_cycle, 3),
            "vpe_starvation_cycles": self.vpe_starvation_cycles,
            "offset_deferrals": self.offset_deferrals,
            "edge_conflicts": self.edge_conflicts,
            "propagation_conflicts": self.propagation_conflicts,
        }
