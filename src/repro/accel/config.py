"""Accelerator configurations (paper Table 1) and ablation toggles.

=================  ========  ============  =========
(Table 1)          HiGraph   HiGraph-mini  GraphDynS
=================  ========  ============  =========
Frequency          1 GHz     1 GHz         1 GHz
Front-end channels 32        4             4
Back-end channels  32        32            32
On-chip memory     16 MB     16 MB         32 MB
=================  ========  ============  =========

GraphDynS keeps four front-end channels because "a larger number would
give rise to frequency decline due to the delicate arbitration in
reading Offset Array" (§5.1); HiGraph's MDP-network removes that limit.

The three conflict sites are individually selectable so the Fig. 10
ablation (Opt-O / Opt-E / Opt-D) falls out of the same machinery:

* ``offset_site``:      "crossbar" (baseline) or "mdp" (Opt-O)
* ``edge_site``:        "central"  (baseline) or "mdp" (Opt-E)
* ``propagation_site``: "crossbar" (baseline) or "mdp" (Opt-D)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError
from repro.hw.timing import design_frequency_ghz

#: Fig. 7 design capacity: vertex ids are 19 bits, so the Property /
#: tProperty / ActiveVertex arrays are provisioned for 2**19 vertices,
#: and the Edge Array for 2**22 edges (9.5 MB at 19 bits/entry).
DESIGN_MAX_VERTICES = 1 << 19
DESIGN_MAX_EDGES = 1 << 22
DESIGN_ID_BITS = 19
DESIGN_WEIGHT_BITS = 4
DESIGN_OFFSET_BITS = 22

MB = 1 << 20

_OFFSET_SITES = ("crossbar", "mdp")
_EDGE_SITES = ("central", "mdp")
_PROPAGATION_SITES = ("crossbar", "mdp")


@dataclass(frozen=True)
class AcceleratorConfig:
    """Structural parameters of one simulated accelerator."""

    name: str = "HiGraph"
    front_channels: int = 32            # n: ActiveVertex / Offset Array parts
    back_channels: int = 32             # m: Edge / tProperty parts, ePE/vPE count
    offset_site: str = "mdp"
    edge_site: str = "mdp"
    propagation_site: str = "mdp"
    radix: int = 2                      # MDP-network FIFO write-port count (§5.4)
    fifo_depth: int = 160               # per-channel buffer entries (Fig. 12)
    issue_queue_depth: int = 4          # per-channel offset issue queue
    fe_out_depth: int = 8               # {Off, Len} queue per front-end channel
    dispatcher_group: int = 4           # consecutive banks per Dispatcher (Fig. 6)
    dispatcher_queue_depth: int = 8
    epe_queue_depth: int = 8            # per-ePE input records
    replay_queue_depth: int = 4
    #: Coalesce same-vertex (v, Imm) records in propagation-site FIFO
    #: tails.  GraphDynS ships an explicit coalescing unit, so both the
    #: baseline and HiGraph get the feature; disable for the ablation.
    vertex_combining: bool = True
    onchip_memory_bytes: int = 16 * MB

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.offset_site not in _OFFSET_SITES:
            raise ConfigError(f"offset_site must be one of {_OFFSET_SITES}")
        if self.edge_site not in _EDGE_SITES:
            raise ConfigError(f"edge_site must be one of {_EDGE_SITES}")
        if self.propagation_site not in _PROPAGATION_SITES:
            raise ConfigError(f"propagation_site must be one of {_PROPAGATION_SITES}")
        if self.front_channels < 1 or self.back_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.radix < 2:
            raise ConfigError("radix must be >= 2")
        if self.fifo_depth < self.radix:
            raise ConfigError("fifo_depth must be >= radix")
        if self.dispatcher_group < 1:
            raise ConfigError(
                f"dispatcher_group must be >= 1, got {self.dispatcher_group}")
        if self.back_channels % self.dispatcher_group:
            raise ConfigError(
                f"back_channels {self.back_channels} not divisible by "
                f"dispatcher_group {self.dispatcher_group}")
        for attr in ("issue_queue_depth", "fe_out_depth", "dispatcher_queue_depth",
                     "epe_queue_depth", "replay_queue_depth"):
            if getattr(self, attr) < 1:
                raise ConfigError(f"{attr} must be >= 1")
        if self.onchip_memory_bytes < 1:
            raise ConfigError("onchip_memory_bytes must be >= 1")
        if self.offset_site == "mdp":
            _require_power(self.front_channels, self.radix, "front_channels")
        if self.propagation_site == "mdp":
            _require_power(self.back_channels, self.radix, "back_channels")
        if self.edge_site == "mdp":
            # the range network over the dispatchers must be wirable
            _compatible_radix(self.num_dispatchers, self.radix)

    # ------------------------------------------------------------------
    @property
    def num_dispatchers(self) -> int:
        return self.back_channels // self.dispatcher_group

    def frequency_ghz(self) -> float:
        """Design frequency: slowest interconnect structure, capped at
        the 1 GHz target (see :mod:`repro.hw.timing`)."""
        crossbar_ports = 0
        if self.offset_site == "crossbar":
            crossbar_ports = max(crossbar_ports, self.front_channels)
        if self.propagation_site == "crossbar":
            crossbar_ports = max(crossbar_ports, self.back_channels)
        if self.edge_site == "central":
            # the in-order window allocator spans all back-end banks
            crossbar_ports = max(crossbar_ports, self.back_channels)
        mdp_channels = 0
        if self.offset_site == "mdp":
            mdp_channels = max(mdp_channels, self.front_channels)
        if self.propagation_site == "mdp":
            mdp_channels = max(mdp_channels, self.back_channels)
        if self.edge_site == "mdp":
            mdp_channels = max(mdp_channels, self.num_dispatchers)
        return design_frequency_ghz(
            crossbar_ports=crossbar_ports if crossbar_ports >= 2 else None,
            mdp_channels=mdp_channels if mdp_channels >= 2 else None,
            mdp_radix=self.radix,
        )

    def ideal_gteps(self) -> float:
        """One edge per back-end channel per cycle (paper: 32 GTEPS)."""
        return self.back_channels * self.frequency_ghz()

    def with_(self, **kwargs) -> "AcceleratorConfig":
        """Functional update (convenience wrapper over dataclasses.replace)."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """All fields as a plain JSON-serializable dict, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def config_hash(self) -> str:
        """Stable content hash of the full configuration.

        Every field participates — including ``name``, because cached
        :class:`~repro.accel.stats.SimStats` carry ``config_name`` and a
        rename must not resurface stats under the old label.  The hash is
        stable across processes and Python versions (canonical JSON, not
        ``hash()``, which is salted per interpreter run).

        Computed once per instance and kept in its ``__dict__`` (outside
        the fields, so equality, ``hash()`` and ``replace`` ignore it).
        Never memoize by value: ``higraph(vertex_combining=1)`` equals
        ``higraph()`` and has the same ``hash()``, yet its JSON differs.
        """
        digest = self.__dict__.get("_config_hash")
        if digest is None:
            payload = json.dumps(self.to_dict(), sort_keys=True,
                                 separators=(",", ":"))
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self.__dict__["_config_hash"] = digest
        return digest


def _is_power(value: int, base: int) -> bool:
    while value > 1 and value % base == 0:
        value //= base
    return value == 1


def _require_power(value: int, base: int, what: str) -> None:
    if not _is_power(value, base):
        raise ConfigError(
            f"{what}={value} must be a power of radix {base} for an MDP site")


def _compatible_radix(positions: int, radix: int) -> int | None:
    """Largest r <= radix for which ``positions`` is an exact power: the
    radix of the MDP edge stage's range network over its dispatchers.

    Returns None when positions < 2 (a single dispatcher needs no
    network at all); raises ConfigError when no such r exists.
    """
    if positions < 2:
        return None
    for r in range(min(radix, positions), 1, -1):
        if _is_power(positions, r):
            return r
    raise ConfigError(
        f"num_dispatchers={positions} (back_channels / dispatcher_group) "
        f"must be a power of some radix 2..{radix} for an MDP edge site")


# ----------------------------------------------------------------------
# Table 1 presets
# ----------------------------------------------------------------------

# Each preset validates once, with its overrides merged into its
# defaults: a geometry valid only after the overrides (say
# back_channels=6 with dispatcher_group=3) must not be checked without
# them first.

def higraph(back_channels: int = 32, **overrides) -> AcceleratorConfig:
    """HiGraph: 32 front-end channels, MDP-network at all three sites."""
    return AcceleratorConfig(**{
        "name": "HiGraph", "front_channels": 32,
        "back_channels": back_channels, "onchip_memory_bytes": 16 * MB,
        **overrides})


def higraph_mini(**overrides) -> AcceleratorConfig:
    """HiGraph-mini: HiGraph with GraphDynS's four front-end channels."""
    return AcceleratorConfig(**{
        "name": "HiGraph-mini", "front_channels": 4, "back_channels": 32,
        "onchip_memory_bytes": 16 * MB, **overrides})


def graphdyns(back_channels: int = 32, **overrides) -> AcceleratorConfig:
    """GraphDynS baseline: centralized arbitration at every site.

    Four front-end channels ("a larger number would give rise to
    frequency decline"), in-order window allocation for the Edge Array,
    arbitrated crossbar for dataflow propagation, 32 MB on-chip memory.
    """
    return AcceleratorConfig(**{
        "name": "GraphDynS", "front_channels": 4,
        "back_channels": back_channels, "offset_site": "crossbar",
        "edge_site": "central", "propagation_site": "crossbar",
        "onchip_memory_bytes": 32 * MB, **overrides})


def ablation(opt_o: bool = False, opt_e: bool = False, opt_d: bool = False,
             front_channels: int = 32, back_channels: int = 32,
             **overrides) -> AcceleratorConfig:
    """Fig. 10 ablation configs.

    The baseline is the HiGraph pipeline with **no** MDP-networks
    (centralized arbitration everywhere; at 32 channels every structure
    still meets the 1 GHz target, so Fig. 10 compares cycle counts, as
    the paper does); Opt-O / Opt-E / Opt-D switch the three sites to MDP
    one by one.
    """
    parts = []
    if opt_o:
        parts.append("O")
    if opt_e:
        parts.append("E")
    if opt_d:
        parts.append("D")
    name = "Baseline" if not parts else "OPT-" + "+".join(parts)
    return AcceleratorConfig(**{
        "name": name,
        "front_channels": front_channels,
        "back_channels": back_channels,
        "offset_site": "mdp" if opt_o else "crossbar",
        "edge_site": "mdp" if opt_e else "central",
        "propagation_site": "mdp" if opt_d else "crossbar",
        **overrides})


def fig7_layout(config: AcceleratorConfig | None = None) -> list[dict]:
    """Paper Fig. 7 on-chip layout: array capacities of the design.

    Computed from the 19-bit design point (2**19 vertices, 2**22 edges):
    Edge Array 9.5 MB, Edge Info ~2 MB, Offset ~1.4 MB, Property
    ~1.2 MB, ActiveVertex + tProperty ~2.4 MB.
    """
    v, e = DESIGN_MAX_VERTICES, DESIGN_MAX_EDGES

    def mb(bits: int) -> float:
        return bits / 8 / MB

    rows = [
        {"array": "Edge Array", "paper_mb": 9.5,
         "model_mb": mb(e * DESIGN_ID_BITS)},
        {"array": "Edge Info Array", "paper_mb": 2.0,
         "model_mb": mb(e * DESIGN_WEIGHT_BITS)},
        {"array": "Offset Array", "paper_mb": 1.4,
         "model_mb": mb(v * DESIGN_OFFSET_BITS)},
        {"array": "Property Array", "paper_mb": 1.2,
         "model_mb": mb(v * DESIGN_ID_BITS)},
        # ActiveVertex (19-bit ids) + tProperty (19-bit values): 2 x 1.19 MB
        {"array": "ActiveVertex + tProperty Array", "paper_mb": 2.4,
         "model_mb": mb(v * DESIGN_ID_BITS) + mb(v * DESIGN_ID_BITS)},
    ]
    return rows
