"""Back-end dataflow propagation (conflict site ③) and the PE arrays.

After an ePE computes ``Imm = Process_Edge(u.prop, e.weight)``, the
``(v.ID, Imm)`` record must reach vPE ``v mod m``, which owns the
tProperty bank.  The paper deploys the original MDP-network here
(§4.3); GraphDynS uses an arbitrated crossbar.  Both are wrapped in a
common per-cycle protocol:

* ``tick_deliver()`` — pop at most one record per vPE (the vPE always
  consumes: `Reduce` is single-cycle into its own bank), advancing the
  network's internal stages.
* ``offer(channel, dest, payload)`` — an ePE injects a record.
"""

from __future__ import annotations

from repro.accel.config import AcceleratorConfig
from repro.hw.crossbar import ArbitratedCrossbar
from repro.mdp.network import MdpNetworkSim

# The always-ready sink vector and the unit acceptance budget are
# per-instance immutable tuples.  They used to be module-level shared
# *mutable* lists keyed by m — any consumer mutation (or future
# threaded use) would have corrupted every other live simulator with
# the same back-end width.


class MdpPropagation:
    """HiGraph site ③: the original MDP-network (§4.3).

    When vertex combining is enabled, same-vertex ``(v, Imm, count)``
    records merge in FIFO tails at *every* stage — combining compounds
    multiplicatively along the path to a hot vPE.
    """

    def __init__(self, config: AcceleratorConfig, combine_fn=None) -> None:
        self.m = config.back_channels
        self.net = MdpNetworkSim(self.m, config.radix, config.fifo_depth,
                                 combine_fn=combine_fn)
        #: per-instance, immutable: the vPEs always consume (Reduce is
        #: single-cycle into a private bank)
        self.sink_ready = (True,) * self.m

    def tick_deliver(self):
        delivered = self.net.deliver(self.sink_ready)
        self.net.advance()
        return delivered

    def offer(self, channel: int, dest: int, payload) -> bool:
        return self.net.offer(channel, dest, payload)

    @property
    def conflicts(self) -> int:
        return self.net.stall_events + self.net.rejected_offers

    @property
    def occupancy(self) -> int:
        return self.net.occupancy


class CrossbarPropagation:
    """GraphDynS site ③: FIFO-plus-crossbar with per-output arbitration.

    Vertex combining (GraphDynS has an explicit coalescing unit) merges
    same-vertex records at the input FIFO tails — a single combining
    point, unlike the MDP-network's per-stage compounding.
    """

    def __init__(self, config: AcceleratorConfig, combine_fn=None) -> None:
        self.m = config.back_channels
        self.xbar = ArbitratedCrossbar(self.m, self.m, config.fifo_depth,
                                       combine_fn=combine_fn)
        #: per-instance, immutable: every vPE accepts one record per cycle
        self.unit_budget = (1,) * self.m

    def tick_deliver(self):
        return self.xbar.tick(self.unit_budget)

    def offer(self, channel: int, dest: int, payload) -> bool:
        return self.xbar.offer(channel, dest, payload)

    @property
    def conflicts(self) -> int:
        return self.xbar.conflicts

    @property
    def occupancy(self) -> int:
        return self.xbar.occupancy


def make_propagation(config: AcceleratorConfig, combine_fn=None):
    if config.propagation_site == "mdp":
        return MdpPropagation(config, combine_fn)
    return CrossbarPropagation(config, combine_fn)


def make_vertex_combiner(reduce_fn):
    """Coalesce two ``(v, imm, count)`` records of the same vertex."""
    def combine(a, b):
        if a[0] != b[0]:
            return None
        return (a[0], reduce_fn(a[1], b[1]), a[2] + b[2])
    return combine
