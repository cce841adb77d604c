"""Back-end Edge Array access (conflict site ②).

The access pattern is **one-to-multiple** (§4.2): one ``{Off, Len}``
request reads several consecutive interleaved banks.

* :class:`MdpEdgeStage` (HiGraph): per-channel Replay Engines divide
  ``{Off, nOff}`` into bounded, non-wrapping ``{Off, Len}`` pieces; the
  range-splitting MDP-network propagates them, halving the target range
  (and splitting lengths) each stage; Dispatchers issue the final
  consecutive-bank reads.  Independent dispatchers serve disjoint bank
  groups concurrently and out of order across requests.
* :class:`CentralEdgeStage` (GraphDynS): a single in-order window
  allocator claims bank windows for the oldest requests first; a
  request whose window overlaps an already-claimed bank blocks itself
  *and everything behind it* — the datapath conflict of Fig. 3 ②.

Both stages push ``(dst, weight, sprop)`` edge records into the
per-bank ePE input queues.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.accel.config import AcceleratorConfig, _compatible_radix
from repro.mdp.dispatcher import Dispatcher
from repro.mdp.range_network import RangeSplitNetwork
from repro.mdp.replay import ReplayEngine


class MdpEdgeStage:
    """Replay Engines -> range-splitting MDP-network -> Dispatchers.

    The range network spans ``num_dispatchers`` positions; when that
    count is not a power of the configured radix (e.g. 16 dispatchers
    with radix 8), the network falls back to the largest compatible
    radix — the radix knob of §5.4 primarily studies the offset and
    propagation networks, whose geometry always matches.
    """

    def __init__(self, config: AcceleratorConfig, dst: np.ndarray,
                 weights: np.ndarray) -> None:
        self.m = config.back_channels
        self.dst = dst
        self.weights = weights
        self.epe_depth = config.epe_queue_depth
        n = config.front_channels
        w = config.num_dispatchers
        self.replays = [ReplayEngine(self.m, config.replay_queue_depth)
                        for _ in range(n)]
        self.dispatchers = [Dispatcher(i, self.m, config.dispatcher_group,
                                       config.dispatcher_queue_depth)
                            for i in range(w)]
        net_radix = _compatible_radix(w, config.radix)
        self.net = (RangeSplitNetwork(self.m, w, net_radix, config.fifo_depth)
                    if net_radix is not None else None)
        # spread the n replay engines over the w network input positions
        self._position_of = [(ch * w) // n if n <= w else ch % w for ch in range(n)]
        self._channels_at: list[list[int]] = [[] for _ in range(w)]
        for ch, pos in enumerate(self._position_of):
            self._channels_at[pos].append(ch)
        self._rr = [0] * w

    # ------------------------------------------------------------------
    def tick(self, fe_out: list, epe_in: list[deque]) -> None:
        # 1. dispatchers issue bank reads into the ePE queues
        depth = self.epe_depth
        for disp in self.dispatchers:
            reads = disp.issue(lambda b: len(epe_in[b]) < depth)
            for bank, eidx, sprop in reads:
                epe_in[bank].append((int(self.dst[eidx]),
                                     int(self.weights[eidx]), sprop))
        # 2. network delivers pieces to dispatchers
        if self.net is not None:
            ready = [d.can_accept for d in self.dispatchers]
            for d_idx, (off, length, sprop) in self.net.deliver(ready):
                self.dispatchers[d_idx].accept(off, length, sprop)
            self.net.advance()
        # 3. replay engines emit one piece per network input position
        for pos, channels in enumerate(self._channels_at):
            if not channels:
                continue
            rr = self._rr[pos]
            for k in range(len(channels)):
                ch = channels[(rr + k) % len(channels)]
                piece = self.replays[ch].emit()
                if piece is None:
                    continue
                off, length, sprop = piece
                if self.net is not None:
                    accepted = self.net.offer(pos, off, length, sprop)
                else:
                    accepted = self.dispatchers[0].accept(off, length, sprop)
                if accepted:
                    self.replays[ch].consume()
                    self._rr[pos] = (channels.index(ch) + 1) % len(channels)
                break
        # 4. replay engines pull new {Off, Len} requests from the front end
        for ch, replay in enumerate(self.replays):
            src = fe_out[ch]
            if not src.empty and replay.can_accept:
                off, length, sprop = src.pop()
                replay.accept(off, length, sprop)

    # ------------------------------------------------------------------
    @property
    def conflicts(self) -> int:
        blocked = sum(d.blocked_cycles for d in self.dispatchers)
        stalls = self.net.stall_events + self.net.rejected_offers if self.net else 0
        return blocked + stalls


class CentralEdgeStage:
    """GraphDynS-style in-order window allocator over all banks."""

    def __init__(self, config: AcceleratorConfig, dst: np.ndarray,
                 weights: np.ndarray) -> None:
        self.m = config.back_channels
        self.dst = dst
        self.weights = weights
        self.epe_depth = config.epe_queue_depth
        self.issue_limit = config.front_channels
        self.queue: deque = deque()      # in-order {Off, Len, sprop}
        self.queue_capacity = config.fe_out_depth * config.front_channels
        self.window_conflicts = 0

    def tick(self, fe_out: list, epe_in: list[deque]) -> None:
        # 1. in-order greedy window issue
        m = self.m
        claimed: set[int] = set()
        issued_requests = 0
        while self.queue and issued_requests < self.issue_limit:
            off, length, sprop = self.queue[0]
            k = min(length, m)
            banks = [(off + j) % m for j in range(k)]
            if any(b in claimed for b in banks):
                self.window_conflicts += 1
                break                    # strict in-order: head blocks the rest
            if any(len(epe_in[b]) >= self.epe_depth for b in banks):
                break
            for j, b in enumerate(banks):
                eidx = off + j
                epe_in[b].append((int(self.dst[eidx]),
                                  int(self.weights[eidx]), sprop))
            claimed.update(banks)
            if k == length:
                self.queue.popleft()
                issued_requests += 1
            else:
                self.queue[0] = (off + k, length - k, sprop)
                break                    # the window already spans all banks
        # 2. merge front-end requests in channel order (round-robin pull)
        for src in fe_out:
            if not src.empty and len(self.queue) < self.queue_capacity:
                self.queue.append(src.pop())

    @property
    def conflicts(self) -> int:
        return self.window_conflicts


def make_edge_stage(config: AcceleratorConfig, dst: np.ndarray,
                    weights: np.ndarray):
    if config.edge_site == "mdp":
        return MdpEdgeStage(config, dst, weights)
    return CentralEdgeStage(config, dst, weights)
