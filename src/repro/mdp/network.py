"""Cycle-level model of an MDP-network (paper §3).

Data is pushed in at any input channel together with its destination
channel id; every cycle each datum advances at most one stage, steered
by one base-r digit of the destination, and is buffered in the stage's
rW1R FIFO.  Propagation is deterministic — no arbitration anywhere —
so the only stall condition is a full downstream FIFO:

* the head-of-line datum never waits on a *grant* (crossbars lose slots
  to arbitration), and
* each FIFO interacts with exactly ``radix`` writers, keeping the
  implementation decentralized (frequency model: ``repro.hw.timing``).

Throughput is paid for with latency: ``num_stages`` cycles minimum per
datum, the paper's "trading latency for throughput".
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError, SimulationError
from repro.mdp.generator import NetworkPlan, generate_network


class MdpNetworkSim:
    """Simulates one MDP-network instance.

    Items are ``(dest, payload)``; ``dest`` is the output channel.
    Protocol per simulated cycle (driven by the owning pipeline stage):

    1. ``deliver(sink_ready)`` — pop at most one datum per output
       channel whose sink can accept, returning the deliveries.
    2. ``advance()`` — move stage ``s-1`` heads into stage ``s`` FIFOs,
       from the last stage backwards (single-cycle-per-stage movement).
    3. ``offer(channel, dest, payload)`` — external writers inject into
       stage 0; at most one offer per input channel per cycle.

    The conservative nW1R acceptance rule (free >= radix) from §3.1
    gates every write.
    """

    def __init__(self, channels: int, radix: int = 2, fifo_depth: int = 16,
                 plan: NetworkPlan | None = None, combine_fn=None) -> None:
        if fifo_depth < radix:
            raise ConfigError(
                f"fifo_depth {fifo_depth} must be >= radix {radix} "
                "(nW1R FIFO never ready otherwise)")
        #: optional tail-combining (coalescing): when a pushed payload and
        #: the FIFO tail belong together (e.g. same destination vertex),
        #: ``combine_fn(tail_payload, new_payload)`` returns the merged
        #: payload (or None to decline) and no FIFO slot is consumed.
        #: Combining compounds across stages, which is how a reduction
        #: hotspot is absorbed faster than one record per cycle.
        self._combine = combine_fn
        self.combined = 0
        self.plan = plan or generate_network(channels, radix)
        self.channels = self.plan.channels
        self.radix = self.plan.radix
        self.fifo_depth = fifo_depth
        self.num_stages = self.plan.num_stages
        # stage_queues[s][p]: deque at the output of stage s, position p
        self.stage_queues: list[list[deque]] = [
            [deque() for _ in range(self.channels)] for _ in range(self.num_stages)
        ]
        # Precomputed routing: for stage s, position p ->
        #   (digit_divisor, [dest position per digit value])
        self._route: list[list[tuple[int, tuple[int, ...]]]] = []
        for stage in self.plan.stages:
            divisor = self.radix ** stage.digit_index
            per_pos: list[tuple[int, tuple[int, ...]] | None] = [None] * self.channels
            for module in stage.modules:
                entry = (divisor, module.channels)
                for p in module.channels:
                    per_pos[p] = entry
            self._route.append(per_pos)  # type: ignore[arg-type]
        # statistics
        self.rejected_offers = 0
        self.stall_events = 0          # head could not advance (downstream full)

    # ------------------------------------------------------------------
    def offer(self, channel: int, dest: int, payload) -> bool:
        """Inject at input ``channel``; False when backpressured."""
        if not 0 <= dest < self.channels:
            raise ConfigError(f"dest {dest} out of range [0, {self.channels})")
        divisor, ports = self._route[0][channel]
        target = ports[(dest // divisor) % self.radix]
        queue = self.stage_queues[0][target]
        if self._combine is not None and queue:
            tail_dest, tail_payload = queue[-1]
            if tail_dest == dest:
                merged = self._combine(tail_payload, payload)
                if merged is not None:
                    queue[-1] = (dest, merged)
                    self.combined += 1
                    return True
        if self.fifo_depth - len(queue) < self.radix:
            self.rejected_offers += 1
            return False
        queue.append((dest, payload))
        return True

    # ------------------------------------------------------------------
    def deliver(self, sink_ready) -> list[tuple[int, object]]:
        """Pop one datum per ready output channel from the final stage."""
        out = []
        last = self.stage_queues[self.num_stages - 1]
        for p in range(self.channels):
            queue = last[p]
            if queue and sink_ready[p]:
                dest, payload = queue.popleft()
                if dest != p:
                    raise SimulationError(
                        f"MDP routing invariant broken: dest {dest} at position {p}")
                out.append((dest, payload))
        return out

    def advance(self) -> None:
        """Move heads one stage forward, last stage first."""
        radix = self.radix
        depth = self.fifo_depth
        combine = self._combine
        for s in range(self.num_stages - 1, 0, -1):
            prev = self.stage_queues[s - 1]
            cur = self.stage_queues[s]
            route = self._route[s]
            for p in range(self.channels):
                queue = prev[p]
                if not queue:
                    continue
                dest = queue[0][0]
                divisor, ports = route[p]
                target = ports[(dest // divisor) % radix]
                tq = cur[target]
                if combine is not None and tq and tq[-1][0] == dest:
                    merged = combine(tq[-1][1], queue[0][1])
                    if merged is not None:
                        tq[-1] = (dest, merged)
                        queue.popleft()
                        self.combined += 1
                        continue
                if depth - len(tq) >= radix:
                    tq.append(queue.popleft())
                else:
                    self.stall_events += 1

    def tick(self, sink_ready) -> list[tuple[int, object]]:
        """Convenience: deliver then advance (callers then offer())."""
        out = self.deliver(sink_ready)
        self.advance()
        return out

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(q) for stage in self.stage_queues for q in stage)

    @property
    def drained(self) -> bool:
        return all(not q for stage in self.stage_queues for q in stage)
