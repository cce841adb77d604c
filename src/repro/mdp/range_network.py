"""MDP-network variant for Edge Array access (paper §4.2).

Items are edge-fetch pieces ``{Off, Len}`` instead of single datums.
The network routes a piece toward the banks it covers; because "the
target range is becoming smaller as the data is propagated stage by
stage, correspondingly, we will split the input length into small
output length to make {Off, Len} fit in small target range."

The paper's worked example: with 16 banks, ``Off 4, Len 9`` spans banks
4..12; at the first stage (target ranges 0-7 / 8-15) it splits into
``Off 4, Len 4`` (banks 4-7) and ``Off 8, Len 5`` (banks 8-12).  After
the last stage each piece fits one Dispatcher's consecutive-bank group.

Positions correspond to dispatcher indices; a piece's destination
"address" is the dispatcher-index range covering its bank span, one
base-r digit resolved per stage, so the wiring plan is exactly the one
Algorithm 1 generates for ``num_dispatchers`` channels.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError, SimulationError
from repro.mdp.generator import generate_network


def split_by_blocks(off: int, length: int, banks: int,
                    block: int) -> list[tuple[int, int, int]]:
    """Cut a non-wrapping piece at ``block``-aligned bank boundaries.

    Returns ``(off, len, block_index)`` sub-pieces, where ``block_index``
    is ``start_bank // block`` — the quantity whose base-r digit routes
    the sub-piece.  Pure helper shared with tests.
    """
    if length < 0:
        raise ConfigError(f"negative length {length}")
    start_bank = off % banks
    if start_bank + length > banks:
        raise ConfigError(
            f"piece off={off} len={length} wraps the bank space "
            "(Replay Engine must pre-split)")
    pieces = []
    while length > 0:
        take = min(length, block - (start_bank % block))
        pieces.append((off, take, start_bank // block))
        off += take
        start_bank += take
        length -= take
    return pieces


class RangeSplitNetwork:
    """MDP-network whose stages split {Off, Len} pieces by target range.

    Parameters
    ----------
    banks:
        Total interleaved Edge Array banks (back-end channels, ``m``).
    num_dispatchers:
        Output positions; each covers ``banks / num_dispatchers``
        consecutive banks (the paper's Fig. 6 shows groups of 4).
    radix, fifo_depth:
        As in :class:`~repro.mdp.network.MdpNetworkSim`.
    """

    def __init__(self, banks: int, num_dispatchers: int, radix: int = 2,
                 fifo_depth: int = 16) -> None:
        if banks < 1 or num_dispatchers < 1:
            raise ConfigError("banks and num_dispatchers must be >= 1")
        if banks % num_dispatchers:
            raise ConfigError(
                f"banks {banks} not divisible by dispatchers {num_dispatchers}")
        if num_dispatchers < radix:
            raise ConfigError(
                f"need num_dispatchers >= radix, got {num_dispatchers} < {radix}")
        if fifo_depth < radix:
            raise ConfigError("fifo_depth must be >= radix")
        self.banks = banks
        self.num_dispatchers = num_dispatchers
        self.group_width = banks // num_dispatchers
        self.plan = generate_network(num_dispatchers, radix)
        self.radix = radix
        self.fifo_depth = fifo_depth
        self.num_stages = self.plan.num_stages
        self.stage_queues: list[list[deque]] = [
            [deque() for _ in range(num_dispatchers)] for _ in range(self.num_stages)
        ]
        # per stage: block size in banks + per-position module ports
        self._stage_block: list[int] = []
        self._stage_ports: list[list[tuple[int, ...]]] = []
        for stage in self.plan.stages:
            self._stage_block.append(self.group_width * radix ** stage.digit_index)
            ports: list[tuple[int, ...] | None] = [None] * num_dispatchers
            for module in stage.modules:
                for p in module.channels:
                    ports[p] = module.channels
            self._stage_ports.append(ports)  # type: ignore[arg-type]
        self.offered_pieces = 0
        self.offered_edges = 0
        self.delivered_pieces = 0
        self.delivered_edges = 0
        self.stall_events = 0
        self.rejected_offers = 0

    # ------------------------------------------------------------------
    def _try_insert(self, stage: int, entry_pos: int, off: int, length: int,
                    payload) -> bool:
        """Split at ``stage`` granularity and push sub-pieces atomically."""
        block = self._stage_block[stage]
        ports = self._stage_ports[stage][entry_pos]
        subs = split_by_blocks(off, length, self.banks, block)
        targets = []
        for s_off, s_len, block_idx in subs:
            digit = block_idx % self.radix
            targets.append((ports[digit], s_off, s_len))
        queues = self.stage_queues[stage]
        if any(self.fifo_depth - len(queues[t]) < self.radix for t, _, _ in targets):
            return False
        for t, s_off, s_len in targets:
            queues[t].append((s_off, s_len, payload))
        return True

    def offer(self, channel: int, off: int, length: int, payload) -> bool:
        """Inject a Replay-Engine piece at input ``channel``."""
        if not 0 <= channel < self.num_dispatchers:
            raise ConfigError(f"input channel {channel} out of range")
        if length < 1:
            raise ConfigError(f"piece length must be >= 1, got {length}")
        if self._try_insert(0, channel, off, length, payload):
            self.offered_pieces += 1
            self.offered_edges += length
            return True
        self.rejected_offers += 1
        return False

    # ------------------------------------------------------------------
    def deliver(self, sink_ready) -> list[tuple[int, tuple[int, int, object]]]:
        """Pop one piece per ready dispatcher from the final stage.

        Returns ``(dispatcher, (off, len, payload))`` tuples; delivered
        pieces always fit the dispatcher's bank group.
        """
        out = []
        last = self.stage_queues[self.num_stages - 1]
        g = self.group_width
        for p in range(self.num_dispatchers):
            queue = last[p]
            if queue and sink_ready[p]:
                off, length, payload = queue.popleft()
                start_bank = off % self.banks
                if not (p * g <= start_bank and start_bank + length <= (p + 1) * g):
                    raise SimulationError(
                        f"piece off={off} len={length} outside dispatcher {p} group")
                out.append((p, (off, length, payload)))
                self.delivered_pieces += 1
                self.delivered_edges += length
        return out

    def advance(self) -> None:
        """Move heads one stage forward (with splitting), last stage first."""
        for s in range(self.num_stages - 1, 0, -1):
            prev = self.stage_queues[s - 1]
            for p in range(self.num_dispatchers):
                queue = prev[p]
                if not queue:
                    continue
                off, length, payload = queue[0]
                if self._try_insert(s, p, off, length, payload):
                    queue.popleft()
                else:
                    self.stall_events += 1

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(q) for stage in self.stage_queues for q in stage)

    @property
    def drained(self) -> bool:
        return all(not q for stage in self.stage_queues for q in stage)
