"""Dispatcher (paper §4.2, last stage of Edge Array access).

"In the last stage, we just need to integrate a set of small and simple
units (i.e., Dispatcher) to distribute access requests to consecutive
output channels."

A Dispatcher owns a group of consecutive Edge Array banks.  Each cycle
it pops one {Off, Len} piece (already split to fit its group) and issues
``Len`` bank reads in parallel — one per consecutive bank — provided
every target ePE input queue can accept.  It interacts with only
``group_width`` banks, so it stays simple regardless of the total
channel count: the anti-centralization property.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.fifo import Fifo


class Dispatcher:
    """One consecutive-bank issue unit."""

    def __init__(self, index: int, banks: int, group_width: int,
                 queue_depth: int = 8) -> None:
        if group_width < 1 or banks < group_width:
            raise ConfigError("invalid dispatcher geometry")
        self.index = index
        self.banks = banks
        self.group_width = group_width
        self.bank_lo = index * group_width
        self.queue = Fifo(queue_depth)
        self.blocked_cycles = 0

    @property
    def can_accept(self) -> bool:
        return not self.queue.full

    def accept(self, off: int, length: int, payload) -> bool:
        """Queue a piece delivered by the range-splitting network."""
        if length < 1 or length > self.group_width:
            raise ConfigError(
                f"dispatcher {self.index}: piece len {length} exceeds group "
                f"width {self.group_width}")
        if self.queue.full:
            return False
        self.queue.push((off, length, payload))
        return True

    def issue(self, bank_space_free) -> list[tuple[int, int, object]]:
        """Issue the head piece's bank reads if all targets have space.

        ``bank_space_free(bank)`` tells whether the ePE input queue of a
        bank can take one more record this cycle.  Returns
        ``(bank, edge_index, payload)`` reads (empty when blocked/idle).
        """
        if self.queue.empty:
            return []
        off, length, payload = self.queue.peek()
        reads = [(off + j) % self.banks for j in range(length)]
        if any(not bank_space_free(b) for b in reads):
            self.blocked_cycles += 1
            return []
        self.queue.pop()
        return [(b, off + j, payload) for j, b in enumerate(reads)]
