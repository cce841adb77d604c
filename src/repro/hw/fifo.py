"""Bounded cycle-level FIFO.

The paper's nW1R FIFO (n-Write-1-Read) "can input n datums and output
one datum in each cycle" (§3.1), and "can accept data only when the
remaining capacity is not less than n".  That conservative full signal
lives where the MDP-network's stage FIFOs are modelled:
:meth:`repro.mdp.network.MdpNetworkSim._ready` (free slots >= radix).
MDP-network keeps n small (the radix), which is the whole point of the
design.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError, FifoOverflowError


class Fifo:
    """Bounded FIFO.

    The simulator calls :meth:`push`/:meth:`pop` at most once per
    element per cycle; scheduling order guarantees single-cycle flow
    semantics, so no explicit two-phase commit is needed here.
    """

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"FIFO capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item) -> None:
        if self.full:
            raise FifoOverflowError(
                f"push to full FIFO (writer ignored backpressure): "
                f"occupancy {len(self._items)}/{self.capacity}")
        self._items.append(item)

    def pop(self):
        return self._items.popleft()

    def peek(self):
        return self._items[0]

    def tail(self):
        """Most recently pushed item (for tail-combining logic)."""
        return self._items[-1]

    def replace_tail(self, item) -> None:
        """Overwrite the most recently pushed item in place."""
        self._items[-1] = item

    def __iter__(self):
        return iter(self._items)

