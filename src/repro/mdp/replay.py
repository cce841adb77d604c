"""Replay Engine (paper §4.2).

"We insert Replay Engines to divide {Off, nOff} into several {Off, Len}
with an appropriate length."

A front-end request ``{Off, nOff}`` covers the edge indices
``[Off, nOff)``; those map onto interleaved Edge Array banks
``index mod m``.  The Replay Engine replays the request as pieces whose
bank spans are contiguous and **non-wrapping** (a piece never crosses
the bank m-1 -> 0 boundary), so no piece is longer than m, the full
bank window.  Non-wrapping pieces are what lets every later
MDP stage split a piece into at most ``radix`` contiguous sub-pieces.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError


def split_request(off: int, length: int, banks: int) -> list[tuple[int, int]]:
    """Split ``{Off, Len}`` into non-wrapping pieces.

    Pure function used by :class:`ReplayEngine` and by tests; the
    concatenation of the returned ``(off, len)`` pieces is exactly the
    input range.
    """
    if banks < 1:
        raise ConfigError(f"banks must be >= 1, got {banks}")
    if length < 0 or off < 0:
        raise ConfigError(f"invalid request off={off} len={length}")
    pieces = []
    while length > 0:
        take = min(length, banks - off % banks)
        pieces.append((off, take))
        off += take
        length -= take
    return pieces


class ReplayEngine:
    """Streams one request piece per cycle into the edge-access network.

    One engine serves one front-end channel (paper Fig. 6 shows a Replay
    Engine per channel feeding the MDP-network for Edge Array access).
    A multi-piece request occupies the engine for several cycles — the
    "replay" — while other engines keep issuing their own pieces, which
    is where the decentralization win over a single in-order window
    allocator comes from.
    """

    def __init__(self, banks: int, queue_depth: int = 8) -> None:
        if queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        self.banks = banks
        self.queue_depth = queue_depth
        self._pending: deque = deque()   # (off, len, payload) requests
        self._pieces: deque = deque()    # pieces of the request in flight

    @property
    def busy(self) -> bool:
        return bool(self._pending or self._pieces)

    @property
    def can_accept(self) -> bool:
        return len(self._pending) < self.queue_depth

    def accept(self, off: int, length: int, payload) -> bool:
        """Queue a front-end ``{Off, Len}`` request; False when full."""
        if not self.can_accept:
            return False
        self._pending.append((off, length, payload))
        return True

    def emit(self):
        """The piece to present this cycle, or None (does not consume)."""
        if not self._pieces and self._pending:
            off, length, payload = self._pending.popleft()
            for p_off, p_len in split_request(off, length, self.banks):
                self._pieces.append((p_off, p_len, payload))
        return self._pieces[0] if self._pieces else None

    def consume(self) -> None:
        """Downstream accepted the emitted piece."""
        self._pieces.popleft()
