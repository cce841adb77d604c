"""Arbitration policies for Offset Array access (conflict site 1).

* :class:`GreedyClaimArbiter` — the centralized baseline's serial
  priority chain across all channels (GraphDynS-style).
* :class:`OddEvenArbiter` — the paper's §4.1 "alternating priority"
  arbiter for Offset Array access: odd and even channels alternately
  have the higher priority, so prioritized channels issue immediately
  and the others issue only when their banks are free (or their
  addresses are shared with the winners).
"""

from __future__ import annotations

from repro.errors import ConfigError


class OddEvenArbiter:
    """Paper §4.1 alternating-priority arbiter for Offset Array access.

    Channel ``i`` wants to read offset banks ``i`` and ``(i+1) mod n``
    (the one-to-two access pattern of {Off, nOff}), so conflicts only
    ever involve *adjacent* channels.  On even cycles the even channels
    have priority and issue unconditionally; odd channels issue only
    when their two (bank, address) reads are not claimed, or are claimed
    with the **same address** (a shared read).  Parity flips each cycle.
    """

    def __init__(self, num_channels: int) -> None:
        if num_channels < 1:
            raise ConfigError("odd-even arbiter needs at least one channel")
        self.num_channels = num_channels
        self.parity = 0           # 0: even channels prioritized, 1: odd
        self.deferrals = 0

    def arbitrate(self, requests: list[tuple[tuple[int, int], ...] | None]) -> list[int]:
        """Grant a set of channels whose reads are all satisfiable.

        ``requests[i]`` is a tuple of ``(bank, address)`` reads channel
        ``i`` needs this cycle (or None when idle).  Returns the granted
        channel indices.  Call once per cycle — parity advances.
        """
        if len(requests) != self.num_channels:
            raise ConfigError(
                f"expected {self.num_channels} request slots, got {len(requests)}")
        claimed: dict[int, int] = {}   # bank -> address
        granted: list[int] = []

        def try_grant(i: int, unconditional: bool) -> bool:
            reads = requests[i]
            if reads is None:
                return False
            for bank, addr in reads:
                if not unconditional and bank in claimed and claimed[bank] != addr:
                    return False
            for bank, addr in reads:
                claimed[bank] = addr
            granted.append(i)
            return True

        # Priority parity first: these channels never see a conflict
        # among themselves (adjacent channels have opposite parity).
        for i in range(self.parity, self.num_channels, 2):
            try_grant(i, unconditional=True)
        # The other parity defers to already-claimed banks.
        for i in range(1 - self.parity, self.num_channels, 2):
            if requests[i] is not None and not try_grant(i, unconditional=False):
                self.deferrals += 1

        self.parity ^= 1
        return granted


class GreedyClaimArbiter:
    """Centralized greedy arbitration (the GraphDynS-style counterpart).

    Scans channels from a rotating start, granting each whose
    ``(bank, address)`` reads don't collide with already-claimed banks.
    This models the "delicate arbitration in reading Offset Array" that
    caps the baseline's front-end channel count (paper §5.1): the scan
    is a serial priority chain across *all* channels, which is exactly
    the design centralization the paper criticizes.

    A granted channel claims its banks exclusively: broadcast reads of a
    shared (bank, address) are the §4.1 odd–even arbiter's trick, which
    the plain crossbar-arbitrated baseline does not have.
    """

    def __init__(self, num_channels: int) -> None:
        if num_channels < 1:
            raise ConfigError("arbiter needs at least one channel")
        self.num_channels = num_channels
        self._start = 0
        self.deferrals = 0

    def arbitrate(self, requests: list[tuple[tuple[int, int], ...] | None]) -> list[int]:
        if len(requests) != self.num_channels:
            raise ConfigError(
                f"expected {self.num_channels} request slots, got {len(requests)}")
        claimed: set[int] = set()
        granted: list[int] = []
        for off in range(self.num_channels):
            i = (self._start + off) % self.num_channels
            reads = requests[i]
            if reads is None:
                continue
            if all(bank not in claimed for bank, _ in reads):
                claimed.update(bank for bank, _ in reads)
                granted.append(i)
            else:
                self.deferrals += 1
        self._start = (self._start + 1) % self.num_channels
        return granted
