"""Tests for arbitration policies (odd-even, greedy claim)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hw import GreedyClaimArbiter, OddEvenArbiter


def reads_for(channel, u, n):
    """Offset-array reads of a vertex routed to ``channel``: banks
    u % n and (u+1) % n with addresses u and u+1 (paper Fig. 3 ①)."""
    return ((u % n, u), ((u + 1) % n, u + 1))


class TestOddEven:
    def test_priority_parity_alternates(self):
        arb = OddEvenArbiter(4)
        assert arb.parity == 0
        arb.arbitrate([None] * 4)
        assert arb.parity == 1
        arb.arbitrate([None] * 4)
        assert arb.parity == 0

    def test_adjacent_conflict_resolved_by_priority(self):
        """Channels 0 and 1 both need bank 1 at *different* addresses
        (vertices 0 and 5 on 4 channels): even channel wins on even
        parity, the odd channel issues unconditionally on the next."""
        n = 4
        arb = OddEvenArbiter(n)
        reqs = [reads_for(0, 0, n), reads_for(1, 5, n), None, None]
        granted = arb.arbitrate(reqs)
        assert 0 in granted and 1 not in granted
        granted = arb.arbitrate(reqs)
        assert 1 in granted

    def test_consecutive_vertices_share_offset_read(self):
        """Vertices u and u+1 on adjacent channels share the (bank, addr)
        boundary read, so both issue in the same cycle — the regular
        pattern PageRank produces (§5.3: front-end opts gain nothing on
        PR because accesses are already in order)."""
        n = 4
        arb = OddEvenArbiter(n)
        reqs = [reads_for(i, i, n) for i in range(n)]
        granted = arb.arbitrate(reqs)
        # channels 0..2 chain through shared boundary addresses; channel
        # 3 wraps onto bank 0 with a different address and must defer.
        assert sorted(granted) == [0, 1, 2]
        assert 3 in arb.arbitrate(reqs)   # odd parity: 3 issues next cycle

    def test_non_adjacent_channels_coexist(self):
        n = 4
        arb = OddEvenArbiter(n)
        reqs = [reads_for(0, 0, n), None, reads_for(2, 2, n), None]
        assert sorted(arb.arbitrate(reqs)) == [0, 2]

    def test_shared_address_merges(self):
        """Two channels reading the *same* (bank, addr) both issue —
        "their target addresses are the same with those who have
        occupied the read channels" (§4.1)."""
        arb = OddEvenArbiter(4)
        # channel 1 reads banks (1,2) addr (1,2); channel 2 reads banks
        # (2,3) addr (2,3): bank 2 shared with identical address 2.
        reqs = [None, ((1, 1), (2, 2)), ((2, 2), (3, 3)), None]
        granted = arb.arbitrate(reqs)
        assert sorted(granted) == [1, 2]

    def test_deferral_counted(self):
        n = 2
        arb = OddEvenArbiter(n)
        reqs = [reads_for(0, 0, n), reads_for(1, 1, n)]
        arb.arbitrate(reqs)
        assert arb.deferrals == 1

    def test_all_even_issue_unconditionally(self):
        """Same-parity channels can never conflict (banks i, i+1 with i
        even are disjoint across even channels), so priority channels
        always all issue."""
        n = 8
        arb = OddEvenArbiter(n)
        reqs = [reads_for(i, i, n) for i in range(n)]
        granted = arb.arbitrate(reqs)
        assert {0, 2, 4, 6} <= set(granted)

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigError):
            OddEvenArbiter(2).arbitrate([None])

    @given(mask=st.lists(st.booleans(), min_size=8, max_size=8),
           cycles=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_grants_never_conflict(self, mask, cycles):
        """Property: granted channels' claims are mutually consistent."""
        n = 8
        arb = OddEvenArbiter(n)
        for _ in range(cycles):
            reqs = [reads_for(i, i, n) if mask[i] else None for i in range(n)]
            granted = arb.arbitrate(reqs)
            claimed = {}
            for i in granted:
                for bank, addr in reqs[i]:
                    assert claimed.get(bank, addr) == addr
                    claimed[bank] = addr


class TestGreedyClaim:
    def test_grants_disjoint_sets(self):
        arb = GreedyClaimArbiter(4)
        reqs = [((0, 0),), ((1, 1),), ((0, 9),), None]
        granted = arb.arbitrate(reqs)
        assert 0 in granted and 1 in granted and 2 not in granted

    def test_rotating_start_fairness(self):
        arb = GreedyClaimArbiter(2)
        reqs = [((0, 0),), ((0, 5),)]   # always conflicting
        first = arb.arbitrate(reqs)
        second = arb.arbitrate(reqs)
        assert first != second          # the loser eventually wins

    def test_same_address_is_exclusive(self):
        """The plain baseline arbiter claims bank ports exclusively —
        broadcast sharing is the §4.1 odd-even arbiter's feature."""
        arb = GreedyClaimArbiter(2)
        reqs = [((3, 7),), ((3, 7),)]
        assert len(arb.arbitrate(reqs)) == 1

    def test_deferrals_counted(self):
        arb = GreedyClaimArbiter(2)
        arb.arbitrate([((0, 0),), ((0, 1),)])
        assert arb.deferrals == 1
