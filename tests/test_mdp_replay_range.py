"""Tests for Replay Engine, range-splitting network, and Dispatcher (§4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mdp import (
    Dispatcher,
    RangeSplitNetwork,
    ReplayEngine,
    split_by_blocks,
    split_request,
)


class TestSplitRequest:
    def test_no_split_needed(self):
        assert split_request(4, 9, banks=16) == [(4, 9)]

    def test_wrap_split(self):
        # banks 14,15 then 0,1,2
        assert split_request(14, 5, banks=16) == [(14, 2), (16, 3)]

    def test_pieces_concatenate_to_original(self):
        pieces = split_request(37, 23, banks=8)
        assert pieces[0][0] == 37
        assert sum(l for _, l in pieces) == 23
        for (o1, l1), (o2, _) in zip(pieces, pieces[1:]):
            assert o1 + l1 == o2

    def test_zero_length(self):
        assert split_request(5, 0, banks=8) == []

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            split_request(-1, 3, banks=8)
        with pytest.raises(ConfigError):
            split_request(0, -3, banks=8)

    @given(off=st.integers(0, 1000), length=st.integers(0, 200),
           banks=st.sampled_from([4, 8, 16, 32]))
    @settings(max_examples=80, deadline=None)
    def test_properties(self, off, length, banks):
        pieces = split_request(off, length, banks)
        # conservation + contiguity
        assert sum(l for _, l in pieces) == length
        cursor = off
        for o, l in pieces:
            assert o == cursor
            assert 1 <= l <= banks
            # non-wrapping: the piece stays inside one pass of the banks
            assert (o % banks) + l <= banks
            cursor = o + l


class TestSplitByBlocks:
    def test_paper_example_off4_len9(self):
        """Fig. 6 narrative: Off 4 Len 9 over 16 banks splits at the
        8-bank boundary into (4,4) and (8,5)."""
        subs = split_by_blocks(4, 9, banks=16, block=8)
        assert subs == [(4, 4, 0), (8, 5, 1)]

    def test_aligned_no_split(self):
        assert split_by_blocks(8, 8, banks=16, block=8) == [(8, 8, 1)]

    def test_fine_blocks(self):
        subs = split_by_blocks(2, 8, banks=16, block=4)
        assert subs == [(2, 2, 0), (4, 4, 1), (8, 2, 2)]

    def test_wrapping_piece_rejected(self):
        with pytest.raises(ConfigError):
            split_by_blocks(14, 5, banks=16, block=8)

    @given(off=st.integers(0, 64), length=st.integers(0, 16),
           block=st.sampled_from([2, 4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_block_fit(self, off, length, block):
        banks = 16
        if (off % banks) + length > banks:
            return
        subs = split_by_blocks(off, length, banks, block)
        assert sum(l for _, l, _ in subs) == length
        for o, l, idx in subs:
            b = o % banks
            assert b // block == idx
            assert (b % block) + l <= block


class TestReplayEngine:
    def test_streams_pieces_one_per_cycle(self):
        eng = ReplayEngine(banks=8)
        eng.accept(6, 10, "v")    # banks 6..15 -> wraps: (6,2) then (8,8)
        first = eng.emit()
        assert first == (6, 2, "v")
        eng.consume()
        second = eng.emit()
        assert second == (8, 8, "v")
        eng.consume()
        assert eng.emit() is None

    def test_emit_without_consume_is_idempotent(self):
        eng = ReplayEngine(banks=8)
        eng.accept(0, 4, None)
        assert eng.emit() == eng.emit()

    def test_queue_depth_backpressure(self):
        eng = ReplayEngine(banks=8, queue_depth=1)
        assert eng.accept(0, 4, None)
        assert not eng.accept(4, 4, None)
        assert not eng.can_accept

    def test_wrapping_request_emits_two_pieces(self):
        eng = ReplayEngine(banks=4)
        eng.accept(2, 4, None)      # banks 2, 3 then 0, 1: two pieces
        pieces = []
        while (piece := eng.emit()) is not None:
            pieces.append(piece[:2])
            eng.consume()
        assert pieces == [(2, 2), (4, 2)]


class TestRangeSplitNetwork:
    def make(self, banks=16, disp=4, depth=8):
        return RangeSplitNetwork(banks=banks, num_dispatchers=disp,
                                 radix=2, fifo_depth=depth)

    def drain(self, net, max_cycles=1000):
        got = []
        ready = [True] * net.num_dispatchers
        cycles = 0
        while not net.drained:
            got.extend(net.deliver(ready))
            net.advance()
            cycles += 1
            assert cycles < max_cycles
        return got

    def test_paper_example_reaches_two_dispatchers(self):
        """Off 4, Len 9 over 16 banks / 4 dispatchers: dispatcher 1 gets
        banks 4-7 (len 4), dispatchers 2 and 3 share banks 8-12."""
        net = self.make()
        assert net.offer(0, 4, 9, "p")
        got = self.drain(net)
        by_disp = {}
        for d, (off, length, payload) in got:
            by_disp.setdefault(d, []).append((off, length))
            assert payload == "p"
        assert by_disp[1] == [(4, 4)]
        assert by_disp[2] == [(8, 4)]
        assert by_disp[3] == [(12, 1)]

    def test_single_bank_piece(self):
        net = self.make()
        net.offer(2, 13, 1, None)
        got = self.drain(net)
        assert got == [(3, (13, 1, None))]

    def test_lengths_conserved(self):
        net = self.make()
        net.offer(0, 0, 16, "all")
        got = self.drain(net)
        assert sum(l for _, (_, l, _) in got) == 16
        assert net.delivered_edges == 16
        assert net.offered_edges == 16

    def test_pieces_fit_dispatcher_groups(self):
        net = self.make(banks=32, disp=8)
        rng = np.random.default_rng(0)
        for i in range(20):
            off = int(rng.integers(0, 64))
            length = int(rng.integers(1, 32))
            start = off % 32
            if start + length > 32:
                length = 32 - start
            net.offer(i % 8, off, length, i)
        got = self.drain(net)
        g = net.group_width
        for d, (off, length, _) in got:
            start = off % 32
            assert d * g <= start and start + length <= (d + 1) * g

    def test_wrapping_offer_rejected(self):
        net = self.make()
        with pytest.raises(ConfigError):
            net.offer(0, 14, 5, None)   # crosses bank 15 -> 0

    def test_zero_length_rejected(self):
        net = self.make()
        with pytest.raises(ConfigError):
            net.offer(0, 0, 0, None)

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            RangeSplitNetwork(banks=16, num_dispatchers=3)
        with pytest.raises(ConfigError):
            RangeSplitNetwork(banks=16, num_dispatchers=32)
        with pytest.raises(ConfigError):
            RangeSplitNetwork(banks=16, num_dispatchers=4, radix=8)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_random_traffic_edge_conservation(self, seed):
        rng = np.random.default_rng(seed)
        net = self.make(banks=16, disp=4, depth=16)
        offered = 0
        delivered = []
        for _ in range(50):
            delivered.extend(net.deliver([True] * 4))
            net.advance()
            ch = int(rng.integers(0, 4))
            off = int(rng.integers(0, 32))
            max_take = 16 - (off % 16)
            length = int(rng.integers(1, max_take + 1))
            if net.offer(ch, off, length, None):
                offered += length
        delivered.extend(self.drain(net))
        assert sum(l for _, (_, l, _) in delivered) == offered
        # every delivered edge index appears exactly once per offer set
        assert net.delivered_pieces >= net.offered_pieces  # splits only add


class TestDispatcher:
    def test_issues_consecutive_banks(self):
        d = Dispatcher(index=1, banks=16, group_width=4)
        d.accept(5, 3, "v")
        reads = d.issue(lambda b: True)
        assert reads == [(5, 5, "v"), (6, 6, "v"), (7, 7, "v")]

    def test_blocks_until_epe_space(self):
        d = Dispatcher(index=0, banks=16, group_width=4)
        d.accept(0, 2, None)
        assert d.issue(lambda b: b != 1) == []   # bank 1 has no space
        assert d.blocked_cycles == 1
        assert len(d.issue(lambda b: True)) == 2

    def test_rejects_oversized_piece(self):
        d = Dispatcher(index=0, banks=16, group_width=4)
        with pytest.raises(ConfigError):
            d.accept(0, 5, None)

    def test_queue_backpressure(self):
        d = Dispatcher(index=0, banks=16, group_width=4, queue_depth=1)
        assert d.accept(0, 1, None)
        assert not d.accept(1, 1, None)
        assert not d.can_accept

    def test_one_request_per_cycle(self):
        d = Dispatcher(index=0, banks=16, group_width=4)
        d.accept(0, 1, "a")
        d.accept(1, 1, "b")
        first = d.issue(lambda b: True)
        assert [p for _, _, p in first] == ["a"]

    def test_one_piece_issues_one_read_per_bank(self):
        d = Dispatcher(index=0, banks=16, group_width=4)
        d.accept(0, 3, None)
        reads = d.issue(lambda b: True)
        assert [(bank, edge) for bank, edge, _ in reads] == [
            (0, 0), (1, 1), (2, 2)]
        assert d.issue(lambda b: True) == []
