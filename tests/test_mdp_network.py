"""Cycle-level MDP-network tests: routing, conservation, throughput."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mdp import MdpNetworkSim


def run_until_drained(net, sink_ready=None, max_cycles=10_000):
    delivered = []
    ready = sink_ready or [True] * net.channels
    cycles = 0
    while not net.drained:
        delivered.extend(net.tick(ready))
        cycles += 1
        if cycles > max_cycles:
            raise AssertionError("network did not drain")
    return delivered


class TestBasics:
    def test_single_datum_routed_to_destination(self):
        net = MdpNetworkSim(4, 2, fifo_depth=4)
        assert net.offer(0, 3, "x")
        delivered = run_until_drained(net)
        assert delivered == [(3, "x")]

    def test_latency_equals_stage_count(self):
        """Minimum traversal = one cycle per stage: the latency traded
        for throughput (§2.2 Opportunity)."""
        for n in (4, 8, 16):
            net = MdpNetworkSim(n, 2, fifo_depth=4)
            net.offer(0, n - 1, "x")
            cycles = 0
            while True:
                cycles += 1
                if net.tick([True] * n):
                    break
            assert cycles == net.num_stages

    def test_all_pairs_delivery(self):
        n = 8
        for src in range(n):
            net = MdpNetworkSim(n, 2, fifo_depth=4)
            for dest in range(n):
                net.offer(src, dest, (src, dest))
                got = run_until_drained(net)
                assert got == [(dest, (src, dest))]

    def test_invalid_dest_rejected(self):
        net = MdpNetworkSim(4, 2, fifo_depth=4)
        with pytest.raises(ConfigError):
            net.offer(0, 4, "x")

    def test_depth_below_radix_rejected(self):
        with pytest.raises(ConfigError):
            MdpNetworkSim(4, 2, fifo_depth=1)

    def test_backpressure_no_loss_when_sink_blocked(self):
        net = MdpNetworkSim(4, 2, fifo_depth=4)
        net.offer(0, 1, "a")
        for _ in range(10):
            assert net.tick([False] * 4) == []
        assert net.occupancy == 1
        assert run_until_drained(net) == [(1, "a")]

    def test_offer_rejected_when_stage0_full(self):
        net = MdpNetworkSim(4, 2, fifo_depth=2)
        # fill stage-0 FIFO at position 0 (dest 0 from channel 0)
        assert net.offer(0, 0, 1)
        # depth 2, radix 2: one resident datum leaves free=1 < radix
        assert not net.offer(0, 0, 2)
        assert net.rejected_offers == 1

    def test_per_flow_order_preserved(self):
        net = MdpNetworkSim(8, 2, fifo_depth=16)
        delivered = []
        for i in range(10):
            net.offer(3, 5, i)
            delivered.extend(net.tick([True] * 8))
        delivered.extend(run_until_drained(net))
        assert [p for _, p in delivered] == list(range(10))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_deliver_advance_offer_protocol_keeps_flow_order(self, seed):
        """Regression for the pipeline's explicit per-cycle protocol
        (deliver -> advance -> offer, exactly as the accelerator drives
        it, with flaky sinks): for every (input, dest) pair the payloads
        must arrive in offer order, even while flows from the same input
        interleave different destinations and stall on backpressure."""
        n = 8
        rng = np.random.default_rng(seed)
        net = MdpNetworkSim(n, 2, fifo_depth=4)
        offered: dict[tuple[int, int], list[int]] = {}
        received: dict[tuple[int, int], list[int]] = {}
        next_payload = 0
        pending = 0
        for cycle in range(600):
            sink_ready = list(rng.random(n) < 0.7)
            for dest, (src, _, payload) in net.deliver(
                    sink_ready=[bool(r) for r in sink_ready]):
                received.setdefault((src, dest), []).append(payload)
                pending -= 1
            net.advance()
            for src in range(n):
                if rng.random() < 0.8:
                    dest = int(rng.integers(0, n))
                    if net.offer(src, dest, (src, dest, next_payload)):
                        offered.setdefault((src, dest), []).append(next_payload)
                        next_payload += 1
                        pending += 1
        for dest, (src, _, payload) in run_until_drained(net):
            received.setdefault((src, dest), []).append(payload)
            pending -= 1
        assert pending == 0
        assert received == offered


class TestConservation:
    @given(seed=st.integers(0, 200), n_log=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_no_loss_no_duplication_random_traffic(self, seed, n_log):
        n = 2 ** n_log
        rng = np.random.default_rng(seed)
        net = MdpNetworkSim(n, 2, fifo_depth=8)
        sent, received = [], []
        uid = 0
        for _ in range(60):
            received.extend(net.tick([True] * n))
            for ch in range(n):
                if rng.random() < 0.8:
                    dest = int(rng.integers(0, n))
                    if net.offer(ch, dest, (dest, uid)):
                        sent.append((dest, (dest, uid)))
                        uid += 1
        received.extend(run_until_drained(net))
        assert sorted(received) == sorted(sent)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_radix4_conservation(self, seed):
        n = 16
        rng = np.random.default_rng(seed)
        net = MdpNetworkSim(n, 4, fifo_depth=8)
        sent = []
        received = []
        for _ in range(40):
            received.extend(net.tick([True] * n))
            ch = int(rng.integers(0, n))
            dest = int(rng.integers(0, n))
            if net.offer(ch, dest, dest):
                sent.append((dest, dest))
        received.extend(run_until_drained(net))
        assert sorted(received) == sorted(sent)

    def test_intermittent_sink_conservation(self):
        n = 8
        rng = np.random.default_rng(7)
        net = MdpNetworkSim(n, 2, fifo_depth=8)
        sent, received = [], []
        for cycle in range(200):
            ready = [bool(rng.random() < 0.5) for _ in range(n)]
            received.extend(net.tick(ready))
            for ch in range(n):
                dest = int(rng.integers(0, n))
                if net.offer(ch, dest, (dest, cycle, ch)):
                    sent.append((dest, (dest, cycle, ch)))
        received.extend(run_until_drained(net))
        assert sorted(received) == sorted(sent)


class TestThroughput:
    def _saturate(self, net, cycles, rng):
        """Keep all inputs busy with uniform random destinations."""
        n = net.channels
        pending = [None] * n
        delivered = 0
        for _ in range(cycles):
            delivered += len(net.tick([True] * n))
            for ch in range(n):
                if pending[ch] is None:
                    pending[ch] = int(rng.integers(0, n))
                if net.offer(ch, pending[ch], None):
                    pending[ch] = None
        return delivered / (cycles * n)

    def test_uniform_traffic_near_line_rate(self):
        """§3.1: deterministic multi-stage propagation avoids the
        crossbar's arbitration losses — uniform traffic flows at close
        to one datum per channel per cycle."""
        rng = np.random.default_rng(1)
        net = MdpNetworkSim(16, 2, fifo_depth=32)
        rate = self._saturate(net, 1500, rng)
        assert rate > 0.9

    def test_beats_crossbar_on_uniform_traffic(self):
        from repro.hw import ArbitratedCrossbar
        n, cycles = 16, 1500
        rng = np.random.default_rng(2)
        net_rate = self._saturate(MdpNetworkSim(n, 2, fifo_depth=32), cycles, rng)
        xbar = ArbitratedCrossbar(n, n, fifo_depth=32)
        delivered = 0
        rng = np.random.default_rng(2)
        for _ in range(cycles):
            for i in range(n):
                while not xbar.inputs[i].full:
                    xbar.offer(i, int(rng.integers(0, n)), None)
            delivered += len(xbar.tick([1] * n))
        xbar_rate = delivered / (cycles * n)
        assert net_rate > xbar_rate + 0.15   # decisive margin

    def test_hotspot_bounded_by_single_output(self):
        """All traffic to one destination drains at 1/cycle — the
        fundamental bank-port bound no interconnect can beat."""
        n = 8
        net = MdpNetworkSim(n, 2, fifo_depth=8)
        rng = np.random.default_rng(3)
        delivered = 0
        cycles = 300
        for _ in range(cycles):
            delivered += len(net.tick([True] * n))
            for ch in range(n):
                net.offer(ch, 0, None)
        assert delivered <= cycles
        assert delivered > 0.9 * cycles

    def test_stall_statistics_accumulate(self):
        net = MdpNetworkSim(4, 2, fifo_depth=2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            net.tick([False] * 4)   # sinks never accept
            for ch in range(4):
                net.offer(ch, int(rng.integers(0, 4)), None)
        assert net.stall_events > 0
        assert net.rejected_offers > 0
