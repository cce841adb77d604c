"""Arbitrated crossbar — the centralized interconnect the paper replaces.

"On-chip crossbar is a prevalent solution to direct the dataflow between
different execution channels.  However, it suffers from not only the
frequency decline ... but also a dramatic increase in area and power
consumption, when channel number increases."  (§1)

This is the cycle-level model used at the dataflow-propagation site of
the GraphDynS baseline and of HiGraph's FIFO-plus-crossbar ablation
(paper Fig. 12).  Each input has a FIFO; each output grants one input
per cycle by rotating priority; losing inputs keep their head —
**head-of-line blocking**: a blocked head also blocks every datum queued
behind it, even those destined for idle outputs.  The frequency cost of
the structure itself lives in :mod:`repro.hw.timing`.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.fifo import Fifo


class ArbitratedCrossbar:
    """n-input, m-output crossbar with per-output round-robin arbitration.

    Items offered to input ``i`` are ``(dest, payload)`` tuples.  Call
    :meth:`tick` once per cycle with the per-output acceptance budget;
    it returns the delivered ``(dest, payload)`` pairs.
    """

    def __init__(self, num_inputs: int, num_outputs: int, fifo_depth: int,
                 combine_fn=None) -> None:
        if num_inputs < 1 or num_outputs < 1:
            raise ConfigError("crossbar needs at least one input and one output")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.inputs = [Fifo(fifo_depth) for _ in range(num_inputs)]
        self._rr = [0] * num_outputs   # per-output rotating priority pointer
        #: optional input-side coalescing: a pushed payload may merge with
        #: the input FIFO's tail (``combine_fn(tail, new) -> merged|None``),
        #: e.g. GraphDynS-style update coalescing before the crossbar.
        self._combine = combine_fn
        self.conflicts = 0             # losing requesters, summed per cycle

    # ------------------------------------------------------------------
    def can_offer(self, i: int) -> bool:
        return not self.inputs[i].full

    def offer(self, i: int, dest: int, payload) -> bool:
        """Push into input ``i``; False when the input FIFO is full."""
        if not 0 <= dest < self.num_outputs:
            raise ConfigError(f"crossbar dest {dest} out of range")
        fifo = self.inputs[i]
        if self._combine is not None and len(fifo):
            tail_dest, tail_payload = fifo.tail()
            if tail_dest == dest:
                merged = self._combine(tail_payload, payload)
                if merged is not None:
                    fifo.replace_tail((dest, merged))
                    return True
        if fifo.full:
            return False
        fifo.push((dest, payload))
        return True

    @property
    def occupancy(self) -> int:
        return sum(len(f) for f in self.inputs)

    @property
    def drained(self) -> bool:
        return all(f.empty for f in self.inputs)

    # ------------------------------------------------------------------
    def tick(self, output_budget: list[int]) -> list[tuple[int, object]]:
        """One cycle of arbitration.

        ``output_budget[d]`` is how many items output ``d`` can accept
        (usually 0 or 1).  Returns the delivered ``(dest, payload)``
        pairs; at most one item pops from each input (single read port).
        """
        if len(output_budget) != self.num_outputs:
            raise ConfigError(
                f"expected {self.num_outputs} budgets, got {len(output_budget)}")
        # Gather head requests per destination.
        requesters: dict[int, list[int]] = {}
        for i, fifo in enumerate(self.inputs):
            if not fifo.empty:
                dest = fifo.peek()[0]
                requesters.setdefault(dest, []).append(i)

        delivered: list[tuple[int, object]] = []
        for dest, inputs in requesters.items():
            budget = output_budget[dest]
            if budget <= 0:
                self.conflicts += len(inputs)
                continue
            grants = min(budget, 1, len(inputs))  # 1 item per output per cycle
            # rotating priority among this output's requesters
            ptr = self._rr[dest]
            inputs.sort(key=lambda i: (i - ptr) % self.num_inputs)
            for i in inputs[:grants]:
                dest_, payload = self.inputs[i].pop()
                delivered.append((dest_, payload))
                self._rr[dest] = (i + 1) % self.num_inputs
            self.conflicts += len(inputs) - grants
        return delivered
