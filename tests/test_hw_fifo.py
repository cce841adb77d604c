"""Unit + property tests for the bounded FIFO model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, FifoOverflowError, SimulationError
from repro.hw import Fifo


class TestFifo:
    def test_order_preserved(self):
        f = Fifo(4)
        for x in (1, 2, 3):
            f.push(x)
        assert [f.pop() for _ in range(3)] == [1, 2, 3]

    def test_capacity_enforced(self):
        f = Fifo(2)
        f.push(1)
        f.push(2)
        assert f.full
        with pytest.raises(OverflowError):
            f.push(3)

    def test_free_and_len(self):
        f = Fifo(3)
        assert f.free == 3 and len(f) == 0 and f.empty
        f.push("a")
        assert f.free == 2 and len(f) == 1 and not f.empty

    def test_peek_does_not_pop(self):
        f = Fifo(2)
        f.push(7)
        assert f.peek() == 7
        assert len(f) == 1

    def test_overflow_error_is_actionable(self):
        f = Fifo(2)
        f.push(1)
        f.push(2)
        with pytest.raises(FifoOverflowError, match=r"occupancy 2/2"):
            f.push(3)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Fifo(0)

    @given(ops=st.lists(st.one_of(st.integers(0, 100), st.none()), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_behaves_like_bounded_deque(self, ops):
        """Push ints / pop on None; must match a plain list model."""
        from collections import deque
        f, model = Fifo(8), deque()
        for op in ops:
            if op is None:
                if model:
                    assert f.pop() == model.popleft()
                else:
                    assert f.empty
            else:
                if len(model) < 8:
                    f.push(op)
                    model.append(op)
                else:
                    assert f.full
            assert len(f) == len(model)


class TestOverflowTaxonomy:
    """Overflow is a simulator-invariant violation AND an OverflowError.

    The simulator's deliberate failures all derive from ``ReproError``;
    pre-taxonomy callers that catch ``OverflowError`` keep working.
    """

    def test_push_raises_simulation_error(self):
        f = Fifo(1)
        f.push(1)
        with pytest.raises(SimulationError):
            f.push(2)

    def test_push_keeps_overflow_error_compatibility(self):
        f = Fifo(1)
        f.push(1)
        with pytest.raises(OverflowError):
            f.push(2)
