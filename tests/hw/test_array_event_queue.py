"""Edge-case and policy-equivalence tests for the array event machinery.

The array scheduler engine rests on three primitives added for it:
:func:`repro.hw.event.pack_subkey` (one-integer tie-breaking),
:class:`repro.hw.event.ArrayEventQueue` (static lane + dynamic heap merged
in one total order) and
:class:`repro.hw.event.IndexRing` (allocation-free FIFO lanes).  These
tests pin the corners the engine's correctness rests on: same-timestamp
priority/key ties, the lane-vs-dynamic merge rule at exact ties,
zero-gap events, and hypothesis equivalence of every policy in
``ArrayEventQueue.POLICIES`` against the sorted order and against the
EventLoop heap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.event import (
    ArrayEventQueue,
    EventLoop,
    IndexRing,
    MAX_SUBKEY_RANK,
    MAX_SUBKEY_SEQ,
    pack_subkey,
)


class TestPackSubkey:
    def test_integer_order_equals_tuple_order(self):
        triples = [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
            (1, 2, 3),
            (2, 0, MAX_SUBKEY_SEQ - 1),
            (2, MAX_SUBKEY_RANK - 1, 0),
        ]
        packed = [pack_subkey(*t) for t in triples]
        assert sorted(packed) == [pack_subkey(*t) for t in sorted(triples)]
        # strictly monotone: distinct triples pack to distinct integers
        assert len(set(packed)) == len(triples)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.tuples(
            st.integers(0, 7),
            st.integers(0, MAX_SUBKEY_RANK - 1),
            st.integers(0, MAX_SUBKEY_SEQ - 1),
        ),
        b=st.tuples(
            st.integers(0, 7),
            st.integers(0, MAX_SUBKEY_RANK - 1),
            st.integers(0, MAX_SUBKEY_SEQ - 1),
        ),
    )
    def test_order_is_lexicographic(self, a, b):
        assert (pack_subkey(*a) < pack_subkey(*b)) == (a < b)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_subkey(0, 0, MAX_SUBKEY_SEQ)
        with pytest.raises(ValueError):
            pack_subkey(0, MAX_SUBKEY_RANK, 0)
        with pytest.raises(ValueError):
            pack_subkey(-1, 0, 0)
        with pytest.raises(ValueError):
            pack_subkey(0, 0, -1)


def _drain(queue: ArrayEventQueue) -> list[tuple[float, int, int]]:
    out = []
    while len(queue):
        out.append(queue.pop())
    return out


class TestArrayEventQueueEdgeCases:
    @pytest.mark.parametrize("policy", ArrayEventQueue.POLICIES)
    def test_same_timestamp_ties_resolve_by_priority_then_key_then_seq(
        self, policy
    ):
        queue = ArrayEventQueue(policy)
        # all at t=1.0; insertion order deliberately scrambled
        events = [
            (pack_subkey(1, 0, 0), 10),
            (pack_subkey(0, 1, 0), 11),
            (pack_subkey(0, 0, 1), 12),
            (pack_subkey(0, 0, 0), 13),
            (pack_subkey(1, 1, 0), 14),
        ]
        for sub, payload in events:
            queue.push(1.0, sub, payload)
        drained = _drain(queue)
        assert [payload for _, _, payload in drained] == [13, 12, 11, 10, 14]
        assert all(t == 1.0 for t, _, _ in drained)

    @pytest.mark.parametrize("policy", ArrayEventQueue.POLICIES)
    def test_lane_wins_exact_ties_against_dynamic_pushes(self, policy):
        queue = ArrayEventQueue(policy)
        sub = pack_subkey(0, 0, 0)
        queue.preload([1.0], [sub], [100])
        queue.push(1.0, sub, 200)  # identical (time, subkey)
        first = queue.pop()
        second = queue.pop()
        assert first == (1.0, sub, 100)  # static lane preferred on ties
        assert second == (1.0, sub, 200)

    @pytest.mark.parametrize("policy", ArrayEventQueue.POLICIES)
    def test_zero_gap_events_pop_in_subkey_order(self, policy):
        queue = ArrayEventQueue(policy)
        # an event chain that fires "now" repeatedly: same time, rising seq
        for seq in (3, 0, 2, 1):
            queue.push(0.0, pack_subkey(0, 0, seq), seq)
        assert [p for _, _, p in _drain(queue)] == [0, 1, 2, 3]

    def test_preload_requires_exhausted_lane(self):
        queue = ArrayEventQueue()
        queue.preload([0.0], [0], [0])
        with pytest.raises(ValueError):
            queue.preload([1.0], [0], [0])
        queue.pop()
        queue.preload([1.0], [0], [1])  # exhausted lane: allowed again
        assert queue.pop() == (1.0, 0, 1)

    def test_preload_shape_mismatch_rejected(self):
        queue = ArrayEventQueue()
        with pytest.raises(ValueError):
            queue.preload([0.0, 1.0], [0], [0])

    def test_pop_from_empty_raises(self):
        with pytest.raises(IndexError):
            ArrayEventQueue().pop()

    @pytest.mark.parametrize("policy", ["fifo", "sorted", "calendar"])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(ValueError):
            ArrayEventQueue(policy)

    def test_len_counts_down_to_the_last_pop(self):
        queue = ArrayEventQueue()
        queue.preload([0.25, 2.0], [1, 2], [10, 20])
        queue.push(0.25, 0, 30)
        popped = []
        while len(queue):
            popped.append(queue.pop())
        assert popped == [(0.25, 0, 30), (0.25, 1, 10), (2.0, 2, 20)]
        assert queue.popped == 3


class TestPolicyEquivalence:
    """Every policy (and the EventLoop heap) shares one total order."""

    @settings(max_examples=30, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                # coarse time grid to force plenty of exact-time ties
                st.integers(0, 5),
                st.integers(0, 3),  # priority
                st.integers(0, 3),  # key rank
            ),
            min_size=0,
            max_size=40,
        ),
        preload_split=st.integers(0, 40),
    )
    def test_policies_drain_identically(self, events, preload_split):
        stamped = [
            (time_tick / 4.0, pack_subkey(priority, rank, seq), seq)
            for seq, (time_tick, priority, rank) in enumerate(events)
        ]
        static = stamped[:preload_split]
        dynamic = stamped[preload_split:]
        drains = []
        for policy in ArrayEventQueue.POLICIES:
            queue = ArrayEventQueue(policy)
            if static:
                queue.preload(*(list(column) for column in zip(*static, strict=True)))
            for time_s, sub, payload in dynamic:
                queue.push(time_s, sub, payload)
            drains.append(_drain(queue))
        assert all(drain == drains[0] for drain in drains)
        # and the drain is sorted by (time, subkey)
        keys = [(t, sub) for t, sub, _ in drains[0]]
        assert keys == sorted(keys)

    @settings(max_examples=30, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)),
            min_size=0,
            max_size=30,
        )
    )
    def test_queue_order_matches_event_loop_heap(self, events):
        """The packed-subkey order is the EventLoop's tuple order."""
        fired: list[int] = []
        loop = EventLoop()
        for seq, (time_tick, priority, rank) in enumerate(events):
            loop.schedule(
                time_tick / 4.0,
                lambda seq=seq: fired.append(seq),
                priority=priority,
                key=(rank,),
            )
        loop.run()
        queue = ArrayEventQueue()
        for seq, (time_tick, priority, rank) in enumerate(events):
            queue.push(time_tick / 4.0, pack_subkey(priority, rank, seq), seq)
        assert [payload for _, _, payload in _drain(queue)] == fired


class TestIndexRing:
    def test_fifo_per_lane(self):
        ring = IndexRing(capacity=6, lanes=2)
        ring.push(0, 3)
        ring.push(0, 1)
        ring.push(1, 5)
        ring.push(0, 4)
        assert ring.depth(0) == 3 and ring.depth(1) == 1
        assert [ring.pop(0) for _ in range(3)] == [3, 1, 4]
        assert ring.depth(0) == 0
        assert ring.pop(1) == 5

    def test_pop_empty_lane_raises(self):
        ring = IndexRing(capacity=2, lanes=1)
        with pytest.raises(IndexError):
            ring.pop(0)

    def test_repush_after_pop_round_robins(self):
        ring = IndexRing(capacity=3, lanes=1)
        for index in (0, 1, 2):
            ring.push(0, index)
        first = ring.pop(0)
        ring.push(0, first)  # requeue at the tail
        assert [ring.pop(0) for _ in range(3)] == [1, 2, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexRing(capacity=-1)
        with pytest.raises(ValueError):
            IndexRing(capacity=1, lanes=0)
