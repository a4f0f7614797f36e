"""Edge-case tests for the event substrate (:mod:`repro.hw.event`).

The serving scheduler's correctness rests on a handful of precise loop
semantics: deterministic ``(time, priority, key, insertion)`` tie-breaking,
``run(until_s=...)`` boundary inclusivity and zero-duration
pass-through.  The
:class:`PreemptiveResource` tests pin the round-robin server's contract:
work conservation (quantum-invariant drain time), exact completion
accounting, the ``n * w + (n - 1) * q`` sojourn bound, and convergence to
ideal processor sharing as the quantum shrinks.  ``TestCoreAgainstSliceSpec``
holds the slice-per-event implementation the server used to be as an
executable spec and requires the array-state core to match it bit for
bit.
"""

from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.event import (
    EventLoop,
    PreemptiveResource,
    ResourceQueue,
    Timeline,
)


class TestEventLoopSemantics:
    def test_ties_fire_in_priority_then_key_then_insertion_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append("late-key"), priority=1, key=(9,))
        loop.schedule(1.0, lambda: fired.append("completion"), priority=0, key=(5,))
        loop.schedule(1.0, lambda: fired.append("early-key"), priority=1, key=(2,))
        loop.schedule(1.0, lambda: fired.append("early-key-second"), priority=1, key=(2,))
        loop.schedule(0.5, lambda: fired.append("earlier-time"), priority=7, key=(99,))
        loop.run()
        assert fired == [
            "earlier-time",
            "completion",
            "early-key",
            "early-key-second",
            "late-key",
        ]

    def test_run_until_is_inclusive_and_preserves_later_events(self):
        loop = EventLoop()
        fired = []
        for time_s in (0.5, 1.0, 1.5):
            loop.schedule(time_s, lambda t=time_s: fired.append(t))
        assert loop.run(until_s=1.0) == 2  # the event AT the boundary fires
        assert fired == [0.5, 1.0]
        assert loop.now_s == 1.0
        assert len(loop) == 1  # the 1.5 s event stays queued
        assert loop.run() == 1
        assert fired == [0.5, 1.0, 1.5]
        assert loop.events_processed == 3

    def test_run_until_before_first_event_fires_nothing(self):
        loop = EventLoop()
        loop.schedule(2.0, lambda: None)
        assert loop.run(until_s=1.999) == 0
        assert loop.now_s == 0.0  # the clock only advances on fired events
        assert len(loop) == 1

    def test_scheduling_in_the_past_raises(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(0.5, lambda: None)

    def test_scheduling_at_nan_raises(self):
        """A NaN time would fire at ``now_s = nan``, after which no past time
        compares as past; it is rejected like one.  ``inf`` stays legal."""
        loop = EventLoop()
        with pytest.raises(ValueError, match="nan"):
            loop.schedule(float("nan"), lambda: None)
        assert len(loop) == 0
        loop.schedule(float("inf"), lambda: None)
        assert loop.run() == 1
        assert loop.now_s == float("inf")

    def test_events_scheduled_at_now_during_callback_fire(self):
        loop = EventLoop()
        fired = []

        def chain():
            fired.append("first")
            loop.schedule(loop.now_s, lambda: fired.append("chained"))

        loop.schedule(1.0, chain)
        loop.run()
        assert fired == ["first", "chained"]


class TestZeroDuration:
    def test_zero_service_requests_pass_through_the_queue(self):
        queue = ResourceQueue()
        queue.enqueue(0.0, 1.0)
        passthrough = queue.enqueue(0.5, 0.0)
        assert passthrough.start_s == 0.5  # does not wait for the busy server
        assert passthrough.finish_s == passthrough.arrival_s
        assert queue.free_at_s == 1.0

    def test_zero_duration_timeline_tasks_are_recorded(self):
        timeline = Timeline()
        task = timeline.add("marker", "resource", 1.0, 0.0)
        assert task.end_s == 1.0
        assert timeline.makespan_s == 1.0
        assert timeline.busy_time_s("resource") == 0.0

    def test_zero_work_preemptive_jobs_complete_instantly_while_busy(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=0.5)
        busy = server.submit(2.0, key=(0,))
        finished = []
        job = server.submit(0.0, callback=finished.append, key=(1,))
        assert job.finish_s == 0.0 and finished == [job]
        loop.run()
        assert busy.finish_s == pytest.approx(2.0)


class TestPreemptiveResource:
    def test_quantum_validation(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            PreemptiveResource(loop, quantum_s=0.0)
        with pytest.raises(ValueError):
            PreemptiveResource(loop, quantum_s=-1.0)

    def test_negative_work_rejected(self):
        loop = EventLoop()
        server = PreemptiveResource(loop)
        with pytest.raises(ValueError):
            server.submit(-0.1)

    @pytest.mark.parametrize("work_s", [math.nan, math.inf])
    def test_non_finite_work_rejected(self, work_s):
        """``remaining <= quantum`` is never true of inf or nan work: both
        used to spin the loop forever; now nothing is queued at all."""
        loop = EventLoop()
        server = PreemptiveResource(loop)
        with pytest.raises(ValueError, match="work_s"):
            server.submit(work_s)
        assert server._core.running < 0 and len(loop) == 0

    def test_round_robin_interleaves_aligned_jobs(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1.0)
        jobs = [server.submit(2.0, key=(i,)) for i in range(2)]
        loop.run()
        # slices alternate: A[0,1] B[1,2] A[2,3] B[3,4]
        assert jobs[0].finish_s == pytest.approx(3.0)
        assert jobs[1].finish_s == pytest.approx(4.0)
        assert jobs[0].first_start_s == 0.0
        assert jobs[1].first_start_s == pytest.approx(1.0)
        assert server.busy_s() == pytest.approx(4.0)

    def test_completion_is_exact_no_accumulated_float_error(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=0.1)
        job = server.submit(0.1 * 7)  # 0.7000000000000001-ish work
        loop.run()
        assert job.served_s == job.work_s  # assigned exactly, not summed
        assert job.finish_s == pytest.approx(job.work_s, rel=1e-12)

    def test_late_arrival_waits_for_the_running_slice(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1.0)
        server.submit(3.0, key=(0,))
        late = []
        loop.schedule(0.5, lambda: late.append(server.submit(1.0, key=(1,))))
        loop.run()
        # the running slice ends at 1.0; the late job runs [1, 2]
        assert late[0].first_start_s == pytest.approx(1.0)
        assert late[0].finish_s == pytest.approx(2.0)

    @given(
        works=st.lists(
            st.floats(min_value=1e-3, max_value=0.2, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        quantum_s=st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
    )
    def test_drain_time_is_quantum_invariant_and_sojourns_bounded(
        self, works, quantum_s
    ):
        """Work conservation: aligned jobs drain at exactly ``sum(works)``;
        every sojourn obeys the round-robin bound ``n * w + (n - 1) * q``."""
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=quantum_s)
        jobs = [server.submit(w, key=(i,)) for i, w in enumerate(works)]
        loop.run()
        assert max(j.finish_s for j in jobs) == pytest.approx(sum(works), rel=1e-9)
        n = len(works)
        for job in jobs:
            bound = n * job.work_s + (n - 1) * quantum_s
            assert job.finish_s - job.arrival_s <= bound + 1e-12
        assert max((job.finish_s - job.arrival_s) / job.work_s for job in jobs) >= 1.0 - 1e-12

    @given(
        works=st.lists(
            st.floats(min_value=5e-3, max_value=0.2, allow_nan=False),
            min_size=2,
            max_size=5,
        )
    )
    def test_quantum_to_zero_converges_to_processor_sharing(self, works):
        """RR finish times approach the analytic PS schedule within n * q."""

        def ps_finishes(works):
            order = np.argsort(np.asarray(works), kind="stable")
            finishes = {}
            elapsed = 0.0
            shortest_done = 0.0
            remaining = len(works)
            for index in order:
                elapsed += (works[index] - shortest_done) * remaining
                finishes[index] = elapsed
                shortest_done = works[index]
                remaining -= 1
            return [finishes[i] for i in range(len(works))]

        ideal = ps_finishes(works)
        previous_bound = None
        for quantum_s in (4e-3, 1e-3, 2.5e-4):
            loop = EventLoop()
            server = PreemptiveResource(loop, quantum_s=quantum_s)
            jobs = [server.submit(w, key=(i,)) for i, w in enumerate(works)]
            loop.run()
            error = max(abs(j.finish_s - f) for j, f in zip(jobs, ideal, strict=True))
            bound = len(works) * quantum_s
            assert error <= bound + 1e-12
            if previous_bound is not None:
                assert bound < previous_bound  # the guarantee tightens
            previous_bound = bound


class TestHistoryIsOptIn:
    def test_servers_keep_no_history_by_default(self):
        loop = EventLoop()
        server = PreemptiveResource(loop)
        server.submit(0.003, key=(0,))
        server.submit(0.0, key=(1,))
        loop.run()
        assert server.jobs == []
        server.assert_drained()


class TestPreemptiveAccounting:
    """The O(1) accounting accumulators match a full rescan of the jobs.

    ``busy_s()`` used to re-sum ``served_s`` over every job ever submitted
    on each poll; it is now a slice-granted accumulator.  The accumulator
    and the rescan associate their float additions differently (slice
    grant order vs per-job submission order), so the property pins them
    together at tight relative tolerance, not bit-exactly.
    """

    @staticmethod
    def _run_staggered(works, arrivals, quantum_s, record=True):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=quantum_s, record=record)
        jobs = []
        for index, (work, arrival) in enumerate(zip(works, arrivals, strict=True)):
            loop.schedule(
                arrival,
                lambda work=work, index=index: jobs.append(
                    server.submit(work, key=(index,))
                ),
            )
        loop.run()
        return server, jobs

    @given(
        works=st.lists(
            st.floats(min_value=1e-3, max_value=0.2, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
            min_size=6,
            max_size=6,
        ),
        quantum_s=st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
    )
    def test_busy_accumulator_matches_job_rescan(self, works, gaps, quantum_s):
        arrivals = np.cumsum(gaps)[: len(works)]
        server, jobs = self._run_staggered(works, arrivals, quantum_s)
        rescan = sum(job.served_s for job in server.jobs)
        assert server.busy_s() == pytest.approx(rescan, rel=1e-9)
        assert server.busy_s() == pytest.approx(sum(works), rel=1e-9)
        server.assert_drained()

    def test_record_false_runs_identically_and_retains_nothing(self):
        works = [0.07, 0.011, 0.19, 0.003]
        arrivals = [0.0, 0.01, 0.01, 0.25]
        recorded, jobs_rec = self._run_staggered(works, arrivals, 1e-3, record=True)
        bare, jobs_bare = self._run_staggered(works, arrivals, 1e-3, record=False)
        for a, b in zip(jobs_rec, jobs_bare, strict=True):
            assert b.finish_s == a.finish_s
            assert b.first_start_s == a.first_start_s
            assert b.served_s == a.served_s
        assert bare.busy_s() == recorded.busy_s()
        assert [j.arrival_s for j in jobs_bare] == [j.arrival_s for j in jobs_rec]
        assert len(recorded.jobs) == len(works)
        assert bare.jobs == []  # record=False retains no per-job history
        bare.assert_drained()  # accumulator checks still run without records

    def test_busy_accumulator_counts_partial_slices_midrun(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1.0)
        server.submit(2.5, key=(0,))
        loop.run(until_s=2.0)
        # two full slices granted so far; the final half slice is pending
        assert server.busy_s() == pytest.approx(2.0)
        loop.run()
        assert server.busy_s() == pytest.approx(2.5)


class SlicePerEventServer:
    """Executable spec: the round-robin server with every quantum expiry
    fired as its own loop event (what ``PreemptiveResource`` was before the
    array-state core resolved rotation runs in place)."""

    def __init__(self, loop, quantum_s, priority=0):
        self.loop, self.quantum_s, self.priority = loop, quantum_s, priority
        self.ready, self.running, self.busy = deque(), None, 0.0

    def submit(self, work_s, callback=None, key=()):
        job = SimpleNamespace(key=key, work_s=work_s, served_s=0.0, callback=callback)
        job.first_start_s = job.finish_s = None
        if work_s == 0.0:
            job.first_start_s = job.finish_s = self.loop.now_s
            if callback is not None:
                callback(job)
            return job
        self.ready.append(job)
        if self.running is None:
            self._dispatch()
        return job

    def _dispatch(self):
        job = self.running = self.ready.popleft()
        if job.first_start_s is None:
            job.first_start_s = self.loop.now_s
        slice_s = min(self.quantum_s, job.work_s - job.served_s)
        self.loop.schedule(
            self.loop.now_s + slice_s, self._expire, priority=self.priority, key=job.key
        )

    def _expire(self):
        job, self.running = self.running, None
        remaining = job.work_s - job.served_s
        if remaining <= self.quantum_s:
            self.busy += remaining
            job.served_s, job.finish_s = job.work_s, self.loop.now_s
            if self.ready:
                self._dispatch()
            if job.callback is not None:
                job.callback(job)
        else:
            self.busy += self.quantum_s
            job.served_s += self.quantum_s
            self.ready.append(job)
            self._dispatch()

    def busy_s(self):
        return self.busy

    def backlog_s(self):
        total = 0.0
        for job in self.ready:
            total += job.work_s - job.served_s
        if self.running is not None:
            total += self.running.work_s - self.running.served_s
        return total


SERVER_PRIORITY = 1

# works are multiples of 1/64 and quanta powers of two so that slice ends,
# arrivals and chunk boundaries collide exactly (the tie cases), plus free
# floats so that the accumulated rounding is exercised too
_grid = st.integers(0, 40).map(lambda n: n / 64)
_work = st.one_of(_grid, st.floats(min_value=0.0, max_value=0.6, allow_nan=False))
_time = st.one_of(_grid, st.floats(min_value=0.0, max_value=0.8, allow_nan=False))
_key = st.tuples(st.integers(0, 3))
_job = st.tuples(_time, _work, _key, st.integers(0, 2), st.none() | _work)
_tie = st.tuples(st.integers(0, 10_000), st.integers(0, 2), _key, st.none() | _work)


def _play(make_server, quantum_s, jobs, ties, chunks, expiries=None):
    """Drive one scenario; returns everything observable, in order.

    ``jobs`` are ``(arrival, work, key, priority, follow-up work)`` submit
    events; a follow-up is submitted from the completion callback.  ``ties``
    are ``(expiry ordinal, priority, key, work)`` external events placed
    exactly at a quantum-expiry time of the bare scenario (``expiries``,
    taken from a first pass of the spec), below, at and above the server's
    ``(priority, key)``; they poll the server and may submit.  ``chunks``
    are ``run(until_s=...)`` boundaries, polled after every chunk.
    """
    loop = EventLoop()
    server = make_server(loop, quantum_s)
    submitted, completions, polls = [], [], []

    def poll(tag):
        # jobs ready behind the running slice: the spec's ring, or the real core's
        depth = len(getattr(server, "_core", server).ready)
        polls.append((tag, loop.now_s, server.busy_s(), server.backlog_s(), depth))

    def submit(work_s, key, follow_up=None):
        ordinal = len(submitted)
        submitted.append(None)

        def done(job):
            completions.append(ordinal)
            if follow_up is not None:
                submit(follow_up, key)

        submitted[ordinal] = server.submit(work_s, done, key)

    for arrival, work_s, key, priority, follow_up in jobs:
        loop.schedule(
            arrival,
            lambda work_s=work_s, key=key, follow_up=follow_up: submit(work_s, key, follow_up),
            priority=priority,
            key=key,
        )
    boundaries = list(chunks)
    if expiries:
        for ordinal, priority, key, work_s in ties:
            at = expiries[ordinal % len(expiries)]

            def tie(work_s=work_s, key=key):
                poll("tie")
                if work_s is not None:
                    submit(work_s, key)

            loop.schedule(at, tie, priority=priority, key=key)
        # also stop a chunk exactly on an expiry: the boundary is inclusive
        boundaries += [expiries[ordinal % len(expiries)] for ordinal, *_ in ties[:2]]
    fired = 0
    for until_s in sorted(boundaries):
        fired += loop.run(until_s=until_s)
        poll("chunk")
    fired += loop.run()
    poll("end")
    per_job = [(j.first_start_s, j.finish_s, j.served_s) for j in submitted]
    return (per_job, completions, polls, loop.events_processed), fired


class TestCoreAgainstSliceSpec:
    @given(
        quantum_s=st.sampled_from([1 / 64, 1 / 32, 1 / 256])
        | st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
        jobs=st.lists(_job, min_size=1, max_size=6),
        ties=st.lists(_tie, max_size=4),
        chunks=st.lists(_time, max_size=4),
        record=st.booleans(),
    )
    def test_bit_for_bit_against_slice_per_event_spec(
        self, quantum_s, jobs, ties, chunks, record
    ):
        def spec(loop, quantum_s):
            return SlicePerEventServer(loop, quantum_s, SERVER_PRIORITY)

        expiries = []

        def logging_spec(loop, quantum_s):
            server = spec(loop, quantum_s)
            expire = server._expire

            def logged():
                expiries.append(loop.now_s)
                expire()

            server._expire = logged
            return server

        def real(loop, quantum_s):
            return PreemptiveResource(
                loop, quantum_s=quantum_s, priority=SERVER_PRIORITY, record=record
            )

        _play(logging_spec, quantum_s, jobs, (), ())
        expected, spec_fired = _play(spec, quantum_s, jobs, ties, chunks, expiries)
        observed, real_fired = _play(real, quantum_s, jobs, ties, chunks, expiries)
        assert observed == expected  # no tolerance anywhere
        assert spec_fired == expected[-1]  # the spec fires every logical event
        assert real_fired <= spec_fired

    def test_run_until_stops_mid_rotation(self):
        """An empty heap is not an open horizon: ``until_s`` bounds the run."""
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1 / 64)
        a = server.submit(1.0, key=(0,))
        b = server.submit(1.0, key=(1,))
        assert loop.run(until_s=10.5 / 64) == 1  # one queued event, ten slices
        assert loop.now_s == 10 / 64 and loop.events_processed == 10
        assert (a.served_s, b.served_s) == (5 / 64, 5 / 64)
        assert server.busy_s() == 10 / 64 and server.backlog_s() == 2.0 - 10 / 64
        # a slice ending exactly at the boundary still fires (as a queued event)
        assert loop.run(until_s=12 / 64) == 2
        assert loop.now_s == 12 / 64 and loop.events_processed == 12
        loop.run()
        assert (a.finish_s, b.finish_s) == (2.0 - 1 / 64, 2.0)
        assert loop.events_processed == 128
