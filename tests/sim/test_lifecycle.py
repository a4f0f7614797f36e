"""The one job lifecycle both scheduler engines drive.

* **Slot law** (:class:`TestSlotLaw`): a stream's pipeline slot is a FCFS
  single holder, so on random fleets, under both engines and both compute
  policies, each stream's served records sorted by start satisfy
  ``start == max(arrival, previous served finish)`` *exactly* — a start is
  a copied float (the submit time or the releasing job's finish), never a
  computed one — served jobs start in arrival order (the slot's FIFO)
  and one stream's served intervals never overlap.
* **Depth law** (:class:`TestDepthLaw`): on the same runs, a queued job
  found fewer than ``max_queue_depth`` jobs waiting, and a job shed at the
  bound found the slot held and exactly ``max_queue_depth`` waiting.
* **Chain law** (:class:`TestChainLaw`): on the same runs, a served
  question is followed by generation indices ``0..k-1``, each arriving at
  its predecessor's finish, cut short only by a shed.
* **No cyclic garbage** (:class:`TestNoCyclicGarbage`): a finished run,
  single-device or fleet (stealing and migrating too), is freed by
  reference counting alone; the cyclic collector finds nothing once its
  result is dropped.
* **Columns only** (:class:`TestFinishedRunKeepsColumns`): a finished run
  retains its record columns, its job table's static columns and its
  frozen timeline log — a few hundred bytes per record, no per-job
  Python object.
"""

from __future__ import annotations

import gc
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.interconnect import PCIE5_SWITCH
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.jobtable import ADM_BACKLOG, KIND_GENERATION, KIND_QUESTION
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


@pytest.fixture(scope="module")
def system():
    return edge_systems(default_llm_workload().model_bytes())["V-Rex8"]


#: one random run per example: the fleets every record-only law checks
random_runs = given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    num_streams=st.integers(min_value=1, max_value=5),
    frames=st.integers(min_value=0, max_value=6),
    load=st.floats(min_value=0.3, max_value=2.5),
    bursty=st.booleans(),
    engine=st.sampled_from(["reference", "array"]),
    compute=st.sampled_from(["private", "timesliced"]),
    depth=st.sampled_from([None, 1, 2]),
    question_tokens=st.sampled_from([None, 0, 32]),
    answer_tokens=st.integers(min_value=0, max_value=3),
)

#: overloaded runs with deep queues and long answer chains, so every law
#: meets a full queue and a chain of several tokens whatever hypothesis draws
overloaded = [
    example(
        seed=seed, num_streams=4, frames=6, load=2.5, bursty=bursty, engine=engine,
        compute=compute, depth=depth, question_tokens=32, answer_tokens=3,
    )  # fmt: skip
    for seed, bursty, engine, compute, depth in [
        (3, False, "array", "private", 1),
        (7, True, "reference", "timesliced", 2),
    ]
]


def with_overloaded(test):
    for case in overloaded:
        test = case(test)
    return random_runs(test)


def random_run(
    system, seed, num_streams, frames, load, bursty, engine, compute,
    depth, question_tokens, answer_tokens,
):  # fmt: skip
    plane = BatchLatencyModel()
    rng = np.random.default_rng(seed)
    profiles = [
        StreamProfile(kv_len=int(rng.integers(5_000, 45_000)), session_id=index)
        for index in range(num_streams)
    ]
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    rate = rate_for_load(load, solo, num_streams)
    process = BurstyArrivals.for_mean_rate(rate) if bursty else PoissonArrivals(rate_hz=rate)
    traces = process.generate(num_streams, frames, seed=seed)
    # questions land mid-trace, so generation chains interleave with
    # queued frames; a None / 0-token question is an inactive stage
    questions = [float(rng.uniform(0.0, 1.0)) for _ in range(num_streams)]
    config = SchedulerConfig(max_queue_depth=depth, compute=compute, quantum_s=1e-3)
    return ServingScheduler(plane, config, engine=engine).run(
        system,
        profiles,
        traces,
        question_arrivals=questions,
        question_tokens=[question_tokens] * num_streams,
        answer_tokens=answer_tokens,
    )


def served_in_slot_order(columns, stream: int) -> np.ndarray:
    """Row positions of ``stream``'s served records in the order they held its slot.

    Sorted by start, then finish: an inactive stage begins and ends at one
    instant, before the job its release starts there.
    """
    served = np.flatnonzero((columns.stream == stream) & ~columns.dropped)
    return served[np.lexsort((columns.finish[served], columns.start[served]))]


class TestSlotLaw:
    @settings(deadline=None)
    @random_runs
    def test_starts_are_fcfs_handoffs(self, system, **run):
        columns = random_run(system, **run).columns
        for stream in range(run["num_streams"]):
            previous_arrival = previous_finish = -np.inf
            for row in served_in_slot_order(columns, stream).tolist():
                start, arrival = columns.start[row], columns.arrival[row]
                assert start == max(arrival, previous_finish)
                assert start >= previous_finish  # no overlap on the stream's slot
                assert arrival >= previous_arrival  # FIFO: submit time is arrival
                previous_arrival, previous_finish = arrival, columns.finish[row]


class TestDepthLaw:
    """A stream queues at most ``max_queue_depth`` jobs behind its slot.

    An admitted job that queued (it began after it arrived) found fewer
    than ``max_queue_depth`` jobs waiting; a job shed at the bound
    (``ADM_BACKLOG``) found the slot held and exactly ``max_queue_depth``
    jobs waiting.  The jobs waiting at ``t`` are the served jobs that
    arrived before ``t`` and began after it; the holder is the served job
    with ``start <= t < finish``.

    *Same-instant rule.*  At one instant a stream's completions — each
    releasing its slot to the next queued job, then chaining its next
    generation job — precede its arrivals, and every active stage takes
    time.  So a job that began at the instant another was submitted began
    before that submit, a job that finished then had released the slot,
    and a job that began at the instant it arrived never queued.  The
    records do not say in which order two jobs of one stream that arrived
    at one instant were submitted, so such a job is not judged (random
    traces never tie).
    """

    @settings(deadline=None)
    @with_overloaded
    def test_queue_never_exceeds_the_depth_bound(self, system, **run):
        result = random_run(system, **run)
        columns = result.columns
        max_depth = result.config.max_queue_depth
        bound_sheds = columns.admission == ADM_BACKLOG
        if max_depth is None:
            assert not bound_sheds.any()
            return
        for stream in range(run["num_streams"]):
            mine = np.flatnonzero(columns.stream == stream)
            order = served_in_slot_order(columns, stream)
            arrival = columns.arrival[order]
            start = columns.start[order]
            finish = columns.finish[order]
            for row in mine.tolist():
                t = columns.arrival[row]
                if (columns.arrival[mine] == t).sum() > 1:
                    continue  # a same-instant arrival: submit order unknown
                if not columns.dropped[row]:
                    (position,) = np.flatnonzero(order == row)
                    if columns.start[row] > t:  # it queued
                        ahead = slice(0, position)
                        waiting = int(((arrival[ahead] < t) & (start[ahead] > t)).sum())
                        assert waiting < max_depth, (stream, row, waiting)
                elif bound_sheds[row]:
                    waiting = int(((arrival < t) & (start > t)).sum())
                    held = bool(((start <= t) & (t < finish)).any())
                    assert held and waiting == max_depth, (stream, row, held, waiting)


class TestChainLaw:
    """A served question with ``answer_tokens = k`` chains its answer.

    Its stream's generation records are indices ``0..m-1`` with ``m <=
    k``: index 0 arrives at the question's finish and each next index at
    its predecessor's finish, every one but the last is served, and the
    chain stops early (``m < k``) only at a shed.  A stream whose question
    was shed (or that has none) records no generation job.

    *Same-instant rule.*  A chained job's arrival is its predecessor's
    finish, copied, so the law compares with ``==``; it is submitted at
    that instant after the predecessor released its slot.
    """

    @settings(deadline=None)
    @with_overloaded
    def test_served_question_chains_its_answer(self, system, **run):
        columns = random_run(system, **run).columns
        k = run["answer_tokens"]
        for stream in range(run["num_streams"]):
            mine = columns.stream == stream
            (questions,) = np.nonzero(mine & (columns.kind == KIND_QUESTION))
            chain = np.flatnonzero(mine & (columns.kind == KIND_GENERATION))
            chain = chain[np.argsort(columns.index[chain])]
            if not len(questions) or columns.dropped[questions[0]]:
                assert not len(chain), stream
                continue
            m = len(chain)
            assert columns.index[chain].tolist() == list(range(m)), stream
            assert m <= k, stream
            previous = questions[0]
            for row in chain.tolist():
                assert not columns.dropped[previous], (stream, row)
                assert columns.arrival[row] == columns.finish[previous], (stream, row)
                previous = row
            if m < k:
                assert m and columns.dropped[chain[-1]], (stream, m, k)


class TestNoCyclicGarbage:
    @staticmethod
    def assert_no_cycles(run):
        run()  # warm the plane's demand table and every lazy import
        gc.collect()
        gc.disable()
        try:
            result = run()
            assert result.served
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    @pytest.mark.parametrize("devices", [None, 2], ids=["serving", "fleet2"])
    def test_run_leaves_no_cycles(self, system, engine, compute, devices):
        plane = BatchLatencyModel()
        profiles = [StreamProfile(kv_len=10_000 + 3_000 * i, session_id=i) for i in range(8)]
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(1.2, solo, 8)).generate(8, 8, seed=1)
        config = SchedulerConfig(compute=compute, deadline_s=2 * solo, max_queue_depth=2)
        if devices is None:
            scheduler = ServingScheduler(plane, config, engine=engine)
        else:
            fleet = FleetConfig(num_devices=devices)
            scheduler = FleetScheduler(plane, config, fleet, engine=engine)

        self.assert_no_cycles(
            lambda: scheduler.run(
                system, profiles, traces, question_arrivals=[1.0] * 8, answer_tokens=2
            )
        )

    @pytest.mark.parametrize("engine", ["reference", "array"])
    def test_stealing_fleet_leaves_no_cycles(self, system, engine):
        """The router's estimator, steal and ship closures free themselves too."""
        plane = BatchLatencyModel()
        profiles = [StreamProfile(kv_len=10_000 + 3_000 * i, session_id=i) for i in range(8)]
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals.for_mean_rate(rate_for_load(3.0, solo, 8)).generate(8, 8, seed=3)
        fleet = FleetConfig(
            num_devices=3,
            router="kv_residency",
            interconnect=PCIE5_SWITCH,
            migrate_backlog_s=2.0 * solo,
            work_stealing=True,
        )
        scheduler = FleetScheduler(
            plane, SchedulerConfig(deadline_s=3.0 * solo, max_queue_depth=4), fleet, engine=engine
        )

        def run():
            result = scheduler.run(
                system,
                profiles,
                traces,
                question_arrivals=[float(trace[-1]) for trace in traces],
                answer_tokens=2,
                home_devices={i: 0 for i in range(4)},
            )
            assert result.steal_count and result.placement_migration_count
            return result

        self.assert_no_cycles(run)


class TestFinishedRunKeepsColumns:
    #: bytes a finished ScheduleResult may retain per record
    BUDGET_B = 300

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize(
        ("compute", "streams"), [("private", 256), ("timesliced", 64)]
    )
    def test_retained_bytes_per_record(self, system, engine, compute, streams):
        plane = BatchLatencyModel()
        rng = np.random.default_rng(5)
        profiles = [
            StreamProfile(kv_len=int(rng.integers(10_000, 50_000)), session_id=i)
            for i in range(streams)
        ]
        traces = PoissonArrivals(rate_hz=4.0).generate(streams, 64, seed=5)
        scheduler = ServingScheduler(
            plane, SchedulerConfig(compute=compute, max_queue_depth=4), engine=engine
        )

        def run():
            return scheduler.run(
                system,
                profiles,
                traces,
                question_arrivals=[float(trace[-1]) for trace in traces],
                answer_tokens=3,
            )

        run()  # warm the plane's demand table and every lazy import
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.dropped and result.served
        per_record = retained / len(result.columns)
        assert per_record <= self.BUDGET_B, f"{per_record:.0f} B retained per record"
        table = result._table
        per_job = [
            name
            for name, value in vars(table).items()
            if isinstance(value, (list, array, bytearray)) and len(value) == table.num_jobs
        ]
        assert not per_job, f"finalized JobTable still holds per-job buffers {per_job}"
        # the timeline is derived from numpy columns over the served jobs
        per_mode = (
            ("compute_submit", "compute_finish", "prediction_end", "stage_log")
            if compute == "timesliced"
            else ("request",)
        )
        sources = table.timeline_source
        assert set(sources) == {"job", "start", "dre_wait", "transfer_start", "fetch_s", *per_mode}
        assert all(isinstance(column, np.ndarray) for column in sources.values())
        assert len(sources["job"]) == result.served
