"""The one job lifecycle both scheduler engines drive.

* **Slot law** (:class:`TestSlotLaw`): a stream's pipeline slot is a FCFS
  single holder, so on random fleets, under both engines and both compute
  policies, each stream's served records sorted by start satisfy
  ``start == max(arrival, previous served finish)`` *exactly* — a start is
  a copied float (the submit time or the releasing job's finish), never a
  computed one — served jobs start in arrival order (the slot's FIFO)
  and one stream's served intervals never overlap.
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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.interconnect import PCIE5_SWITCH
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


@pytest.fixture(scope="module")
def system():
    return edge_systems(default_llm_workload().model_bytes())["V-Rex8"]


class TestSlotLaw:
    @settings(deadline=None)
    @given(
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
    def test_starts_are_fcfs_handoffs(
        self, system, seed, num_streams, frames, load, bursty, engine, compute,
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
        result = ServingScheduler(plane, config, engine=engine).run(
            system,
            profiles,
            traces,
            question_arrivals=questions,
            question_tokens=[question_tokens] * num_streams,
            answer_tokens=answer_tokens,
        )
        columns = result.columns
        for stream in range(num_streams):
            served = np.flatnonzero((columns.stream == stream) & ~columns.dropped)
            served = served[np.lexsort((columns.finish[served], columns.start[served]))]
            previous_arrival = previous_finish = -np.inf
            for row in served.tolist():
                start, arrival = columns.start[row], columns.arrival[row]
                assert start == max(arrival, previous_finish)
                assert start >= previous_finish  # no overlap on the stream's slot
                assert arrival >= previous_arrival  # FIFO: submit time is arrival
                previous_arrival, previous_finish = arrival, columns.finish[row]


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
