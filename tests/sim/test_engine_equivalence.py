"""Array-engine vs reference-loop equivalence.

The struct-of-arrays engine (:mod:`repro.sim.engine`) must be a *bit-exact*
replacement for the reference closure loop in :mod:`repro.sim.scheduler` —
same records, same event count, same timelines, same occupancy trajectory —
for every configuration the scheduler accepts.  These tests drive both
engines over hypothesis-generated fleets and over the memory-plane
configurations, comparing full outputs with ``==`` (the records and
timeline tasks are frozen dataclasses, so equality is field-exact).
``TestCostFollowsDecisions`` counts what the shared round-robin core
saves both engines: queue traffic per decision, not per quantum.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.jobtable import RecordColumns
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems, server_systems
from repro.sim.workload import default_llm_workload


@pytest.fixture(scope="module")
def model_bytes() -> float:
    return default_llm_workload().model_bytes()


@pytest.fixture(scope="module")
def edge(model_bytes):
    return edge_systems(model_bytes)


@pytest.fixture(scope="module")
def server(model_bytes):
    return server_systems(model_bytes)


def _fleet(kv_lens):
    return [
        StreamProfile(kv_len=kv, session_id=index)
        for index, kv in enumerate(kv_lens)
    ]


def _value_equal(a, b) -> bool:
    """Exact equality, except NaN == NaN (empty-sample percentiles)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_value_equal(a[k], b[k]) for k in a)
    return a == b


def assert_summaries_equal(a, b):
    assert type(a) is type(b)
    for field in a.__dataclass_fields__:
        assert _value_equal(getattr(a, field), getattr(b, field)), field


def assert_runs_identical(reference, array):
    """Field-exact equality of two ScheduleResults (no tolerances)."""
    assert array.events_processed == reference.events_processed
    ref_records = reference.records
    arr_records = array.records
    assert len(arr_records) == len(ref_records)
    for ref_record, arr_record in zip(ref_records, arr_records, strict=True):
        assert arr_record == ref_record
    # one record store: both engines expose it, equal column by column
    for name in (*RecordColumns.FIELDS, "missed"):
        ref_column = getattr(reference.columns, name)
        arr_column = getattr(array.columns, name)
        assert arr_column.dtype == ref_column.dtype, name
        assert np.array_equal(arr_column, ref_column), name
    assert array.timeline.tasks == reference.timeline.tasks
    assert array.bank_occupancy_trajectory == reference.bank_occupancy_trajectory
    assert_summaries_equal(array.fleet_summary(), reference.fleet_summary())
    ref_streams = reference.stream_summaries()
    arr_streams = array.stream_summaries()
    assert len(arr_streams) == len(ref_streams)
    for ref_summary, arr_summary in zip(ref_streams, arr_streams, strict=True):
        assert_summaries_equal(arr_summary, ref_summary)
    assert array.served == reference.served
    assert array.dropped == reference.dropped
    assert array.deferred == reference.deferred
    assert array.evict_admissions == reference.evict_admissions
    assert array.makespan_s == reference.makespan_s


def _run_both(plane, config, system, profiles, traces, **kwargs):
    reference = ServingScheduler(plane, config, engine="reference").run(
        system, profiles, traces, **kwargs
    )
    array = ServingScheduler(plane, config, engine="array").run(
        system, profiles, traces, **kwargs
    )
    return reference, array


def _system_names() -> list[str]:
    model_bytes = default_llm_workload().model_bytes()
    return sorted({**edge_systems(model_bytes), **server_systems(model_bytes)})


class TestEngineEquivalenceProperty:
    """Random fleets on all ten systems through both engines must match
    bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(
        system_name=st.sampled_from(_system_names()),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_streams=st.integers(min_value=1, max_value=5),
        frames=st.integers(min_value=0, max_value=6),
        load=st.floats(min_value=0.3, max_value=2.0),
        bursty=st.booleans(),
        compute=st.sampled_from(["private", "timesliced"]),
        depth=st.sampled_from([None, 1, 2, 4]),
        deadline_mult=st.sampled_from([None, 1.5, 2.0, 3.0]),
        with_question=st.booleans(),
        answer_tokens=st.integers(min_value=1, max_value=3),
    )
    def test_random_configs_match(
        self,
        edge,
        server,
        system_name,
        seed,
        num_streams,
        frames,
        load,
        bursty,
        compute,
        depth,
        deadline_mult,
        with_question,
        answer_tokens,
    ):
        plane = BatchLatencyModel()
        system = {**edge, **server}[system_name]
        rng = np.random.default_rng(seed)
        profiles = _fleet(
            [int(rng.integers(5_000, 45_000)) for _ in range(num_streams)]
        )
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        rate = rate_for_load(load, solo, num_streams)
        process = (
            BurstyArrivals.for_mean_rate(rate)
            if bursty
            else PoissonArrivals(rate_hz=rate)
        )
        traces = process.generate(num_streams, frames, seed=seed)
        config = SchedulerConfig(
            deadline_s=None if deadline_mult is None else deadline_mult * solo,
            max_queue_depth=depth,
            compute=compute,
            quantum_s=1e-3,
        )
        kwargs = {}
        if with_question:
            last = max(
                (float(trace[-1]) for trace in traces if len(trace)), default=0.0
            )
            kwargs = {
                "question_arrivals": [last + 0.01] * num_streams,
                "answer_tokens": answer_tokens,
            }
        reference, array = _run_both(
            plane, config, system, profiles, traces, **kwargs
        )
        assert_runs_identical(reference, array)


class TestEngineEquivalenceMemoryPlane:
    """Sharded-memory runs (backlog and residency admission) match too."""

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    @pytest.mark.parametrize("admission", ["backlog", "residency"])
    @pytest.mark.parametrize("num_banks", [1, 2, 4])
    def test_memory_configs_match(self, server, admission, num_banks, compute):
        """``timesliced`` pins residency admission's shared-compute-backlog
        term: each engine reads it from its own preemptive server."""
        system = server["V-Rex48"]
        # four banks hold four sessions' shards; six keep the fleet memory-bound
        profiles = [
            StreamProfile(kv_len=40_000, session_id=index)
            for index in range(6 if num_banks == 4 else 4)
        ]
        budget = int(4.5 * 1024**3)
        solo = None
        results = []
        for engine in ("reference", "array"):
            plane = BatchLatencyModel(
                memory=ShardedKVHierarchy(
                    num_banks=num_banks, bank_budget_bytes=budget
                )
            )
            if solo is None:
                solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
            traces = BurstyArrivals.for_mean_rate(
                rate_for_load(1.3, solo, len(profiles))
            ).generate(len(profiles), 8, seed=17)
            config = SchedulerConfig(
                deadline_s=2.0 * solo,
                max_queue_depth=2,
                admission=admission,
                compute=compute,
            )
            results.append(
                ServingScheduler(plane, config, engine=engine).run(
                    system, profiles, traces
                )
            )
        reference, array = results
        assert_runs_identical(reference, array)
        assert array.memory.evictions == reference.memory.evictions
        assert array.memory.evictions  # bounded banks demoted something

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_memory_timesliced_configs_match(self, server, compute):
        system = server["V-Rex48"]
        profiles = [
            StreamProfile(kv_len=30_000 + 5_000 * index, session_id=index)
            for index in range(3)
        ]
        plane_for = lambda: BatchLatencyModel(  # noqa: E731 — two fresh planes
            memory=ShardedKVHierarchy(
                num_banks=2, bank_budget_bytes=int(4.0 * 1024**3)
            )
        )
        probe = plane_for()
        solo = probe.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(
            rate_hz=rate_for_load(1.1, solo, len(profiles))
        ).generate(len(profiles), 6, seed=3)
        config = SchedulerConfig(
            deadline_s=2.5 * solo,
            max_queue_depth=3,
            compute=compute,
            quantum_s=1e-3,
        )
        reference = ServingScheduler(plane_for(), config, engine="reference").run(
            system, profiles, traces
        )
        array = ServingScheduler(plane_for(), config, engine="array").run(
            system, profiles, traces
        )
        assert_runs_identical(reference, array)


class TestCostFollowsDecisions:
    """Queue traffic is per decision; ``events_processed`` stays per quantum.

    Counted, never timed: at the parent commit every quantum expiry was a
    queued event, so the real and logical counts were equal.
    """

    @staticmethod
    def _timesliced_frame_step(system, quantum_s, monkeypatch):
        from repro.hw.event import EventLoop

        counts = []
        run = EventLoop.run

        def counted_run(self, until_s=None):
            fired = run(self, until_s)
            counts.append((fired, self.events_processed))
            return fired

        monkeypatch.setattr(EventLoop, "run", counted_run)
        plane = BatchLatencyModel(quantum_s=quantum_s)
        plane.frame_step(system, _fleet([40_000] * 16), compute="timesliced")
        monkeypatch.setattr(EventLoop, "run", run)
        ((fired, logical),) = counts
        return fired, logical

    def test_plane_step_fires_a_handful_of_events_per_stream(self, edge, monkeypatch):
        system = edge["V-Rex8"]
        fired, logical = self._timesliced_frame_step(system, 1e-3, monkeypatch)
        assert fired <= 6 * 16
        assert logical > 1000
        fired_half, logical_half = self._timesliced_frame_step(system, 0.5e-3, monkeypatch)
        assert 1.8 < logical_half / logical < 2.2
        assert abs(fired_half - fired) <= 16  # only tie cases may move

    def test_array_engine_pushes_fewer_entries_than_logical_events(
        self, server, monkeypatch
    ):
        from repro.sim import engine

        system = server["V-Rex48"]
        profiles = _fleet([30_000, 35_000, 40_000])
        plane = BatchLatencyModel(
            memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=int(4.0 * 1024**3))
        )
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(1.1, solo, 3)).generate(3, 6, seed=3)
        pushes = []
        heappush = engine.heappush

        def counted_push(heap, entry):
            pushes.append(entry)
            heappush(heap, entry)

        monkeypatch.setattr(engine, "heappush", counted_push)
        config = SchedulerConfig(compute="timesliced", quantum_s=1e-3)
        result = ServingScheduler(plane, config, engine="array").run(system, profiles, traces)
        slices = sum(1 for entry in pushes if entry[2] & 7 == engine.C_SLICE)
        assert slices > 0
        # arrivals never touch the heap; everything else is one push per event
        arrivals = sum(map(len, traces))
        assert len(pushes) + arrivals < result.events_processed


class TestLatencyColumnEquivalence:
    """analysis.latency accepts SoA columns and matches the record path."""

    def test_columns_match_record_lists(self, edge):
        from repro.analysis.latency import deadline_miss_rate

        plane = BatchLatencyModel()
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 20_000, 10_000])
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(
            rate_hz=rate_for_load(1.2, solo, len(profiles))
        ).generate(len(profiles), 8, seed=5)
        result = ServingScheduler(
            plane, SchedulerConfig(deadline_s=2.0 * solo)
        ).run(system, profiles, traces)
        columns = result.columns
        served = ~columns.dropped
        column_sojourns = columns.sojourn_s()[served]
        list_sojourns = [r.sojourn_s for r in result.records if not r.dropped]
        assert column_sojourns.tolist() == list_sojourns
        deadline = 2.0 * solo
        assert deadline_miss_rate(column_sojourns, deadline) == deadline_miss_rate(
            list_sojourns, deadline
        )

    def test_empty_column_sample(self):
        from repro.analysis.latency import deadline_miss_rate

        empty = np.zeros(0, dtype=float)
        assert deadline_miss_rate(empty, 1.0) == 0.0
