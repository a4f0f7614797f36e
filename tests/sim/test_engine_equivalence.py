"""Array-engine vs reference-loop equivalence.

The struct-of-arrays engine (:mod:`repro.sim.engine`) must be a *bit-exact*
replacement for the reference closure loop in :mod:`repro.sim.scheduler` —
same records, same event count, same interval columns, same occupancy
trajectory — for every configuration the scheduler accepts.  These tests
drive both engines over hypothesis-generated fleets and over the
memory-plane configurations, comparing full outputs with ``==`` (records
are frozen dataclasses and columns compare dtype and values, so equality
is field-exact).
``TestCostFollowsDecisions`` counts what the shared round-robin core
saves both engines: queue traffic per decision, not per quantum.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_intervals_equal, patch_stages, run_intervals

from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.jobtable import KIND_NAMES, RecordColumns
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
    assert_intervals_equal(array, reference)
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
        # the intervals' order is derived: check it against the order the
        # reference loop's issue and link (or stage resolve) callbacks fired in
        _, fired = _run_recording_reference_order(
            plane, config, system, profiles, traces, **kwargs
        )
        groups = _event_order(run_intervals(array), compute == "timesliced")
        assert groups == [group for group in fired if group in set(groups)]


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
    """The record columns' sojourns match the record list's."""

    def test_columns_match_record_lists(self, edge):
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


def _event_order(tasks, timesliced):
    """A run's interval tasks as ``(job name, event)`` groups, in order.

    A vision task belongs to a job's issue event.  Under private compute so
    do its compute and DRE tasks, and a PCIe task belongs to its link grant;
    under time-sliced compute the compute, DRE and PCIe tasks belong to the
    stage's resolve.  Consecutive tasks of one event form one group.
    """
    groups = []
    for task in tasks:
        if task.resource.startswith("vision"):
            event = "issue"
        elif timesliced:
            event = "resolve"
        else:
            event = "link" if task.resource == "pcie" else "issue"
        group = (task.name, event)
        if not groups or groups[-1] != group:
            groups.append(group)
    return groups


def _run_recording_reference_order(plane, config, system, profiles, traces, **kwargs):
    """Run the reference loop, noting the order its issue and link callbacks
    fire in, and (time-sliced) the order its stages resolve in."""
    from repro.hw.event import EventLoop
    from repro.sim import scheduler
    from repro.sim.batched import StageDriver

    fired = []
    schedule = EventLoop.schedule

    def recording(self, time_s, callback, priority=0, key=()):
        name = getattr(getattr(callback, "func", None), "__name__", None)
        if name in ("issue", "request_link"):
            job, inner = callback.args[0], callback
            event = "issue" if name == "issue" else "link"

            def callback():
                fired.append((job, event))
                inner()

        schedule(self, time_s, callback, priority, key)

    class RecordingDriver(StageDriver):
        """Notes each stage resolve, by stream, before the lifecycle takes it."""

        __slots__ = ()

        def __init__(self, core, loop, server, dre, link, on_finish):
            def resolved(stream):
                fired.append((stream, "resolve"))
                on_finish(stream)

            super().__init__(core, loop, server, dre, link, resolved)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EventLoop, "schedule", recording)
        patch.setattr(scheduler, "StageDriver", RecordingDriver)
        result = ServingScheduler(plane, config, engine="reference").run(
            system, profiles, traces, **kwargs
        )
    table = result._table
    staged = {}  # stream -> the job its last issue started
    named = []
    for ident, event in fired:
        if event == "resolve":
            job = staged[ident]
        else:
            job = staged[table.stream[ident]] = ident
        name = f"s{table.session[job]}/{KIND_NAMES[table.kind[job]]}{table.index[job]}"
        named.append((name, event))
    return result, named


class TestInPlaceLinkGrants:
    """Link requests known at their issue event — private ones, and a
    time-sliced V-Rex stage's — that no later request can precede are
    granted there: fewer queued events, the same run.  The intervals of such
    a run are derived, so their order is checked against the order the reference
    loop's issue and link (time-sliced: stage resolve) callbacks fired in."""

    @staticmethod
    def _run(monkeypatch, system, profiles, traces, plane=BatchLatencyModel, config=None, **kwargs):
        """Both engines, checked equal and against the reference's event
        order; returns ``(queued link events, link grants)``."""
        from repro.sim import engine

        config = config or SchedulerConfig()
        links = []
        heappush = engine.heappush

        def counted_push(heap, entry):
            if entry[2] & 7 in (engine.C_LINK, engine.C_TSLINK):
                links.append(entry)
            heappush(heap, entry)

        monkeypatch.setattr(engine, "heappush", counted_push)
        array = ServingScheduler(plane(), config, engine="array").run(
            system, profiles, traces, **kwargs
        )
        monkeypatch.setattr(engine, "heappush", heappush)
        reference, fired = _run_recording_reference_order(
            plane(), config, system, profiles, traces, **kwargs
        )
        assert_runs_identical(reference, array)
        tasks = run_intervals(array)
        groups = _event_order(tasks, config.compute == "timesliced")
        assert groups == [group for group in fired if group in set(groups)]
        grants = sum(1 for task in tasks if task.resource == "pcie")
        return len(links), grants

    def _fleet_run(
        self, monkeypatch, system, plane=BatchLatencyModel, streams=6, compute="private"
    ):
        profiles = _fleet([10_000 + 7_000 * i for i in range(streams)])
        solo = BatchLatencyModel().frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(1.2, solo, streams)).generate(
            streams, 6, seed=4
        )
        return self._run(
            monkeypatch, system, profiles, traces, plane,
            SchedulerConfig(deadline_s=3.0 * solo, max_queue_depth=3, compute=compute),
            question_arrivals=[0.7 * float(trace[-1]) for trace in traces],
            answer_tokens=3,
        )  # fmt: skip

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    @pytest.mark.parametrize("banks", [0, 2], ids=["no-memory", "2-banks"])
    def test_vrex_queues_no_link_event(self, edge, banks, compute, monkeypatch):
        plane = (
            (lambda: BatchLatencyModel(
                memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=4.5 * 2**30)
            ))
            if banks
            else BatchLatencyModel
        )  # fmt: skip
        queued, grants = self._fleet_run(monkeypatch, edge["V-Rex8"], plane, compute=compute)
        assert grants > 0
        assert queued == 0

    def test_stage_off_the_dre_blocks_some_grants(self, edge, monkeypatch):
        """A V-Rex question stage whose prediction skips the DRE requests
        the link at its issue plus its prediction, which bounds every
        other grant: both paths run, and the engines still agree."""

        patch_stages(monkeypatch, question={"on_dre": lambda stream: stream % 2 == 1})
        queued, grants = self._fleet_run(monkeypatch, edge["V-Rex8"])
        assert 0 < queued < grants

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_queued_link_blocks_an_in_place_grant(self, edge, compute, monkeypatch):
        """Questions on the DRE (1 ms predictions) under a 3 ms bound set
        by generation tokens off it: four aligned questions grant 2 links
        in place and queue the requests at 3 and 4 ms; a fifth issued at
        2.5 ms requests at 5 ms, under its bound, yet waits behind them
        (time-sliced too: a V-Rex request is its prediction's end)."""

        patch_stages(
            monkeypatch,
            question={"prediction_s": 1e-3, "on_dre": True},
            generation={"prediction_s": 3e-3, "on_dre": False},
        )
        traces = [[]] * 5
        questions = [0.0, 0.0, 0.0, 0.0, 2.5e-3]
        queued, grants = self._run(
            monkeypatch, edge["V-Rex8"], _fleet([40_000] * 5), traces,
            config=SchedulerConfig(compute=compute), question_arrivals=questions,
        )  # fmt: skip
        assert (queued, grants) == (3, 5)

    def test_same_instant_issues_precede_links(self, edge, monkeypatch):
        """Stages off the DRE with no prediction request the link at their
        issue: aligned questions meet every issue before any link grant."""

        off = {"on_dre": False, "prediction_s": 0.0}
        patch_stages(monkeypatch, frame=off, question=off, generation=off)
        queued, grants = self._run(
            monkeypatch, edge["V-Rex8"], _fleet([40_000] * 3), [[]] * 3,
            question_arrivals=[0.0] * 3,
        )  # fmt: skip
        assert queued == grants == 3

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_absorbed_dre_predictions_queue_their_links(self, edge, compute, monkeypatch):
        """Near 2**41 s a 1 us DRE prediction rounds away: a question holding
        the DRE and two frames behind it all request the link at the DRE's
        ``free_at``, a tie the reference loop breaks by stream rank.  The
        DRE bound sees ``free_at + 1 us == free_at`` and queues them.

        Time-sliced, a slice end that rounds to the current instant lands
        below the subkey just popped, which the armed array engine reports
        as a pop-order fault with or without in-place grants, so that run is
        unarmed; the reference loop's order is the oracle.
        """
        from repro.devtools.sanitizer import ENV_VAR

        if compute == "timesliced":
            monkeypatch.delenv(ENV_VAR, raising=False)

        patch_stages(
            monkeypatch,
            frame={"vision_s": 0.0, "prediction_s": 1e-6, "on_dre": True, "fetch_s": 1e-3},
            question={"prediction_s": 2e-3, "on_dre": True, "fetch_s": 1e-3},
        )
        start = 2.0**41
        ulp = np.spacing(start)
        traces = [[start + 3 * ulp], [start + 2 * ulp], []]  # rank 0 issues last
        queued, grants = self._run(
            monkeypatch, edge["V-Rex8"], _fleet([40_000] * 3), traces,
            config=SchedulerConfig(compute=compute), question_arrivals=[None, None, start],
        )  # fmt: skip
        assert queued == grants == 3

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    @pytest.mark.parametrize("system_name", ["AGX + InfiniGen", "AGX + FlexGen"])
    def test_gpu_baseline_queues_every_grant(self, edge, system_name, compute, monkeypatch):
        """A GPU stage's own delay is at least the bound, so no grant is in
        place — also on FlexGen once its generation tokens (no prediction)
        stop fetching and the serial frames and questions set the bound.
        A time-sliced GPU stage requests the link when the shared server
        ends its prediction (or, serial, its compute), which no bound covers."""
        if system_name == "AGX + FlexGen":
            patch_stages(monkeypatch, generation={"fetch_s": 0.0})
        queued, grants = self._fleet_run(monkeypatch, edge[system_name], compute=compute)
        assert queued == grants > 0

    def test_dre_backlog_puts_the_link_request_after_the_compute(self, edge, monkeypatch):
        """Three aligned questions queue 20 ms predictions on the DRE beside
        2 ms of compute each, so each has its compute done before its link
        request.  The array engine granted that request in place, at the
        issue, yet resolves the stage at the request, as the reference
        loop's link event does — after three frames issue at the end of
        their 12 ms vision, not at the compute's end before them."""

        patch_stages(
            monkeypatch, question={"on_dre": True, "prediction_s": 2e-2, "compute_s": 2e-3}
        )
        config = SchedulerConfig(compute="timesliced")
        run = (edge["V-Rex8"], _fleet([40_000] * 6), [[]] * 3 + [[0.0]] * 3)
        questions = [0.0] * 3 + [None] * 3
        queued, grants = self._run(monkeypatch, *run, config=config, question_arrivals=questions)
        assert (queued, grants) == (0, 6)
        tasks = run_intervals(
            ServingScheduler(BatchLatencyModel(), config).run(*run, question_arrivals=questions)
        )
        compute_end = {t.name: t.start_s + t.duration_s for t in tasks if t.resource == "compute"}
        vision_end = max(t.start_s + t.duration_s for t in tasks if t.resource.startswith("vision"))
        for task in tasks:
            if task.resource == "pcie" and "question" in task.name:
                assert compute_end[task.name] < vision_end < task.start_s

    def test_stage_without_compute_resolves_at_its_request(self, edge, monkeypatch):
        """A time-sliced V-Rex frame with no compute is done at its issue
        and its link is granted there, in place: the stage still resolves
        at its request, where the reference loop's link event is, after the
        issues and vision ends that come between."""

        patch_stages(monkeypatch, frame={"compute_s": 0.0})
        queued, grants = self._run(
            monkeypatch, edge["V-Rex8"], _fleet([40_000] * 3), [[0.0, 0.01], [0.0], [0.004]],
            config=SchedulerConfig(compute="timesliced"),
        )  # fmt: skip
        assert (queued, grants) == (0, 4)

    def test_compute_ending_at_the_request_resolves_after_that_instant(self, edge, monkeypatch):
        """A time-sliced V-Rex question whose 2 ms compute ends exactly when
        its 2 ms DRE prediction does: the reference loop takes the compute's
        end first (a completion outranks a link event) and resolves the
        stage at the link event, after a frame that issues at that instant."""

        patch_stages(
            monkeypatch,
            question={"on_dre": True, "prediction_s": 2e-3, "compute_s": 2e-3},
            frame={"vision_s": 1e-3},  # a frame arriving at 1 ms issues at 2 ms
        )
        queued, grants = self._run(
            monkeypatch, edge["V-Rex8"], _fleet([40_000] * 2), [[], [1e-3]],
            config=SchedulerConfig(compute="timesliced"), question_arrivals=[0.0, None],
        )  # fmt: skip
        assert (queued, grants) == (0, 2)

    def test_zero_duration_instants_keep_event_order(self, edge, monkeypatch):
        """Zero-vision text chains behind frames that end at their vision:
        a frame's vision and the next job's issue intervals share one
        ``(time, priority, stream)`` key, and record order breaks the tie.

        A zero-duration job's completion lands below the subkey just
        popped, which the armed array engine reports as a pop-order fault,
        so this run is unarmed; the reference loop's order is the oracle.
        """
        from repro.devtools.sanitizer import ENV_VAR

        monkeypatch.delenv(ENV_VAR, raising=False)

        patch_stages(
            monkeypatch,
            frame={"compute_s": 0.0, "prediction_s": 0.0, "fetch_s": 0.0, "demand": None},
        )
        system = edge["V-Rex8"]
        profiles = _fleet([20_000, 30_000, 40_000])
        traces = [[0.0, 0.0], [0.0], []]  # the last stream is a text chain alone
        self._run(
            monkeypatch, system, profiles, traces,
            question_arrivals=[0.0, 0.0, 0.0], answer_tokens=[2, 3, 2],
        )  # fmt: skip
        # a frame's vision and a question's compute at one instant, one stream
        tasks = run_intervals(
            ServingScheduler(BatchLatencyModel()).run(
                system, profiles, traces, question_arrivals=[0.0, 0.0, 0.0], answer_tokens=[2, 3, 2]
            )
        )
        vision_end = {t.start_s + t.duration_s for t in tasks if t.resource.startswith("vision")}
        question = next(t for t in tasks if t.name == "s0/question0")
        assert question.start_s in vision_end
