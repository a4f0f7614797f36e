"""Tests for the event-driven serving scheduler."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.arrivals import (
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    rate_for_load,
)
from repro.sim.batched import BatchLatencyModel, StreamProfile, staggered_arrivals
from repro.sim.pipeline import LatencyModel, MeasuredRetrieval
from repro.sim.scheduler import (
    FRAME_JOB,
    GENERATION_JOB,
    QUESTION_JOB,
    SchedulerConfig,
    ServingScheduler,
)
from repro.sim.systems import ablation_systems, edge_systems, server_systems
from repro.sim.workload import default_llm_workload

REL_TOL = 1e-9


@pytest.fixture(scope="module")
def model_bytes() -> float:
    return default_llm_workload().model_bytes()


@pytest.fixture(scope="module")
def edge(model_bytes):
    return edge_systems(model_bytes)


@pytest.fixture(scope="module")
def plane() -> BatchLatencyModel:
    return BatchLatencyModel()


@pytest.fixture(scope="module")
def scheduler(plane) -> ServingScheduler:
    return ServingScheduler(plane)


def _fleet(kv_lens, offsets=None):
    offsets = offsets or [0.0] * len(kv_lens)
    return [
        StreamProfile(kv_len=kv, arrival_offset_s=offset, session_id=index)
        for index, (kv, offset) in enumerate(zip(kv_lens, offsets, strict=True))
    ]


class TestDegenerateEquivalence:
    """Single aligned frame, no admission control == contended batched step."""

    @pytest.mark.parametrize(
        "system_name", ["AGX + FlexGen", "AGX + InfiniGen", "AGX + ReKV", "V-Rex8"]
    )
    def test_aligned_single_step_matches_contended_step(
        self, plane, scheduler, edge, system_name
    ):
        system = edge[system_name]
        profiles = _fleet([40_000, 25_000, 10_000, 40_000])
        step = plane.frame_step(system, profiles)
        result = scheduler.run(system, profiles, [[0.0]] * len(profiles))
        assert result.served == len(profiles)
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == pytest.approx(row.total_s, rel=REL_TOL)
            assert record.pcie_wait_s == pytest.approx(row.pcie_wait_s, abs=1e-15)
            assert record.dre_wait_s == pytest.approx(
                row.breakdown.get("dre_wait", 0.0), abs=1e-15
            )
        assert result.makespan_s == pytest.approx(step.total_s, rel=REL_TOL)
        assert result.oom == step.oom

    @pytest.mark.parametrize("system_name", ["AGX + FlexGen", "V-Rex8"])
    def test_staggered_single_step_matches_contended_step(
        self, plane, scheduler, edge, system_name
    ):
        """Arrival traces equal to the profile offsets reproduce staggering."""
        system = edge[system_name]
        offsets = staggered_arrivals(4, 0.05)
        profiles = _fleet([40_000] * 4, offsets)
        step = plane.frame_step(system, profiles)
        result = scheduler.run(
            system, profiles, [[offset] for offset in offsets]
        )
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == pytest.approx(row.total_s, rel=REL_TOL)

    def test_server_system_matches_contended_step(self, plane, scheduler, model_bytes):
        system = server_systems(model_bytes)["A100 + InfiniGenP"]
        profiles = _fleet([40_000] * 4)
        step = plane.frame_step(system, profiles)
        result = scheduler.run(system, profiles, [[0.0]] * 4)
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == pytest.approx(row.total_s, rel=REL_TOL)

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_reported_percentiles_are_exact_order_statistics(
        self, plane, edge, engine, assert_summary_matches_records
    ):
        """Every summary figure must be plain numpy over the recorded sojourns.

        The oracle reads ``records`` only, so it shares no code with the
        column summariser behind ``fleet_summary`` / ``stream_summaries``.
        """
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 30_000, 20_000, 10_000])
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=3.0).generate(4, 10, seed=5)
        result = ServingScheduler(
            plane,
            SchedulerConfig(deadline_s=1.5 * solo, max_queue_depth=1),
            engine=engine,
        ).run(
            system,
            profiles,
            traces,
            question_arrivals=[float(trace[-1]) for trace in traces],
            answer_tokens=2,
        )
        assert result.dropped > 0 and result.fleet_summary().deadline_miss_rate > 0
        for kind in (None, FRAME_JOB, QUESTION_JOB, GENERATION_JOB):
            records = [r for r in result.records if kind is None or r.kind == kind]
            assert_summary_matches_records(result.fleet_summary(kind=kind), records)
            for summary in result.stream_summaries(kind=kind):
                assert_summary_matches_records(
                    summary,
                    [r for r in records if r.stream_index == summary.stream_index],
                )


class TestEventDynamics:
    def test_backlog_serializes_a_stream(self, plane, scheduler, edge):
        """Frames arriving faster than service queue on the stream's slot."""
        system = edge["V-Rex8"]
        profiles = _fleet([40_000])
        solo = plane.frame_step(system, profiles).streams[0].total_s
        traces = [np.arange(5) * (solo / 10.0)]  # 10x oversubscribed
        result = scheduler.run(system, profiles, traces)
        records = result.jobs(kind=FRAME_JOB)
        assert len(records) == 5
        starts = [record.start_s for record in records]
        finishes = [record.finish_s for record in records]
        assert starts == sorted(starts)
        for previous_finish, start in zip(finishes, starts[1:], strict=False):
            assert start == pytest.approx(previous_finish, rel=1e-12)
        # sojourns grow as the backlog builds
        sojourns = [record.sojourn_s for record in records]
        assert sojourns == sorted(sojourns)

    def test_wide_spacing_leaves_no_queueing(self, plane, scheduler, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000])
        solo = plane.frame_step(system, profiles).streams[0].total_s
        traces = [np.arange(4) * (2.0 * solo)]
        result = scheduler.run(system, profiles, traces)
        for record in result.jobs(kind=FRAME_JOB):
            assert record.start_s - record.arrival_s == pytest.approx(0.0, abs=1e-15)
            assert record.sojourn_s == pytest.approx(solo, rel=REL_TOL)

    def test_deterministic_given_same_traces(self, scheduler, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 20_000])
        traces = BurstyArrivals(burst_rate_hz=20.0, mean_idle_s=0.3).generate(
            2, 8, seed=9
        )
        first = scheduler.run(system, profiles, traces)
        second = scheduler.run(system, profiles, traces)
        assert len(first.records) == len(second.records)
        for a, b in zip(first.records, second.records, strict=True):
            assert a == b

    def test_schedule_independent_of_profile_list_order(self, scheduler, edge):
        system = edge["V-Rex8"]
        big = StreamProfile(kv_len=40_000, session_id=0)
        small = StreamProfile(kv_len=20_000, session_id=1)
        traces = {0: [0.0, 0.1], 1: [0.0, 0.05]}
        forward = scheduler.run(
            system, [big, small], [traces[0], traces[1]]
        )
        reverse = scheduler.run(
            system, [small, big], [traces[1], traces[0]]
        )
        for session_id in (0, 1):
            fwd = [r for r in forward.records if r.session_id == session_id]
            rev = [r for r in reverse.records if r.session_id == session_id]
            assert [r.sojourn_s for r in fwd] == pytest.approx(
                [r.sojourn_s for r in rev], abs=1e-12
            )

    def test_shared_link_couples_streams(self, plane, scheduler, edge):
        """An aligned second stream inflates the first's sojourn via the link."""
        system = edge["AGX + FlexGen"]
        solo = scheduler.run(system, _fleet([40_000]), [[0.0]])
        pair = scheduler.run(system, _fleet([40_000, 40_000]), [[0.0], [0.0]])
        solo_sojourn = solo.records[0].sojourn_s
        pair_sojourns = sorted(r.sojourn_s for r in pair.records)
        assert pair_sojourns[0] == pytest.approx(solo_sojourn, rel=REL_TOL)
        assert pair_sojourns[1] > solo_sojourn
        assert max(r.pcie_wait_s for r in pair.records) > 0.0

    def test_timeline_records_shared_resources(self, scheduler, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 40_000])
        result = scheduler.run(system, profiles, [[0.0, 0.5], [0.0, 0.5]])
        assert result.timeline.busy_time_s("pcie") > 0.0
        assert result.timeline.busy_time_s("dre") > 0.0
        assert result.timeline.busy_time_s("compute:s0") > 0.0
        assert result.timeline.makespan_s <= max(
            record.finish_s for record in result.records
        ) + 1e-12
        # the shared link never serves two transfers at once
        pcie_tasks = result.timeline.tasks_on("pcie")
        for earlier, later in zip(pcie_tasks, pcie_tasks[1:], strict=False):
            assert later.start_s >= earlier.end_s - 1e-12


def _set_kv_len(profile):
    profile.kv_len = 60_000


def _set_occupancy(profile):
    profile.measured.avg_tokens_per_cluster = 8.0


def _set_frame_ratio(profile):
    profile.frame_ratio = 0.9


class TestProfileEditedInPlace:
    """Prices follow a profile's *values*, never its identity.

    Regression (ISSUE 22): ``StreamProfile`` is a mutable dataclass, and the
    scheduler's identity-keyed price cache kept serving the 20 000-token
    prices after ``profile.kv_len = 60_000`` (fleet p50 97.3 ms against a
    fresh scheduler's 726.1 ms).
    """

    @pytest.mark.parametrize("engine", ["array", "reference"])
    @pytest.mark.parametrize("edit", [_set_kv_len, _set_occupancy, _set_frame_ratio])
    def test_rerun_after_an_edit_equals_a_fresh_scheduler(self, model_bytes, engine, edit):
        # ReSV on the GPU exposes its prediction, so every edit moves a record
        system = ablation_systems(model_bytes)["AGX + ReSV"]
        profiles = _fleet([20_000, 20_000])
        traces = [np.arange(6) * 0.5, np.arange(6) * 0.5 + 0.1]
        arguments = {"question_arrivals": [3.0, 3.1], "answer_tokens": 2}
        reused = ServingScheduler(BatchLatencyModel(), engine=engine)
        before = reused.run(system, profiles, traces, **arguments)
        for profile in profiles:
            edit(profile)
        after = reused.run(system, profiles, traces, **arguments)
        fresh = ServingScheduler(BatchLatencyModel(), engine=engine).run(
            system, profiles, traces, **arguments
        )
        assert after.records == fresh.records
        assert after.fleet_summary() == fresh.fleet_summary()
        assert after.records != before.records  # the edit is not a no-op

    def test_base_calibration_after_a_warm_step_changes_no_batched_result(self, edge):
        """The plane always prices at ``profile.measured``, never ``base.measured``."""
        system = edge["V-Rex8"]
        profiles = _fleet([20_000, 45_000])
        measured = MeasuredRetrieval(sort_fraction=0.4, avg_tokens_per_cluster=8.0)

        def steps(plane):
            return [
                step(system, profiles)
                for step in (plane.frame_step, plane.question_step, plane.generation_step)
            ]

        plane = BatchLatencyModel()
        warm = steps(plane)
        plane.base.measured = measured
        assert steps(plane) == warm
        # ... and a plane calibrated before it priced anything agrees: the
        # warm table is not hiding a dependence on ``base.measured``
        assert steps(BatchLatencyModel(LatencyModel(measured=measured))) == warm


class TestQuestionsAndGeneration:
    def test_generation_chains_after_question(self, scheduler, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([30_000])
        result = scheduler.run(
            system,
            profiles,
            [[0.0]],
            question_arrivals=[1.0],
            answer_tokens=3,
        )
        kinds = [record.kind for record in result.records]
        assert kinds.count(FRAME_JOB) == 1
        assert kinds.count(QUESTION_JOB) == 1
        assert kinds.count(GENERATION_JOB) == 3
        question = result.jobs(kind=QUESTION_JOB)[0]
        generations = result.jobs(kind=GENERATION_JOB)
        assert generations[0].arrival_s == pytest.approx(question.finish_s)
        for previous, current in zip(generations, generations[1:], strict=False):
            assert current.arrival_s == pytest.approx(previous.finish_s)
            assert current.job_index == previous.job_index + 1

    def test_question_skipped_stream(self, scheduler, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([30_000, 30_000])
        result = scheduler.run(
            system,
            profiles,
            [[0.0], [0.0]],
            question_arrivals=[1.0, None],
            answer_tokens=[2, 0],
        )
        assert len(result.jobs(stream_index=0, kind=QUESTION_JOB)) == 1
        assert len(result.jobs(stream_index=1, kind=QUESTION_JOB)) == 0
        assert len(result.jobs(stream_index=1, kind=GENERATION_JOB)) == 0

    def test_answer_without_question_rejected(self, scheduler, edge):
        with pytest.raises(ValueError):
            scheduler.run(
                edge["V-Rex8"],
                _fleet([30_000]),
                [[0.0]],
                question_arrivals=[None],
                answer_tokens=2,
            )


class TestTimeslicedCompute:
    """The ``compute="timesliced"`` policy: one shared round-robin engine."""

    @pytest.fixture(scope="class")
    def timesliced_scheduler(self, plane):
        return ServingScheduler(plane, SchedulerConfig(compute="timesliced"))

    @pytest.mark.parametrize(
        "system_name", ["AGX + FlexGen", "AGX + InfiniGen", "AGX + ReKV", "V-Rex8"]
    )
    def test_aligned_single_step_matches_timesliced_step(
        self, plane, timesliced_scheduler, edge, system_name
    ):
        """The scheduler and the batched plane share the timesliced code
        path, so the degenerate case agrees to the last bit."""
        system = edge[system_name]
        profiles = _fleet([40_000, 25_000, 10_000, 40_000])
        step = plane.frame_step(system, profiles, compute="timesliced")
        result = timesliced_scheduler.run(system, profiles, [[0.0]] * len(profiles))
        assert step.compute == "timesliced"
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == pytest.approx(row.total_s, rel=REL_TOL)
            assert record.pcie_wait_s == pytest.approx(row.pcie_wait_s, abs=1e-15)
            assert record.dre_wait_s == pytest.approx(
                row.breakdown.get("dre_wait", 0.0), abs=1e-15
            )
            assert record.compute_wait_s == pytest.approx(
                row.compute_wait_s, abs=1e-15
            )
        assert result.makespan_s == pytest.approx(step.total_s, rel=REL_TOL)

    def test_shared_compute_couples_streams(self, plane, timesliced_scheduler, edge):
        """An aligned competitor inflates a stream's compute wait; under the
        private policy the same fleet pays no compute wait at all."""
        system = edge["AGX + FlexGen"]
        profiles = _fleet([40_000, 40_000])
        traces = [[0.0], [0.0]]
        shared = timesliced_scheduler.run(system, profiles, traces)
        private = ServingScheduler(plane).run(system, profiles, traces)
        assert all(r.compute_wait_s == 0.0 for r in private.records)
        assert max(r.compute_wait_s for r in shared.records) > 0.0
        assert shared.makespan_s >= private.makespan_s - 1e-15

    def test_timesliced_makespan_never_below_private(self, plane, edge):
        """The bracket ordering on a multi-frame stochastic trace."""
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 25_000, 10_000])
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(rate_hz=rate_for_load(0.9, solo, 3)).generate(
            3, 6, seed=21
        )
        private = ServingScheduler(plane).run(system, profiles, traces)
        shared = ServingScheduler(
            plane, SchedulerConfig(compute="timesliced")
        ).run(system, profiles, traces)
        assert private.makespan_s <= shared.makespan_s * (1 + REL_TOL)

    def test_generation_chains_through_shared_server(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([30_000, 30_000])
        scheduler = ServingScheduler(plane, SchedulerConfig(compute="timesliced"))
        result = scheduler.run(
            system,
            profiles,
            [[0.0], [0.0]],
            question_arrivals=[1.0, 1.0],
            answer_tokens=2,
        )
        kinds = [record.kind for record in result.records]
        assert kinds.count(GENERATION_JOB) == 4
        for stream in (0, 1):
            generations = result.jobs(stream_index=stream, kind=GENERATION_JOB)
            question = result.jobs(stream_index=stream, kind=QUESTION_JOB)[0]
            assert generations[0].arrival_s == pytest.approx(question.finish_s)

    def test_timeline_records_the_shared_compute_lane(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 40_000])
        scheduler = ServingScheduler(plane, SchedulerConfig(compute="timesliced"))
        result = scheduler.run(system, profiles, [[0.0], [0.0]])
        assert result.timeline.busy_time_s("compute") > 0.0
        assert result.timeline.busy_time_s("pcie") > 0.0

    def test_deterministic_given_same_traces(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 20_000])
        traces = BurstyArrivals(burst_rate_hz=20.0, mean_idle_s=0.3).generate(
            2, 6, seed=13
        )
        scheduler = ServingScheduler(plane, SchedulerConfig(compute="timesliced"))
        first = scheduler.run(system, profiles, traces)
        second = scheduler.run(system, profiles, traces)
        assert len(first.records) == len(second.records)
        for a, b in zip(first.records, second.records, strict=True):
            assert a == b


class TestGoldenRegression:
    """Seeded end-to-end pins: refactors of the event loop cannot silently
    shift percentiles, miss/drop rates, or the event count."""

    KV_LENS = (40_000, 30_000, 20_000, 10_000)
    #: (compute, expected) — values produced by the run this test pins.
    EXPECTED = {
        "private": {
            "served": 47,
            "dropped": 1,
            "events": 154,
            "p50_ms": 99.746575103695,
            "p95_ms": 417.611354474042,
            "p99_ms": 607.8346069980546,
            "mean_ms": 171.51925531400184,
            "miss_rate": 0.02127659574468085,
            "drop_rate": 0.020833333333333332,
            "makespan_s": 6.1676082095501945,
        },
        "timesliced": {
            "served": 45,
            "dropped": 3,
            "events": 4005,
            "p50_ms": 322.6714352942235,
            "p95_ms": 581.8195129650735,
            "p99_ms": 712.6241358310617,
            "mean_ms": 320.2660132681701,
            "miss_rate": 0.08888888888888889,
            "drop_rate": 0.0625,
            "makespan_s": 6.94516790759292,
        },
    }

    @pytest.mark.parametrize("engine", ["array", "reference"])
    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_seeded_run_reproduces_exact_statistics(self, plane, edge, compute, engine):
        system = edge["V-Rex8"]
        profiles = _fleet(list(self.KV_LENS))
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.4, solo, len(profiles))
        ).generate(len(profiles), 8, seed=11)
        question_time = max(float(trace[-1]) for trace in traces)
        scheduler = ServingScheduler(
            plane,
            SchedulerConfig(
                deadline_s=2.0 * solo,
                max_queue_depth=2,
                compute=compute,
                quantum_s=1e-3,
            ),
            engine=engine,
        )
        result = scheduler.run(
            system,
            profiles,
            traces,
            question_arrivals=[question_time] * len(profiles),
            answer_tokens=3,
        )
        fleet = result.fleet_summary()
        expected = self.EXPECTED[compute]
        assert result.served == expected["served"]
        assert result.dropped == expected["dropped"]
        assert result.events_processed == expected["events"]
        assert fleet.p50_ms == pytest.approx(expected["p50_ms"], rel=1e-12)
        assert fleet.p95_ms == pytest.approx(expected["p95_ms"], rel=1e-12)
        assert fleet.p99_ms == pytest.approx(expected["p99_ms"], rel=1e-12)
        assert fleet.mean_ms == pytest.approx(expected["mean_ms"], rel=1e-12)
        assert fleet.deadline_miss_rate == pytest.approx(
            expected["miss_rate"], rel=1e-12
        )
        assert fleet.drop_rate == pytest.approx(expected["drop_rate"], rel=1e-12)
        assert result.makespan_s == pytest.approx(expected["makespan_s"], rel=1e-12)


class TestAdmissionControl:
    def test_queue_depth_bound_drops_excess_frames(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000])
        scheduler = ServingScheduler(plane, SchedulerConfig(max_queue_depth=1))
        result = scheduler.run(system, profiles, [[0.0, 0.0, 0.0, 0.0]])
        assert result.dropped == 2  # one in service, one queued, two dropped
        assert result.served == 2
        dropped = [record for record in result.records if record.dropped]
        assert all(record.finish_s == record.arrival_s for record in dropped)
        assert result.fleet_summary().drop_rate == pytest.approx(0.5)

    def test_unbounded_queue_drops_nothing(self, plane, edge):
        system = edge["V-Rex8"]
        scheduler = ServingScheduler(plane)
        result = scheduler.run(system, _fleet([40_000]), [[0.0] * 6])
        assert result.dropped == 0

    def test_deadline_miss_rate_counts_exactly(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000])
        solo = plane.frame_step(system, profiles).streams[0].total_s
        scheduler = ServingScheduler(plane, SchedulerConfig(deadline_s=1.5 * solo))
        result = scheduler.run(system, profiles, [[0.0, 0.0, 0.0]])
        served = [record for record in result.records if not record.dropped]
        expected = sum(1 for r in served if r.sojourn_s > 1.5 * solo) / len(served)
        assert result.fleet_summary().deadline_miss_rate == pytest.approx(expected)
        assert expected > 0.0  # the aligned backlog must miss some deadlines

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(deadline_s=0.0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_queue_depth=-1)

    def test_compute_policy_validation(self):
        with pytest.raises(ValueError, match="compute policy"):
            SchedulerConfig(compute="batched")
        with pytest.raises(ValueError, match="quantum_s"):
            SchedulerConfig(quantum_s=0.0)
        with pytest.raises(ValueError, match="quantum_s"):
            SchedulerConfig(compute="timesliced", quantum_s=-1e-3)
        # valid policies construct fine
        assert SchedulerConfig(compute="timesliced", quantum_s=5e-4).quantum_s == 5e-4

    def test_plane_compute_policy_validation(self, plane, edge):
        with pytest.raises(ValueError, match="compute policy"):
            plane.question_step(
                edge["V-Rex8"], [StreamProfile(kv_len=10_000)], compute="roundrobin"
            )
        with pytest.raises(ValueError, match="quantum_s"):
            BatchLatencyModel(quantum_s=0.0)
        with pytest.raises(ValueError, match="compute policy"):
            plane.frame_step(
                edge["V-Rex8"],
                [StreamProfile(kv_len=10_000)],
                compute="microbatched",
            )


class TestInputValidation:
    def test_empty_fleet_rejected(self, scheduler, edge):
        with pytest.raises(ValueError):
            scheduler.run(edge["V-Rex8"], [], [])

    def test_trace_count_mismatch(self, scheduler, edge):
        with pytest.raises(ValueError):
            scheduler.run(edge["V-Rex8"], _fleet([10_000]), [[0.0], [0.0]])

    def test_negative_and_unsorted_traces_rejected(self, scheduler, edge):
        with pytest.raises(ValueError):
            scheduler.run(edge["V-Rex8"], _fleet([10_000]), [[-0.1]])
        with pytest.raises(ValueError):
            scheduler.run(edge["V-Rex8"], _fleet([10_000]), [[0.5, 0.1]])

    @pytest.mark.parametrize("engine", ["array", "reference"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_frame_arrival_rejected(self, plane, edge, engine, bad):
        scheduler = ServingScheduler(plane, engine=engine)
        with pytest.raises(ValueError, match="arrival trace of stream 1 contains a non-finite"):
            scheduler.run(edge["V-Rex8"], _fleet([1_000, 1_000]), [[0.0], [0.0, bad]])

    @pytest.mark.parametrize(
        "bad", [math.inf, math.nan, True, "1"], ids=["inf", "nan", "bool", "str"]
    )
    def test_non_real_or_non_finite_question_arrival_rejected(self, scheduler, edge, bad):
        with pytest.raises(ValueError, match="question arrival of stream 1"):
            scheduler.run(
                edge["V-Rex8"],
                _fleet([1_000, 1_000]),
                [[0.0], [0.0]],
                question_arrivals=[0.5, bad],
            )

    def test_question_arrival_validation(self, scheduler, edge):
        with pytest.raises(ValueError):
            scheduler.run(
                edge["V-Rex8"], _fleet([10_000]), [[0.0]], question_arrivals=[-1.0]
            )
        with pytest.raises(ValueError):
            scheduler.run(
                edge["V-Rex8"],
                _fleet([10_000]),
                [[0.0]],
                question_arrivals=[0.0, 1.0],
            )

    def test_negative_answer_tokens_rejected(self, scheduler, edge):
        with pytest.raises(ValueError):
            scheduler.run(
                edge["V-Rex8"],
                _fleet([10_000]),
                [[0.0]],
                question_arrivals=[0.0],
                answer_tokens=-1,
            )

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"answer_tokens": [True]}, "^answer_tokens of stream 0 must be a non-negative"),
            ({"answer_tokens": 1.5}, "^answer_tokens must be a non-negative integer"),
            ({"question_tokens": [-4]}, "^question_tokens of stream 0 must be a non-negative"),
            ({"question_tokens": [2**53 + 1]}, "^question_tokens of stream 0 must be at most"),
        ],
    )
    def test_per_stream_counts_share_the_plane_boundary(self, scheduler, edge, counts, message):
        with pytest.raises(ValueError, match=message):
            scheduler.run(
                edge["V-Rex8"], _fleet([10_000]), [[0.0]], question_arrivals=[0.0], **counts
            )

    def test_empty_traces_yield_empty_result(self, scheduler, edge):
        result = scheduler.run(edge["V-Rex8"], _fleet([10_000]), [[]])
        assert result.records == []
        assert result.makespan_s == 0.0
        assert np.isnan(result.fleet_summary().p50_ms)


class TestArrivalProcessIntegration:
    def test_aligned_deterministic_process_reproduces_batched_plane(
        self, plane, scheduler, edge
    ):
        """The full pipeline: generator -> scheduler == contended step."""
        system = edge["V-Rex8"]
        profiles = _fleet([40_000] * 4)
        traces = DeterministicArrivals(period_s=0.0).generate(4, 1)
        result = scheduler.run(system, profiles, traces)
        step = plane.frame_step(system, profiles)
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == pytest.approx(row.total_s, rel=REL_TOL)

    def test_poisson_load_shifts_tail_latency(self, plane, edge):
        """Higher offered load inflates p95 more than p50."""
        system = edge["V-Rex8"]
        profiles = _fleet([40_000] * 4)
        solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
        scheduler = ServingScheduler(plane)
        summaries = {}
        for load in (0.2, 0.9):
            rate = load / (solo * len(profiles))
            traces = PoissonArrivals(rate_hz=rate).generate(4, 12, seed=3)
            summaries[load] = scheduler.run(system, profiles, traces).fleet_summary()
        assert summaries[0.9].p95_ms >= summaries[0.2].p95_ms
