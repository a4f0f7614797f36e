"""Tests for the contention-aware batched performance plane."""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.hw.event import EventLoop, PreemptiveResource, ResourceQueue
from repro.hw.memory.pcie import PCIE4_X16, PCIeLink, PCIeLinkQueue
from repro.model.serving import SessionReport
from repro.sim.batched import (
    MAX_KV_LEN,
    MAX_Q_LEN,
    PRIO_COMPLETE,
    PRIO_ISSUE,
    BatchLatencyModel,
    StageCore,
    StageDriver,
    StreamProfile,
    aligned_arrivals,
    profiles_from_reports,
    staggered_arrivals,
)
from repro.sim.pipeline import LatencyModel, MeasuredRetrieval
from repro.sim.systems import EARLY_EXIT_SORT_FRACTION, edge_systems, server_systems
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


def _report(session_id=0, frames=4, questions=1, generated=2, cache=200, **overrides):
    report = SessionReport(
        session_id=session_id,
        frames_processed=frames,
        questions_asked=questions,
        tokens_generated=generated,
        cache_tokens=cache,
        cache_bytes=cache * 64,
        frame_retrieval_ratio=0.45,
        generation_retrieval_ratio=0.06,
        sort_fraction=0.21,
        clusters_considered=40,
        wicsum_score_elements=640,
        num_clusters=12,
        mean_tokens_per_cluster=16.5,
        table_bytes=4096,
    )
    for key, value in overrides.items():
        setattr(report, key, value)
    return report


class TestBatchedEquivalence:
    """A homogeneous no-contention batch must reproduce ``batch=N`` exactly."""

    @pytest.mark.parametrize("system_name", ["AGX + FlexGen", "AGX + InfiniGen", "AGX + ReKV", "V-Rex8"])
    @pytest.mark.parametrize("kv_len", [1_000, 40_000])
    @pytest.mark.parametrize("batch", [1, 3, 4])
    def test_edge_steps_match_batch_n(self, plane, edge, system_name, kv_len, batch):
        system = edge[system_name]
        profiles = [StreamProfile(kv_len=kv_len) for _ in range(batch)]
        base = plane.base
        for batched, expected in (
            (plane.frame_step(system, profiles, contention=False), base.frame_step(system, kv_len, batch)),
            (plane.generation_step(system, profiles, contention=False), base.generation_step(system, kv_len, batch)),
            (plane.question_step(system, profiles, contention=False), base.question_step(system, kv_len, batch)),
        ):
            assert batched.total_s == pytest.approx(expected.total_s, rel=REL_TOL)
            assert batched.oom == expected.oom
            assert batched.breakdown["kv_fetch"] == pytest.approx(
                expected.breakdown["kv_fetch"], rel=REL_TOL, abs=1e-15
            )
            assert batched.breakdown["kv_prediction"] == pytest.approx(
                expected.breakdown["kv_prediction"], rel=REL_TOL, abs=1e-15
            )

    def test_server_system_matches_batch_n(self, plane, model_bytes):
        system = server_systems(model_bytes)["A100 + InfiniGenP"]
        profiles = [StreamProfile(kv_len=40_000) for _ in range(8)]
        expected = plane.base.frame_step(system, 40_000, 8)
        batched = plane.frame_step(system, profiles, contention=False)
        assert batched.total_s == pytest.approx(expected.total_s, rel=REL_TOL)

    def test_calibrated_measured_matches_batch_n(self, edge):
        measured = MeasuredRetrieval(sort_fraction=0.31, avg_tokens_per_cluster=11.0)
        base = LatencyModel(measured=measured)
        plane = BatchLatencyModel(base)
        profiles = [StreamProfile(kv_len=40_000, measured=measured) for _ in range(4)]
        expected = base.frame_step(edge["V-Rex8"], 40_000, 4)
        batched = plane.frame_step(edge["V-Rex8"], profiles, contention=False)
        assert batched.total_s == pytest.approx(expected.total_s, rel=REL_TOL)

    def test_single_active_question_matches_single_stream(self, plane, edge):
        """Skipped streams contribute nothing to a batched question step."""
        system = edge["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000), StreamProfile(kv_len=20_000, session_id=1)]
        expected = plane.base.question_step(system, 20_000, 1)
        batched = plane.question_step(
            system, profiles, question_tokens=[25, None], contention=False
        )
        assert batched.total_s == pytest.approx(expected.total_s, rel=REL_TOL)
        assert batched.streams[1].total_s == 0.0

    def test_aggregated_streams_carry_exposed_shares(self, plane, edge):
        """No-contention rows must expose fetch/prediction, not report 0."""
        profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(4)]
        step = plane.frame_step(edge["V-Rex8"], profiles, contention=False)
        assert step.breakdown["kv_fetch"] > 0.0
        assert step.mean_exposed_fetch_s > 0.0
        assert sum(s.exposed_fetch_s for s in step.streams) == pytest.approx(
            step.breakdown["kv_fetch"]
        )
        assert sum(s.breakdown["kv_prediction"] for s in step.streams) == pytest.approx(
            step.breakdown["kv_prediction"]
        )

    def test_numpy_integer_counts_accepted(self, plane, edge):
        import numpy as np

        system = edge["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000)]
        python_int = plane.question_step(system, profiles, question_tokens=25, contention=False)
        numpy_int = plane.question_step(
            system, profiles, question_tokens=np.int64(25), contention=False
        )
        assert numpy_int.total_s == pytest.approx(python_int.total_s, rel=REL_TOL)
        estimates = plane.scenario_estimates(
            system, profiles, frames=np.int64(3), answer_tokens=np.int64(2), contention=False
        )
        assert estimates[0].frames == 3 and estimates[0].answer_tokens == 2

    def test_empty_fleet_rejected(self, plane, edge):
        with pytest.raises(ValueError):
            plane.frame_step(edge["V-Rex8"], [])

    def test_question_length_validation(self, plane, edge):
        with pytest.raises(ValueError):
            plane.question_step(
                edge["V-Rex8"], [StreamProfile(kv_len=1_000)], question_tokens=[25, 25]
            )

    @pytest.mark.parametrize(
        "argument, value, message",
        [
            ("frames", -2, "^frames must be a non-negative integer, got -2"),
            ("answer_tokens", -3, "^answer_tokens must be a non-negative integer"),
            ("frames", 2.5, "^frames must be a non-negative integer, got 2.5"),
            ("frames", True, "^frames must be a non-negative integer, got True"),
            ("frames", [2.9, 1], "^frames of stream 0 must be a non-negative integer"),
            ("frames", ["4", 1], "^frames of stream 0 must be a non-negative integer"),
            ("frames", [True, 1], "^frames of stream 0 must be a non-negative integer"),
            ("answer_tokens", [1, -1], "^answer_tokens of stream 1 must be a non-negative"),
            ("frames", [None, 1], "^frames of stream 0 must be a non-negative integer"),
        ],
    )
    def test_scenario_counts_rejected_at_the_boundary(
        self, plane, edge, argument, value, message
    ):
        profiles = [StreamProfile(kv_len=1_000, session_id=i) for i in range(2)]
        with pytest.raises(ValueError, match=message):
            plane.scenario_estimates(edge["V-Rex8"], profiles, **{argument: value})

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (-5, "^question_tokens must be a non-negative integer, got -5"),
            ([25, -1], "^question_tokens of stream 1 must be a non-negative integer"),
            ([25.0, None], "^question_tokens of stream 0 must be a non-negative integer"),
            (False, "^question_tokens must be a non-negative integer, got False"),
        ],
    )
    def test_question_tokens_rejected_at_the_boundary(self, plane, edge, tokens, message):
        profiles = [StreamProfile(kv_len=1_000, session_id=i) for i in range(2)]
        with pytest.raises(ValueError, match=message):
            plane.question_step(edge["V-Rex8"], profiles, question_tokens=tokens)

    def test_zero_question_tokens_prefill_nothing(self, plane, edge):
        """The boundary check keeps zero a count: no question prefill, no error."""
        profiles = [StreamProfile(kv_len=20_000, session_id=i) for i in range(2)]
        step = plane.question_step(edge["V-Rex8"], profiles, question_tokens=[0, None])
        assert [row.total_s for row in step.streams] == [0.0, 0.0]


class TestContention:
    @pytest.mark.parametrize(
        "step", ["frame_step", "question_step", "generation_step", "scenario_estimates"]
    )
    def test_every_step_takes_its_modes_per_call(self, plane, edge, step):
        """Each public step prices the mode it is called with and rejects a
        truthy non-bool ``contention`` rather than reading it as "on"."""
        profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(4)]
        price = getattr(plane, step)
        with pytest.raises(ValueError, match="^unknown contention 'no'"):
            price(edge["V-Rex8"], profiles, contention="no")
        with pytest.raises(ValueError, match="^unknown compute policy 'shared'"):
            price(edge["V-Rex8"], profiles, compute="shared")
        if step != "scenario_estimates":
            assert price(edge["V-Rex8"], profiles).contention is True
            assert price(edge["V-Rex8"], profiles, contention=False).contention is False
            assert price(edge["V-Rex8"], profiles, compute="timesliced").compute == "timesliced"

    @pytest.mark.parametrize("step", ["frame_step", "question_step", "generation_step"])
    def test_a_compute_policy_needs_contention(self, plane, edge, step):
        """``contention=False`` prices no shared compute, so asking it for
        time-sliced compute is refused rather than silently ignored."""
        profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(4)]
        price = getattr(plane, step)
        with pytest.raises(ValueError, match="compute='timesliced' needs contention=True"):
            price(edge["V-Rex8"], profiles, contention=False, compute="timesliced")
        assert price(edge["V-Rex8"], profiles, contention=False, compute="private").compute == (
            "private"
        )

    def test_aligned_exposed_fetch_strictly_increases(self, plane, edge):
        """Acceptance: more aligned streams -> more exposed fetch on the edge."""
        system = edge["AGX + FlexGen"]
        previous = None
        for count in (1, 2, 3, 4):
            step = plane.frame_step(
                system, [StreamProfile(kv_len=40_000, session_id=i) for i in range(count)]
            )
            if previous is not None:
                assert step.mean_exposed_fetch_s > previous
            previous = step.mean_exposed_fetch_s

    def test_staggered_arrivals_reduce_exposed_fetch(self, plane, edge):
        system = edge["AGX + FlexGen"]
        solo = plane.frame_step(system, [StreamProfile(kv_len=40_000)]).streams[0].total_s
        aligned = plane.frame_step(
            system,
            [
                StreamProfile(kv_len=40_000, arrival_offset_s=offset, session_id=i)
                for i, offset in enumerate(aligned_arrivals(4))
            ],
        )
        staggered = plane.frame_step(
            system,
            [
                StreamProfile(kv_len=40_000, arrival_offset_s=offset, session_id=i)
                for i, offset in enumerate(staggered_arrivals(4, solo))
            ],
        )
        assert staggered.mean_exposed_fetch_s < aligned.mean_exposed_fetch_s
        # fully staggered streams see no queueing at all
        assert max(stream.pcie_wait_s for stream in staggered.streams) == 0.0
        assert max(stream.pcie_wait_s for stream in aligned.streams) > 0.0

    def test_vrex_queues_on_link_and_dre(self, plane, edge):
        step = plane.frame_step(
            edge["V-Rex8"], [StreamProfile(kv_len=40_000, session_id=i) for i in range(4)]
        )
        assert max(stream.pcie_wait_s for stream in step.streams) > 0.0
        assert max(stream.breakdown["dre_wait"] for stream in step.streams) > 0.0
        # FCFS: later aligned streams wait at least as long on the link
        waits = [stream.pcie_wait_s for stream in step.streams]
        assert waits == sorted(waits)

    def test_heterogeneous_caches_pay_heterogeneous_latency(self, plane, edge):
        profiles = [
            StreamProfile(kv_len=kv, session_id=i)
            for i, kv in enumerate((10_000, 25_000, 40_000))
        ]
        step = plane.frame_step(edge["V-Rex8"], profiles)
        totals = [stream.total_s for stream in step.streams]
        assert totals[0] < totals[1] < totals[2]

    def test_low_occupancy_stream_holds_link_longer(self, plane, edge):
        """Worse measured occupancy -> worse link efficiency -> longer fetch."""
        good = StreamProfile(
            kv_len=40_000, measured=MeasuredRetrieval(avg_tokens_per_cluster=32.0)
        )
        poor = StreamProfile(
            kv_len=40_000,
            measured=MeasuredRetrieval(avg_tokens_per_cluster=4.0),
            session_id=1,
        )
        step_good = plane.frame_step(edge["V-Rex8"], [good])
        step_poor = plane.frame_step(edge["V-Rex8"], [poor])
        assert (
            step_poor.streams[0].breakdown["kv_fetch_raw"]
            > step_good.streams[0].breakdown["kv_fetch_raw"]
        )

    @pytest.mark.parametrize("system_name", ["AGX + FlexGen", "V-Rex8", "AGX + InfiniGen"])
    def test_schedule_independent_of_profile_list_order(self, plane, edge, system_name):
        """The link serves FCFS in request time; list order must not matter."""
        system = edge[system_name]
        big = StreamProfile(kv_len=40_000, session_id=0)
        small = StreamProfile(kv_len=20_000, session_id=1)
        forward = {s.session_id: s for s in plane.frame_step(system, [big, small]).streams}
        reverse = {s.session_id: s for s in plane.frame_step(system, [small, big]).streams}
        for session_id in (0, 1):
            assert forward[session_id].total_s == pytest.approx(
                reverse[session_id].total_s, abs=1e-12
            )
            assert forward[session_id].pcie_wait_s == pytest.approx(
                reverse[session_id].pcie_wait_s, abs=1e-12
            )

    def test_earlier_link_request_is_served_first(self, plane, edge):
        """A short stream requesting the link earlier never waits behind a
        longer stream whose request arrives later (the FCFS inversion bug)."""
        system = edge["AGX + FlexGen"]
        step = plane.frame_step(
            system,
            [StreamProfile(kv_len=40_000, session_id=0), StreamProfile(kv_len=20_000, session_id=1)],
        )
        by_id = {s.session_id: s for s in step.streams}
        # the 20k stream's serial compute finishes first, so it gets the link first
        assert by_id[1].pcie_wait_s == 0.0
        assert by_id[0].pcie_wait_s > 0.0

    def test_contended_makespan_at_least_single_stream(self, plane, edge):
        solo = plane.frame_step(edge["AGX + FlexGen"], [StreamProfile(kv_len=40_000)])
        fleet = plane.frame_step(
            edge["AGX + FlexGen"],
            [StreamProfile(kv_len=40_000, session_id=i) for i in range(4)],
        )
        assert fleet.total_s >= solo.total_s
        assert fleet.batch == 4


#: (finish_s, latency_s, compute_wait_s, pcie_wait_s, exposed_prediction_s,
#: exposed_fetch_s) per stream, as the time-sliced stage machine resolves
#: them for the seeded trio below (pinned: any rewrite of it must keep them).
_STAGE_OUTCOMES = {
    "vrex": (
        (0.0419259974341174, 0.0419259974341174, 0.025616508596371938, 0.0, 0.0, 0.0),
        (0.05990620438920948, 0.05990620438920948, 0.025925997434117394, 0.0, 0.017338955202597754, 0.0),
        (0.1376991676022176, 0.1356991676022176, 0.02000000000000002, 0.026895280723702605, 0.031010923665506875, 0.07507173534033879),
    ),
    "gpu_overlap": (
        (0.07557817285211861, 0.07557817285211861, 0.02698402449066056, 0.0, 0.03228465952371259, 0.0),
        (0.07526868401437316, 0.07526868401437316, 0.027978448073695657, 0.0, 0.030648984188183168, 0.0),
        (0.1460634922666882, 0.1440634922666882, 0.020000000000000014, 0.034259605388173194, 0.03201092366550689, 0.08243606000480937),
    ),
    "flexgen": (
        (0.07557817285211861, 0.07557817285211861, 0.02698402449066056, 0.0, 0.03228465952371259, 0.0),
        (0.17904194034038384, 0.17904194034038384, 0.027978448073695657, 0.06615171146051378, 0.030648984188183168, 0.10377325632601068),
        (0.14142039547488694, 0.13942039547488694, 0.020000000000000014, 0.0, 0.03201092366550689, 0.07779296321300812),
    ),
}


class TestTimeslicedStageIsItsOwnOutcome:
    @pytest.mark.parametrize(
        "name, is_vrex, overlaps",
        [("vrex", True, True), ("gpu_overlap", False, True), ("flexgen", False, False)],
    )
    def test_on_finish_receives_the_resolved_stage(self, name, is_vrex, overlaps):
        rng = random.Random(11)  # simlint: ignore[SIM001] — the pins' seeded stream
        loop = EventLoop()
        server = PreemptiveResource(loop, "compute", quantum_s=1e-3, priority=PRIO_COMPLETE)
        dre = ResourceQueue("dre")
        link = PCIeLinkQueue(PCIeLink(PCIE4_X16))
        stages = StageCore(is_vrex, 3)
        resolved = []
        issue = StageDriver(stages, loop, server, dre, link, on_finish=resolved.append).issue
        for index in range(3):
            key = (index, index)
            begin = partial(
                issue,
                index,
                key,
                overlaps,
                is_vrex,  # on_dre
                rng.uniform(0.005, 0.03),  # compute_s
                rng.uniform(0.001, 0.02),  # prediction_s
                rng.uniform(0.02, 0.05) * index,  # fetch_s
            )
            loop.schedule(0.002 * (index // 2), begin, priority=PRIO_ISSUE, key=key)
        loop.run()
        assert sorted(resolved) == [0, 1, 2]  # each stage resolved exactly once
        for index, pinned in enumerate(_STAGE_OUTCOMES[name]):
            finish_s = stages.finish_s[index]
            assert finish_s == max(stages.compute_finish_s[index], stages.chain_end_s[index])
            assert (finish_s, *stages.resolved(index)) == pytest.approx(
                pinned, rel=1e-12, abs=1e-15
            )


class TestProfiles:
    def test_from_session_report_adopts_measured_statistics(self):
        profile = StreamProfile.from_session_report(_report())
        assert profile.kv_len == 200
        assert profile.frame_ratio == pytest.approx(0.45)
        assert profile.generation_ratio == pytest.approx(0.06)
        assert profile.measured.sort_fraction == pytest.approx(0.21)
        assert profile.measured.avg_tokens_per_cluster == pytest.approx(16.5)

    def test_idle_report_keeps_policy_defaults(self):
        idle = _report(
            frames=0,
            questions=0,
            generated=0,
            cache=0,
            frame_retrieval_ratio=1.0,
            generation_retrieval_ratio=1.0,
            sort_fraction=0.0,
            wicsum_score_elements=0,
            num_clusters=0,
            mean_tokens_per_cluster=0.0,
        )
        profile = StreamProfile.from_session_report(idle)
        assert profile.frame_ratio is None
        assert profile.generation_ratio is None
        assert profile.measured.sort_fraction == EARLY_EXIT_SORT_FRACTION

    def test_profiles_from_reports_offsets_and_projection(self):
        reports = [_report(session_id=i, cache=100 * (i + 1)) for i in range(3)]
        profiles = profiles_from_reports(
            reports, arrival_offsets=(0.0, 0.1, 0.2), kv_lens=(10_000, 20_000, 30_000)
        )
        assert [p.kv_len for p in profiles] == [10_000, 20_000, 30_000]
        assert [p.arrival_offset_s for p in profiles] == [0.0, 0.1, 0.2]
        assert [p.session_id for p in profiles] == [0, 1, 2]
        with pytest.raises(ValueError):
            profiles_from_reports(reports, arrival_offsets=(0.0,))
        with pytest.raises(ValueError):
            profiles_from_reports(reports, kv_lens=(1_000,))


class TestSizeBounds:
    """Lengths past the exactly-priced range fail at the boundary, naming the argument."""

    @pytest.mark.parametrize("kv_len", [MAX_KV_LEN + 1, 2**53 + 1, 2**70])
    def test_oversized_cache_rejected(self, kv_len):
        with pytest.raises(ValueError, match=rf"^kv_len must be in \[0, {MAX_KV_LEN}\]"):
            StreamProfile(kv_len=kv_len)

    def test_largest_cache_prices(self, plane, edge):
        profile = StreamProfile(kv_len=MAX_KV_LEN)
        assert plane.generation_step(edge["V-Rex8"], [profile]).total_s > 0.0

    def test_cache_edited_in_place_past_the_bound_rejected(self, edge):
        profile = StreamProfile(kv_len=1_000)
        profile.kv_len = 2**53 + 1
        with pytest.raises(ValueError, match=rf"^kv_len must be at most {MAX_KV_LEN}"):
            BatchLatencyModel().frame_step(edge["V-Rex8"], [profile])

    def test_oversized_cluster_count_rejected(self):
        with pytest.raises(ValueError, match=r"^kv_len // measured.avg_tokens_per_cluster"):
            StreamProfile(
                kv_len=MAX_KV_LEN, measured=MeasuredRetrieval(avg_tokens_per_cluster=0.5)
            )

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (MAX_Q_LEN + 1, f"^question_tokens must be at most {MAX_Q_LEN}, got"),
            ([25, 2**70], f"^question_tokens of stream 1 must be at most {MAX_Q_LEN}"),
        ],
    )
    def test_oversized_question_rejected(self, plane, edge, tokens, message):
        profiles = [StreamProfile(kv_len=1_000, session_id=i) for i in range(2)]
        with pytest.raises(ValueError, match=message):
            plane.question_step(edge["V-Rex8"], profiles, question_tokens=tokens)

    def test_oversized_model_rejected(self):
        from repro.config import ModelConfig
        from repro.sim.workload import TransformerWorkload

        wide = ModelConfig(hidden_dim=4096, num_heads=4096, num_kv_heads=4096)
        with pytest.raises(ValueError, match="too large to price exactly"):
            BatchLatencyModel(LatencyModel(llm=TransformerWorkload(wide)))

    def test_sub_token_policy_occupancy_rejected(self, edge):
        import dataclasses

        policy = edge["V-Rex8"].policy
        with pytest.raises(ValueError, match="^avg_tokens_per_cluster must be at least 1"):
            dataclasses.replace(policy, avg_tokens_per_cluster=0)


class TestScenarioEstimates:
    def test_zero_frames_zero_answers_prices_question_only(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000)]
        estimates = plane.scenario_estimates(
            system, profiles, frames=0, answer_tokens=0, contention=False
        )
        question = plane.question_step(system, profiles, contention=False)
        assert estimates[0].vision_s == 0.0
        assert estimates[0].generation_s == 0.0
        assert estimates[0].total_s == pytest.approx(question.total_s, rel=REL_TOL)

    def test_per_stream_counts(self, plane, edge):
        system = edge["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000), StreamProfile(kv_len=20_000, session_id=1)]
        estimates = plane.scenario_estimates(
            system, profiles, frames=[10, 20], answer_tokens=[5, 0], contention=False
        )
        assert estimates[0].frames == 10 and estimates[1].frames == 20
        assert estimates[1].generation_s == 0.0
        assert estimates[1].vision_s == pytest.approx(2.0 * estimates[0].vision_s, rel=1e-6)


class _Counter:
    """Counts calls through to a wrapped callable (no timing anywhere)."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


class _Rows:
    """Collects the rows a column derivation returns (no timing anywhere)."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.entries = []

    def __call__(self, *args, **kwargs):
        entries = self.wrapped(*args, **kwargs)
        self.entries.extend(entries)
        return entries


class TestDemandTable:
    """The cost of pricing follows distinct profile values, not calls."""

    STEP_MODES = (
        {"contention": True},
        {"contention": False},
        {"contention": True, "compute": "timesliced"},
    )

    @pytest.fixture(autouse=True)
    def unarmed(self, monkeypatch):
        # under REPRO_SANITIZE=1 every hit is re-derived on purpose
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def test_each_distinct_value_is_derived_exactly_once(self, edge, monkeypatch):
        from repro.sim import batched
        from repro.sim.scheduler import ServingScheduler

        system = edge["V-Rex8"]
        kv_lens = [10_000 + 5_000 * index for index in range(8)] * 2
        profiles = [
            StreamProfile(kv_len=kv_len, session_id=index) for index, kv_len in enumerate(kv_lens)
        ]
        plane = BatchLatencyModel()
        derivations = _Rows(batched._derive_demands)
        monkeypatch.setattr(batched, "_derive_demands", derivations)
        for mode in self.STEP_MODES:
            plane.frame_step(system, profiles, **mode)
            plane.question_step(system, profiles, **mode)
            plane.generation_step(system, profiles, **mode)
            plane.scenario_estimates(system, profiles, **mode)
        # 8 values x {frame at 10 tokens, question at 25, generation at 1},
        # not one per stream per step (16 streams x 6 steps x 3 modes)
        assert len(derivations.entries) == 24

        traces = [[0.0, 0.5]] * len(profiles)
        for _ in range(2):  # a second scheduler on the same plane derives nothing
            ServingScheduler(plane).run(
                system, profiles, traces, question_arrivals=[1.0] * 16, answer_tokens=1
            )
        assert len(derivations.entries) == 24

    def test_all_distinct_fleet_prices_one_fetch_per_fetching_demand(self, edge, monkeypatch):
        """The bypass case: a miss prices nothing an uncached derivation would not.

        Without a memory plane each fetching row carries its one single-channel
        fetch price — no eager cold-tier (SSD) price rides along on the miss path.
        """
        from repro.sim import batched

        system = edge["V-Rex8"]
        profiles = [
            StreamProfile(kv_len=10_000 + 777 * index, session_id=index) for index in range(64)
        ]
        plane = BatchLatencyModel()
        derivations = _Rows(batched._derive_demands)
        monkeypatch.setattr(batched, "_derive_demands", derivations)
        one_channel = _Counter(batched._channel_fetch_time_s)
        monkeypatch.setattr(batched, "_channel_fetch_time_s", one_channel)
        steps = [
            plane.frame_step(system, profiles),
            plane.question_step(system, profiles),
            plane.generation_step(system, profiles),
        ]
        fetching = sum(row.fetch_bytes > 0 for step in steps for row in step.streams)
        assert fetching > 64
        priced = [entry for entry in derivations.entries if entry.fetch_bytes > 0]
        assert len(priced) == fetching
        assert all(entry.fetch_service_s > 0 for entry in priced)
        assert one_channel.calls == 0  # the warm and cold pricers wait for a memory plane

    def test_results_survive_the_table_filling_past_its_bound(self, edge, monkeypatch):
        from repro.sim import batched

        system = edge["V-Rex8"]
        profiles = [
            StreamProfile(kv_len=10_000 + 3_000 * index, session_id=index) for index in range(16)
        ]

        def priced(plane):
            return [
                step(system, fleet)
                for fleet in (profiles, profiles[::2], profiles)
                for step in (plane.frame_step, plane.question_step, plane.generation_step)
            ]

        expected = priced(BatchLatencyModel())
        monkeypatch.setattr(batched, "_DEMAND_TABLE_ENTRIES", 5)
        bounded = BatchLatencyModel()
        assert priced(bounded) == expected
        assert priced(bounded) == expected  # ... and again, on what survived the clears
        assert 0 < bounded._num_demands <= 5
        assert sum(len(table) for table in bounded._demands.values()) == bounded._num_demands
