"""Property tests for the contention-aware batched performance plane.

These pin down the *invariants* of the contention model rather than point
values:

* sharing never speeds a stream up — in a contended fleet every stream's
  total is at least its solo latency, so the contended makespan dominates
  the slowest solo stream;
* the shared link never beats perfect batching — the fleet's raw KV-fetch
  time under contention (per-stream transfers, each paying its own request
  latency) is at least the aggregated mode's single merged transfer;
* staggering is never worse than aligning — for a homogeneous fleet, every
  stream's PCIe queueing wait under staggered arrivals is bounded by its
  wait under aligned arrivals;
* FCFS is request-time ordered — ``_contended_step`` results are invariant
  under permutation of the input stream order.

**The time-sliced bracket** (:class:`TestTimeslicedBracket`): PR 3 left
dense compute priced as private per stream, so the contended and
aggregated modes did not order by makespan.  With the shared round-robin
compute server (``compute="timesliced"``) the bracket closes positively:

* ``private <= timesliced`` **makespan ordering** on every random
  heterogeneous fleet — free per-stream engines are a verified lower
  bracket of the shared-compute schedule (the ordering holds for the fleet
  makespan; an *individual* stream may finish earlier under time-slicing
  because delaying a competitor's compute can win it an earlier FCFS slot
  on the shared link);
* the aggregated mode's per-resource busy times floor the time-sliced
  makespan — batched compute and the merged fetch are each a lower bound,
  so perfect batching bounds the schedule through its resources;
* time-sliced per-stream sojourns dominate solo latency;
* shrinking the quantum never degrades the schedule beyond the coarser
  quantum's granularity: makespan and max slowdown under ``q/4`` are
  bounded by their values under ``q`` plus an ``n * q`` quantization slack
  (round-robin is work-conserving, so the compute busy period itself is
  exactly quantum-invariant — see ``tests/hw/test_event.py`` for the
  processor-sharing convergence of the bare server).

**History independence** (:class:`TestWarmTableIsInvisible`): the plane
memoizes per-stream demands in a value-keyed table, and nothing it priced
before — other fleets, the same fleet in another order or under another
mode — may show in a later result: a warm plane's ``BatchStepResult`` (and
a scheduler run on it) equals a fresh plane's field for field, in every
step mode, with and without a memory plane.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.batched import BatchLatencyModel, StreamProfile, staggered_arrivals
from repro.sim.pipeline import MeasuredRetrieval
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload

PLANE = BatchLatencyModel()
QUANTUM_S = 2e-3
TIMESLICED = BatchLatencyModel(quantum_s=QUANTUM_S)
FINE = BatchLatencyModel(quantum_s=QUANTUM_S / 4)
EDGE = edge_systems(default_llm_workload().model_bytes())
SYSTEM_NAMES = ("V-Rex8", "AGX + FlexGen", "AGX + InfiniGen", "AGX + ReKV")

kv_lens = st.integers(min_value=1_000, max_value=60_000)
occupancies = st.floats(min_value=1.0, max_value=64.0, allow_nan=False)
sort_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
systems = st.sampled_from(SYSTEM_NAMES)
offsets = st.floats(min_value=0.0, max_value=0.3, allow_nan=False)


@st.composite
def fleets(draw, min_size=2, max_size=5, aligned=True):
    """A heterogeneous fleet with distinct session ids."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return [
        StreamProfile(
            kv_len=draw(kv_lens),
            measured=MeasuredRetrieval(
                sort_fraction=draw(sort_fractions),
                avg_tokens_per_cluster=draw(occupancies),
            ),
            arrival_offset_s=0.0 if aligned else draw(offsets),
            session_id=index,
        )
        for index in range(size)
    ]


class TestContentionInvariants:
    @given(system_name=systems, profiles=fleets())
    def test_no_stream_beats_its_solo_latency(self, system_name, profiles):
        """Queueing on shared resources can only add latency."""
        system = EDGE[system_name]
        step = PLANE.frame_step(system, profiles)
        for index, profile in enumerate(profiles):
            solo = PLANE.frame_step(system, [profile]).streams[0].total_s
            assert step.streams[index].total_s >= solo - 1e-12
        assert step.total_s >= max(
            PLANE.frame_step(system, [profile]).streams[0].total_s
            for profile in profiles
        ) - 1e-12

    @given(system_name=systems, profiles=fleets())
    def test_contended_fetch_never_beats_perfect_batching(
        self, system_name, profiles
    ):
        """Per-stream serialized transfers >= one merged batched transfer."""
        system = EDGE[system_name]
        contended = PLANE.frame_step(system, profiles)
        aggregated = PLANE.frame_step(system, profiles, contention=False)
        assert (
            contended.breakdown["kv_fetch_raw"]
            >= aggregated.breakdown["kv_fetch_raw"] - 1e-15
        )

    @given(
        system_name=systems,
        kv_len=kv_lens,
        count=st.integers(min_value=2, max_value=5),
        spacing_ms=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    )
    def test_staggered_streams_never_wait_longer_than_aligned(
        self, system_name, kv_len, count, spacing_ms
    ):
        """For a homogeneous fleet, staggering can only shrink PCIe waits."""
        system = EDGE[system_name]

        def fleet(offsets):
            return [
                StreamProfile(kv_len=kv_len, arrival_offset_s=offset, session_id=index)
                for index, offset in enumerate(offsets)
            ]

        aligned = PLANE.frame_step(system, fleet([0.0] * count))
        staggered = PLANE.frame_step(
            system, fleet(staggered_arrivals(count, spacing_ms * 1e-3))
        )
        aligned_waits = {s.session_id: s.pcie_wait_s for s in aligned.streams}
        for stream in staggered.streams:
            assert stream.pcie_wait_s <= aligned_waits[stream.session_id] + 1e-12
        assert max(s.pcie_wait_s for s in staggered.streams) <= max(
            s.pcie_wait_s for s in aligned.streams
        ) + 1e-12
        assert staggered.mean_exposed_fetch_s <= aligned.mean_exposed_fetch_s + 1e-12

    @given(
        system_name=systems,
        profiles=fleets(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_contended_step_invariant_under_permutation(
        self, system_name, profiles, seed
    ):
        """FCFS serves in request time: list order must not matter."""
        import numpy as np

        system = EDGE[system_name]
        permutation = np.random.default_rng(seed).permutation(len(profiles))
        shuffled = [profiles[index] for index in permutation]
        forward = {s.session_id: s for s in PLANE.frame_step(system, profiles).streams}
        permuted = {s.session_id: s for s in PLANE.frame_step(system, shuffled).streams}
        assert forward.keys() == permuted.keys()
        for session_id, row in forward.items():
            other = permuted[session_id]
            assert other.total_s == pytest.approx(row.total_s, abs=1e-12)
            assert other.pcie_wait_s == pytest.approx(row.pcie_wait_s, abs=1e-12)
            assert other.breakdown.get("dre_wait", 0.0) == pytest.approx(
                row.breakdown.get("dre_wait", 0.0), abs=1e-12
            )
            assert other.exposed_fetch_s == pytest.approx(
                row.exposed_fetch_s, abs=1e-12
            )

    @given(
        system_name=systems,
        profiles=fleets(aligned=False),
        skipped_offsets=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=3,
        ),
        compute=st.sampled_from(("private", "timesliced")),
    )
    def test_streams_that_skip_the_step_are_invisible(
        self, system_name, profiles, skipped_offsets, compute
    ):
        """Appending skipped streams moves no active row and no makespan.

        A stream with ``question_tokens=None`` takes no part in the step,
        so neither its presence nor its arrival offset (earlier or later
        than every active stream) may show in the result.
        """
        system = EDGE[system_name]
        tokens = [20 + index for index in range(len(profiles))]
        skipped = [
            StreamProfile(kv_len=5_000, arrival_offset_s=offset, session_id=100 + index)
            for index, offset in enumerate(skipped_offsets)
        ]
        alone = TIMESLICED.question_step(
            system, profiles, question_tokens=tokens, compute=compute
        )
        padded = TIMESLICED.question_step(
            system,
            profiles + skipped,
            question_tokens=tokens + [None] * len(skipped),
            compute=compute,
        )
        assert padded.total_s == alone.total_s
        assert padded.streams[: len(profiles)] == alone.streams
        assert padded.breakdown == alone.breakdown
        assert all(row.total_s == 0.0 for row in padded.streams[len(profiles) :])
        first = min(profile.arrival_offset_s for profile in profiles)
        assert alone.total_s == max(
            row.arrival_offset_s + row.total_s for row in alone.streams
        ) - first

    @pytest.mark.parametrize("compute", ("private", "timesliced"))
    def test_a_step_nobody_takes_part_in_has_no_makespan(self, compute):
        profiles = [
            StreamProfile(kv_len=5_000, arrival_offset_s=offset, session_id=index)
            for index, offset in enumerate((0.0, 5.0))
        ]
        step = PLANE.question_step(
            EDGE["V-Rex8"], profiles, question_tokens=[None, None], compute=compute
        )
        assert step.total_s == 0.0
        assert all(row.total_s == 0.0 for row in step.streams)


class TestTimeslicedBracket:
    """The shared-compute mode closes the bracket the private policy left open."""

    @given(system_name=systems, profiles=fleets(aligned=False))
    def test_private_compute_is_a_verified_lower_bracket(
        self, system_name, profiles
    ):
        """``private <= timesliced`` makespan on every heterogeneous fleet.

        This is the positive ordering PR 3 documented as missing: with
        compute priced privately the contended and aggregated modes did not
        order by makespan; against the shared round-robin server the private
        mode is a true lower bracket.
        """
        system = EDGE[system_name]
        private = PLANE.frame_step(system, profiles)
        timesliced = TIMESLICED.frame_step(system, profiles, compute="timesliced")
        assert private.total_s <= timesliced.total_s * (1 + 1e-12) + 1e-15
        assert timesliced.compute == "timesliced"
        # work conservation: the shared server delivered every stream's compute
        assert timesliced.breakdown["compute_busy"] == pytest.approx(
            sum(s.breakdown["llm_compute"] for s in timesliced.streams)
            + (
                timesliced.breakdown["kv_prediction_raw"]
                if system.device.kind != "vrex"
                else 0.0
            ),
            rel=1e-9,
        )

    @given(system_name=systems, profiles=fleets())
    def test_aggregated_resources_floor_the_timesliced_makespan(
        self, system_name, profiles
    ):
        """Perfect batching bounds the schedule through its resource totals.

        For aligned fleets the time-sliced makespan cannot beat the
        aggregated mode's batched compute or its merged fetch — the
        ``aggregated <= timesliced`` half of the bracket, stated on the
        resources where it is provable (the two *lockstep* makespans
        themselves still cross, by design: lockstep batching both saves
        weight reads and forces everyone to wait for the whole batch).
        """
        system = EDGE[system_name]
        aggregated = PLANE.frame_step(system, profiles, contention=False)
        timesliced = TIMESLICED.frame_step(system, profiles, compute="timesliced")
        assert (
            timesliced.breakdown["compute_busy"]
            >= aggregated.breakdown["llm_compute"] - 1e-12
        )
        assert (
            timesliced.breakdown["kv_fetch_raw"]
            >= aggregated.breakdown["kv_fetch_raw"] - 1e-15
        )
        assert timesliced.total_s >= aggregated.breakdown["llm_compute"] - 1e-12
        assert timesliced.total_s >= max(
            aggregated.breakdown["kv_fetch_raw"] - 1e-12, 0.0
        )

    @given(system_name=systems, profiles=fleets(min_size=2, max_size=4))
    def test_timesliced_sojourn_dominates_solo_latency(self, system_name, profiles):
        """Sharing the compute server never speeds an individual stream up
        relative to running alone on the whole system."""
        system = EDGE[system_name]
        step = TIMESLICED.frame_step(system, profiles, compute="timesliced")
        for index, profile in enumerate(profiles):
            solo = TIMESLICED.frame_step(
                system, [profile], compute="timesliced"
            ).streams[0].total_s
            assert step.streams[index].total_s >= solo - 1e-12

    @given(system_name=systems, profiles=fleets(min_size=2, max_size=4))
    def test_quantum_monotone_up_to_granularity(self, system_name, profiles):
        """A finer quantum never degrades the schedule beyond ``n * q`` slack.

        Strict monotonicity is false for round-robin (quantization can
        nudge a completion across a slice boundary), but the degradation of
        both the makespan and the max slowdown is bounded by the *coarser*
        quantum's granularity.
        """
        system = EDGE[system_name]
        coarse = TIMESLICED.frame_step(system, profiles, compute="timesliced")
        fine = FINE.frame_step(system, profiles, compute="timesliced")
        slack = len(profiles) * QUANTUM_S
        assert fine.total_s <= coarse.total_s + slack
        solo = [
            TIMESLICED.frame_step(system, [p], compute="timesliced").streams[0].total_s
            for p in profiles
        ]
        coarse_slowdown = max(
            row.total_s / lone for row, lone in zip(coarse.streams, solo, strict=True)
        )
        fine_slowdown = max(
            row.total_s / lone for row, lone in zip(fine.streams, solo, strict=True)
        )
        assert fine_slowdown <= coarse_slowdown + slack / min(solo)

    @given(
        system_name=systems,
        profiles=fleets(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_timesliced_step_invariant_under_permutation(
        self, system_name, profiles, seed
    ):
        """The shared compute server keys on session ids, not list order."""
        import numpy as np

        system = EDGE[system_name]
        permutation = np.random.default_rng(seed).permutation(len(profiles))
        shuffled = [profiles[index] for index in permutation]
        forward = {
            s.session_id: s
            for s in TIMESLICED.frame_step(system, profiles, compute="timesliced").streams
        }
        permuted = {
            s.session_id: s
            for s in TIMESLICED.frame_step(system, shuffled, compute="timesliced").streams
        }
        assert forward.keys() == permuted.keys()
        for session_id, row in forward.items():
            other = permuted[session_id]
            assert other.total_s == pytest.approx(row.total_s, abs=1e-12)
            assert other.compute_wait_s == pytest.approx(row.compute_wait_s, abs=1e-12)
            assert other.pcie_wait_s == pytest.approx(row.pcie_wait_s, abs=1e-12)


#: a stage's compute, prediction or fetch seconds: none, a few ulps of a
#: millisecond, or anything up to 0.2 s
stage_seconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-15, max_value=1e-9),
    st.floats(min_value=0.0, max_value=0.2),
)


class TestLoneStageHasOneLatency:
    """One stage on idle servers: three definitions of its latency agree.

    The time-sliced stage machine (run through the plane's time-sliced
    step), the private path (``contended_issue`` + ``contended_latency``)
    and the admission controller's closed form
    (``pipeline.overlap_latency``) each define what a lone stage costs.
    Alone, nothing queues and the shared server runs the stage's own work
    back to back, so all three must agree up to float rounding at the
    stage's absolute time scale.
    """

    @given(
        system_name=st.sampled_from(("V-Rex8", "AGX + InfiniGen", "AGX + FlexGen")),
        on_dre=st.booleans(),
        compute_s=stage_seconds,
        prediction_s=stage_seconds,
        fetch_s=stage_seconds,
        quantum_s=st.sampled_from((1e-4, 1e-3, 1e-2, 1.0)),
        start_s=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_timesliced_private_and_closed_form_agree(
        self, system_name, on_dre, compute_s, prediction_s, fetch_s, quantum_s, start_s
    ):
        from repro.hw.compute import KernelCost
        from repro.sim.batched import _DemandEntry, contended_issue, contended_latency
        from repro.sim.pipeline import FRAME_STAGE, PredictionParts, overlap_latency

        system = EDGE[system_name]
        is_vrex = system.device.kind == "vrex"
        overlaps = system.policy.overlap_fetch
        plane = BatchLatencyModel(quantum_s=quantum_s)
        layers = plane.base.llm.model.num_layers
        entry = _DemandEntry(
            KernelCost(0.0),
            PredictionParts("dense", 0.0, 0.0, 0.0, on_dre),
            compute_s / layers,
            prediction_s / layers,
        )
        profile = StreamProfile(kv_len=1_000, arrival_offset_s=start_s)
        row = plane._contended_step(
            system, [profile], [(entry, fetch_s / layers)], FRAME_STAGE, False, False, True
        ).streams[0]
        # the stage totals the machine saw (per-layer demand x layers)
        compute, prediction, fetch = (
            row.breakdown[key] for key in ("llm_compute", "kv_prediction_raw", "kv_fetch_raw")
        )

        # idle DRE and link: the prediction and the transfer start on request
        prediction_end, request = contended_issue(
            is_vrex, overlaps, start_s, start_s, compute, prediction
        )
        private, _, _ = contended_latency(
            is_vrex, overlaps, start_s, compute, prediction, prediction_end, request,
            request + fetch if fetch > 0 else None,
        )
        solo = overlap_latency(is_vrex, overlaps, compute, prediction, fetch)

        tolerance = 1e-12 * max(1.0, start_s + solo)
        assert abs(row.total_s - solo) <= tolerance
        assert abs(private - solo) <= tolerance


class TestSchedulerPropertyBridge:
    """The scheduler inherits the plane's invariants through shared pricing."""

    @settings(max_examples=15)
    @given(system_name=systems, profiles=fleets(min_size=2, max_size=4))
    def test_scheduler_matches_contended_step_for_any_fleet(
        self, system_name, profiles
    ):
        """Aligned single-step private run == the plane's private step, bit for bit.

        Both drive the same ``contended_issue`` / ``contended_latency``
        pair with their own FCFS grants, and an arrival at 0.0 makes the
        record's ``finish - arrival`` the plane's ``vision + latency``.
        """
        from repro.sim.scheduler import ServingScheduler

        system = EDGE[system_name]
        step = PLANE.frame_step(system, profiles)
        result = ServingScheduler(PLANE).run(
            system, profiles, [[0.0]] * len(profiles)
        )
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == row.total_s

    @settings(max_examples=15)
    @given(system_name=systems, profiles=fleets(min_size=2, max_size=4))
    def test_scheduler_matches_timesliced_step_for_any_fleet(
        self, system_name, profiles
    ):
        """Aligned single-step timesliced run == the plane's timesliced mode.

        Approximate, not ``==``: the record's sojourn is ``finish - arrival``
        with the stage's absolute ``finish`` time, while the plane's row is
        ``vision + (finish - start)``, and the two differ by one rounding.
        On V-Rex8 with default-profile streams of ``kv_len`` 1 000 and
        1 094 (quantum 2 ms), the second stream's record reads
        0.17318168098604828 against the row's 0.17318168098604825.
        """
        from repro.sim.scheduler import SchedulerConfig, ServingScheduler

        system = EDGE[system_name]
        step = TIMESLICED.frame_step(system, profiles, compute="timesliced")
        result = ServingScheduler(
            TIMESLICED, SchedulerConfig(compute="timesliced", quantum_s=QUANTUM_S)
        ).run(system, profiles, [[0.0]] * len(profiles))
        for row in step.streams:
            record = result.jobs(stream_index=row.session_id)[0]
            assert record.sojourn_s == pytest.approx(row.total_s, rel=1e-9)
            assert record.compute_wait_s == pytest.approx(
                row.compute_wait_s, abs=1e-12
            )
        assert result.makespan_s == pytest.approx(step.total_s, rel=1e-9)

    @settings(max_examples=10)
    @given(
        system_name=systems,
        profiles=fleets(min_size=2, max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_trace_level_private_lower_brackets_timesliced(
        self, system_name, profiles, seed
    ):
        """The makespan ordering survives multi-frame stochastic arrivals."""
        from repro.sim.arrivals import PoissonArrivals, rate_for_load
        from repro.sim.scheduler import SchedulerConfig, ServingScheduler

        system = EDGE[system_name]
        num_frames = 4
        solo = PLANE.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(
            rate_hz=rate_for_load(0.7, solo, len(profiles))
        ).generate(len(profiles), num_frames, seed=seed)
        private = ServingScheduler(PLANE).run(system, profiles, traces)
        timesliced = ServingScheduler(
            TIMESLICED, SchedulerConfig(compute="timesliced", quantum_s=QUANTUM_S)
        ).run(system, profiles, traces)
        # The aligned single-step bracket is exact, but across a trace the
        # sliced run can finish an individual frame earlier, issuing that
        # stream's next fetch sooner and overlapping better; each of the
        # streams x frames compute legs can shift by at most one quantum
        # round, so the ordering only holds up to that re-slicing slack.
        slack = len(profiles) * num_frames * QUANTUM_S
        assert private.makespan_s <= timesliced.makespan_s * (1 + 1e-9) + slack


GiB = 1024**3
STEP_MODES = {
    "aggregated": {"contention": False},
    "contended": {"contention": True, "compute": "private"},
    "timesliced": {"contention": True, "compute": "timesliced"},
}


class TestWarmTableIsInvisible:
    """What a plane priced before never shows in what it prices next."""

    @staticmethod
    def _plane(bank_budget_bytes):
        memory = (
            None
            if bank_budget_bytes is None
            else ShardedKVHierarchy(num_banks=2, bank_budget_bytes=bank_budget_bytes)
        )
        return BatchLatencyModel(quantum_s=QUANTUM_S, memory=memory)

    @staticmethod
    def _near_copies(profiles):
        """The fleet again, one calibration field changed at a time.

        Each copy collides with the real fleet's table entries unless that
        field is part of the key.
        """

        def measured(profile, **changes):
            return dataclasses.replace(profile.measured, **changes)

        edits = (
            lambda p: {"kv_len": p.kv_len + 1},
            lambda p: {"frame_ratio": 0.5},
            lambda p: {"generation_ratio": 0.5},
            lambda p: {"measured": measured(p, sort_fraction=(p.measured.sort_fraction + 0.5) % 1.0)},
            lambda p: {
                "measured": measured(
                    p, avg_tokens_per_cluster=p.measured.avg_tokens_per_cluster + 1.0
                )
            },
        )
        return [
            [dataclasses.replace(profile, **edit(profile)) for profile in profiles]
            for edit in edits
        ]

    @staticmethod
    def _steps(plane, system, profiles, mode, backwards=False):
        """Frame, question and generation results, priced in either order."""
        # the first stream skips the question (a ``None`` entry), the second
        # asks a one-token question (generation's ``q_len``, the other stage)
        question_tokens = [None, 1] + [20 + index for index in range(2, len(profiles))]
        kwargs = STEP_MODES[mode]
        steps = [
            lambda: plane.frame_step(system, profiles, **kwargs),
            lambda: plane.question_step(
                system, profiles, question_tokens=question_tokens, **kwargs
            ),
            lambda: plane.generation_step(system, profiles, **kwargs),
        ]
        results = [step() for step in (steps[::-1] if backwards else steps)]
        return results[::-1] if backwards else results

    @settings(max_examples=20)
    @given(
        system_name=systems,
        profiles=fleets(min_size=2, max_size=4, aligned=False),
        others=fleets(min_size=2, max_size=4),
        mode=st.sampled_from(sorted(STEP_MODES)),
        bank_budget_bytes=st.sampled_from((None, float("inf"), 4.0 * GiB, 0.5 * GiB)),
        engine=st.sampled_from(("array", "reference")),
    )
    def test_warm_plane_equals_fresh_plane(
        self, system_name, profiles, others, mode, bank_budget_bytes, engine
    ):
        from repro.sim.scheduler import SchedulerConfig, ServingScheduler

        system = EDGE[system_name]
        expected = self._steps(self._plane(bank_budget_bytes), system, profiles, mode)
        # one history per near copy (priced together, one copy's entries
        # would mask another's collisions) ...
        for decoys in self._near_copies(profiles):
            warm = self._plane(bank_budget_bytes)
            self._steps(warm, system, decoys, mode, backwards=True)
            assert self._steps(warm, system, profiles, mode) == expected
        # ... and one of other fleets, the other modes and the other order
        warm = self._plane(bank_budget_bytes)
        for other_mode in sorted(STEP_MODES):
            self._steps(warm, system, others, other_mode)
            if other_mode != mode:
                self._steps(warm, system, profiles, other_mode, backwards=True)
        self._steps(warm, system, profiles[::-1], mode, backwards=True)
        assert self._steps(warm, system, profiles, mode) == expected

        config = SchedulerConfig(compute=STEP_MODES[mode].get("compute", "private"))
        traces = [[profile.arrival_offset_s + 0.2 * frame for frame in range(3)] for profile in profiles]
        arguments = {
            "question_arrivals": [trace[-1] for trace in traces],
            "question_tokens": [None] + [20] * (len(profiles) - 1),
            "answer_tokens": [0] + [2] * (len(profiles) - 1),
        }
        on_warm = ServingScheduler(warm, config, engine=engine).run(
            system, profiles, traces, **arguments
        )
        on_fresh = ServingScheduler(self._plane(bank_budget_bytes), config, engine=engine).run(
            system, profiles, traces, **arguments
        )
        assert on_warm.records == on_fresh.records
