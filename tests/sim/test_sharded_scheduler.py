"""Sharded memory plane through the serving planes: degenerate + golden.

Two pins, mirroring how PRs 3–4 kept each new plane a verified superset:

* **degenerate case** — a :class:`BatchLatencyModel` built with a
  single-bank, unbounded-budget :class:`ShardedKVHierarchy` reproduces the
  memory-less plane's contended and time-sliced steps *and* whole
  scheduler runs bit for bit (asserted at 1e-9, expected — and observed —
  exact), because the single-bank fully-warm split prices through exactly
  the same fetch calls;
* **golden memory-bound run** — one seeded bursty run on the server
  V-Rex48 deployment whose fleet exceeds the banks' warm capacity, pinned
  exactly (percentiles, miss/drop/defer counts, per-bank occupancy
  trajectories) with residency-aware admission off and on — and the
  residency controller *strictly* reduces the deadline-miss rate.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from repro.hw.memory.sharding import (
    EvictionRecord,
    ShardedKVHierarchy,
    partition_by_cluster,
)
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.scheduler import (
    ADMIT,
    DEFER,
    EVICT,
    SchedulerConfig,
    ServingScheduler,
    StageTable,
    admission_decision,
)
from repro.sim.systems import edge_systems, server_systems
from repro.sim.workload import default_llm_workload

REL_TOL = 1e-9
GiB = 1024.0**3
KV_LENS = (40_000, 25_000, 10_000, 40_000)


@pytest.fixture(scope="module")
def model_bytes() -> float:
    return default_llm_workload().model_bytes()


@pytest.fixture(scope="module")
def edge(model_bytes):
    return edge_systems(model_bytes)


@pytest.fixture(scope="module")
def server(model_bytes):
    return server_systems(model_bytes)


@pytest.fixture(scope="module")
def plain_plane() -> BatchLatencyModel:
    return BatchLatencyModel()


@pytest.fixture(scope="module")
def degenerate_plane() -> BatchLatencyModel:
    """Memory-aware plane with one unbounded bank — the bit-for-bit anchor."""
    return BatchLatencyModel(memory=ShardedKVHierarchy(num_banks=1))


def _fleet(kv_lens):
    return [
        StreamProfile(kv_len=kv, session_id=index)
        for index, kv in enumerate(kv_lens)
    ]


class TestDegenerateBitForBit:
    """Single bank + unbounded budget == the memory-less plane, exactly."""

    @pytest.mark.parametrize(
        "system_name",
        ["AGX + FlexGen", "AGX + InfiniGen", "AGX + ReKV", "V-Rex8"],
    )
    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_steps_reproduce_memoryless_plane(
        self, plain_plane, degenerate_plane, edge, system_name, compute
    ):
        system = edge[system_name]
        profiles = _fleet(KV_LENS)
        plain = plain_plane.frame_step(system, profiles, compute=compute)
        sharded = degenerate_plane.frame_step(system, profiles, compute=compute)
        assert sharded.total_s == pytest.approx(plain.total_s, rel=REL_TOL)
        assert sharded.total_s == plain.total_s  # observed exact
        for plain_row, sharded_row in zip(plain.streams, sharded.streams, strict=True):
            assert sharded_row.total_s == plain_row.total_s
            assert sharded_row.breakdown == plain_row.breakdown
        assert sharded.bank_occupancy_bytes is not None
        assert plain.bank_occupancy_bytes is None

    @pytest.mark.parametrize("system_name", ["V-Rex8", "AGX + FlexGen"])
    def test_generation_and_question_steps_reproduce(
        self, plain_plane, degenerate_plane, edge, system_name
    ):
        system = edge[system_name]
        profiles = _fleet(KV_LENS)
        for step in ("generation_step", "question_step"):
            plain = getattr(plain_plane, step)(system, profiles)
            sharded = getattr(degenerate_plane, step)(system, profiles)
            assert sharded.total_s == plain.total_s

    def test_server_step_reproduces(self, plain_plane, degenerate_plane, server):
        system = server["V-Rex48"]
        plain = plain_plane.frame_step(system, _fleet(KV_LENS))
        sharded = degenerate_plane.frame_step(system, _fleet(KV_LENS))
        assert sharded.total_s == plain.total_s

    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    @pytest.mark.parametrize("system_name", ["V-Rex8", "AGX + FlexGen"])
    def test_scheduler_runs_reproduce_memoryless_plane(
        self, plain_plane, degenerate_plane, edge, system_name, compute
    ):
        """Whole stochastic runs: every record identical, both policies."""
        system = edge[system_name]
        profiles = _fleet(KV_LENS)
        solo = plain_plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = PoissonArrivals(
            rate_hz=rate_for_load(1.2, solo, len(profiles))
        ).generate(len(profiles), 8, seed=11)
        config = SchedulerConfig(
            deadline_s=2.0 * solo, max_queue_depth=4, compute=compute
        )
        plain = ServingScheduler(plain_plane, config).run(system, profiles, traces)
        sharded = ServingScheduler(degenerate_plane, config).run(
            system, profiles, traces
        )
        assert len(plain.records) == len(sharded.records)
        for plain_record, sharded_record in zip(plain.records, sharded.records, strict=True):
            assert sharded_record.sojourn_s == pytest.approx(
                plain_record.sojourn_s, rel=REL_TOL
            )
            assert sharded_record == plain_record  # observed exact
        assert sharded.events_processed == plain.events_processed
        assert sharded.makespan_s == plain.makespan_s
        # the degenerate hierarchy never demotes anything
        assert sharded.memory.evictions == []
        assert len(sharded.bank_occupancy_trajectory) == 1

    def test_degenerate_runs_stay_deterministic(self, degenerate_plane, edge):
        system = edge["V-Rex8"]
        profiles = _fleet([40_000, 20_000])
        traces = BurstyArrivals(burst_rate_hz=20.0, mean_idle_s=0.3).generate(
            2, 6, seed=9
        )
        scheduler = ServingScheduler(degenerate_plane)
        first = scheduler.run(system, profiles, traces)
        second = scheduler.run(system, profiles, traces)
        assert first.records == second.records


class TestMemoryBoundGolden:
    """Seeded end-to-end pin of one memory-bound run, admission off and on.

    The fleet's ~14.8 GiB of offloaded shards exceed the two banks'
    9 GiB warm capacity, so two sessions register cold and pay SSD-tier
    fetches until promoted.  Every statistic below was produced by the run
    this test pins; a refactor of the memory plane, the admission
    controller, or the event loop cannot silently shift them.
    """

    NUM_BANKS = 2
    BANK_BUDGET = 4.5 * GiB
    EXPECTED = {
        "backlog": {
            "served": 17,
            "dropped": 15,
            "deferred": 0,
            "evict_admissions": 0,
            "events": 83,
            "evictions": 4,
            "p50_ms": 934.3550439404313,
            "p95_ms": 2421.382820249995,
            "p99_ms": 2442.1414984081757,
            "mean_ms": 1130.3993968263974,
            "miss_rate": 0.8823529411764706,
            "drop_rate": 0.46875,
            "makespan_s": 3.0082257375868044,
            "trajectory": [
                (0.0, (4831838208.0, 4831838208.0)),
                (0.9915577884747416, (3969410389.333333, 3969410389.333333)),
                (1.1976842236332657, (4831838208.0, 4831838208.0)),
                (2.7455335956582094, (3969410389.333333, 3969410389.333333)),
            ],
        },
        "residency": {
            "served": 17,
            "dropped": 15,
            "deferred": 15,
            "evict_admissions": 2,
            "events": 83,
            "evictions": 4,
            "p50_ms": 41.01385403455282,
            "p95_ms": 131.2372039444515,
            "p99_ms": 132.8288093921689,
            "mean_ms": 57.372576785286746,
            "miss_rate": 0.17647058823529413,
            "drop_rate": 0.46875,
            "makespan_s": 2.181960296993102,
            "trajectory": [
                (0.0, (4831838208.0, 4831838208.0)),
                (0.24097707040966398, (3969410389.333333, 3969410389.333333)),
            ],
        },
    }

    @pytest.fixture(scope="class")
    def memory_plane(self) -> BatchLatencyModel:
        return BatchLatencyModel(
            memory=ShardedKVHierarchy(
                num_banks=self.NUM_BANKS, bank_budget_bytes=self.BANK_BUDGET
            )
        )

    def _run(self, memory_plane, server, admission: str, engine: str = "array"):
        system = server["V-Rex48"]
        profiles = [
            StreamProfile(kv_len=40_000, session_id=index) for index in range(4)
        ]
        solo = memory_plane.frame_step(system, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.3, solo, len(profiles))
        ).generate(len(profiles), 8, seed=17)
        config = SchedulerConfig(
            deadline_s=2.0 * solo, max_queue_depth=2, admission=admission
        )
        return ServingScheduler(memory_plane, config, engine=engine).run(
            system, profiles, traces
        )

    @pytest.mark.parametrize("engine", ["array", "reference"])
    @pytest.mark.parametrize("admission", ["backlog", "residency"])
    def test_seeded_run_reproduces_exact_statistics(
        self, memory_plane, server, admission, engine
    ):
        result = self._run(memory_plane, server, admission, engine)
        fleet = result.fleet_summary()
        expected = self.EXPECTED[admission]
        assert result.served == expected["served"]
        assert result.dropped == expected["dropped"]
        assert result.deferred == expected["deferred"]
        assert result.evict_admissions == expected["evict_admissions"]
        assert result.events_processed == expected["events"]
        assert len(result.memory.evictions) == expected["evictions"]
        assert fleet.p50_ms == pytest.approx(expected["p50_ms"], rel=1e-12)
        assert fleet.p95_ms == pytest.approx(expected["p95_ms"], rel=1e-12)
        assert fleet.p99_ms == pytest.approx(expected["p99_ms"], rel=1e-12)
        assert fleet.mean_ms == pytest.approx(expected["mean_ms"], rel=1e-12)
        assert fleet.deadline_miss_rate == pytest.approx(
            expected["miss_rate"], rel=1e-12
        )
        assert fleet.drop_rate == pytest.approx(expected["drop_rate"], rel=1e-12)
        assert result.makespan_s == pytest.approx(expected["makespan_s"], rel=1e-12)
        # per-bank occupancy trajectory, pinned point by point
        assert len(result.bank_occupancy_trajectory) == len(expected["trajectory"])
        for (time_s, occupancy), (exp_time, exp_occupancy) in zip(
            result.bank_occupancy_trajectory, expected["trajectory"], strict=True
        ):
            assert time_s == pytest.approx(exp_time, rel=1e-12, abs=1e-15)
            assert occupancy == pytest.approx(exp_occupancy, rel=1e-12)

    def test_residency_admission_strictly_reduces_miss_rate(
        self, memory_plane, server
    ):
        """The acceptance criterion: shedding doomed jobs early beats
        serving them late."""
        backlog = self._run(memory_plane, server, "backlog").fleet_summary()
        residency = self._run(memory_plane, server, "residency").fleet_summary()
        assert residency.deadline_miss_rate < backlog.deadline_miss_rate
        assert residency.p99_ms < backlog.p99_ms

    def test_admission_outcomes_are_labelled(self, memory_plane, server):
        result = self._run(memory_plane, server, "residency")
        outcomes = {record.admission for record in result.records}
        assert DEFER in outcomes
        assert EVICT in outcomes
        assert ADMIT in outcomes
        for record in result.records:
            if record.admission == DEFER:
                assert record.dropped
            if record.admission == EVICT:
                assert not record.dropped


class TestEvictionSequencePin:
    """Every demotion of one residency/timesliced run, in order, on both engines.

    24 sessions x 20 frames at 40k tokens on V-Rex48, four banks sized so a
    third of the shards fit: the admission controller promotes sessions it
    has not touched yet (153 evict-admissions), so each promotion files a
    session *inside* its banks' last-use order and later victims depend on
    where.  The digests cover the full ``(session_id, bank, bytes)`` list
    and the occupancy trajectory; they were recorded on the global-scan
    memory plane (the commit before the per-bank resident index) and must
    never be re-recorded by a change that claims to keep eviction order.
    """

    EVICTIONS = 570
    EVICTIONS_SHA256 = "d7e3d4cdcb1664c004cf2b29471985e1db12bacf6870e4562cba28111236bf67"
    FIRST_EVICTIONS = [
        (0, 0, 993940361.4890666),
        (0, 1, 993940361.4890666),
        (8, 2, 7582113.245867729),
        (0, 2, 990764833.1775999),
        (8, 3, 7582113.245867729),
        (0, 3, 990764833.1775999),
    ]
    TRAJECTORY_SHA256 = "453c2f78a51e5e0d79c4ca060dadb6e0acbfd1574531228295d1651ce6beabfa"
    LAST_OCCUPANCY = (
        0.13856768204021178,
        (6957582530.423468, 6957582530.423468, 7926118665.420799, 7926118665.420799),
    )

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_eviction_sequence_and_trajectory(self, server, engine):
        system = server["V-Rex48"]
        profiles = [StreamProfile(kv_len=40_000, session_id=index) for index in range(24)]
        pricing = BatchLatencyModel()
        solo = pricing.frame_step(system, profiles[:1]).streams[0].total_s
        offloaded = pricing.session_shard_bytes(system, profiles[0]).offloaded_bytes
        plane = BatchLatencyModel(
            memory=ShardedKVHierarchy(
                num_banks=4, bank_budget_bytes=offloaded * len(profiles) / (3.0 * 4)
            )
        )
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.2, solo, len(profiles))
        ).generate(len(profiles), 20, seed=19)
        config = SchedulerConfig(
            deadline_s=2.0 * solo,
            max_queue_depth=3,
            compute="timesliced",
            admission="residency",
        )
        result = ServingScheduler(plane, config, engine=engine).run(
            system, profiles, traces
        )
        evictions = [(e.session_id, e.bank, e.bytes) for e in result.memory.evictions]
        assert (result.served, result.deferred, result.evict_admissions) == (460, 20, 153)
        assert len(evictions) == self.EVICTIONS
        assert evictions[:6] == self.FIRST_EVICTIONS
        assert _sha256(evictions) == self.EVICTIONS_SHA256
        assert result.bank_occupancy_trajectory[-1] == self.LAST_OCCUPANCY
        assert _sha256(result.bank_occupancy_trajectory) == self.TRAJECTORY_SHA256


def _sha256(value) -> str:
    """Digest of a value's ``repr`` (floats print round-trip exact)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestFetchPricedPerDistinctSplit:
    """The array engine prices a stage's sharded fetch once per split value.

    :class:`TestEvictionSequencePin`'s configuration on the array engine:
    frame jobs only, so a stage is a session.  Counted, not timed: the
    makespan is priced exactly when a fetch's split differs from that
    session's previous fetch, not once per fetch.
    """

    def test_makespan_calls_follow_split_changes(self, server, monkeypatch):
        import repro.sim.engine as engine

        fetches = []
        commit_fetch = ShardedKVHierarchy.commit_fetch

        def recording_commit_fetch(self, session_id, protected=()):
            split = commit_fetch(self, session_id, protected)
            fetches.append((session_id, split))
            return split

        calls = 0
        makespan = engine.sharded_fetch_makespan

        def counting_makespan(*args):
            nonlocal calls
            calls += 1
            return makespan(*args)

        monkeypatch.setattr(ShardedKVHierarchy, "commit_fetch", recording_commit_fetch)
        monkeypatch.setattr(engine, "sharded_fetch_makespan", counting_makespan)
        system = server["V-Rex48"]
        profiles = [StreamProfile(kv_len=40_000, session_id=index) for index in range(24)]
        pricing = BatchLatencyModel()
        solo = pricing.frame_step(system, profiles[:1]).streams[0].total_s
        offloaded = pricing.session_shard_bytes(system, profiles[0]).offloaded_bytes
        plane = BatchLatencyModel(
            memory=ShardedKVHierarchy(
                num_banks=4, bank_budget_bytes=offloaded * len(profiles) / (3.0 * 4)
            )
        )
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.2, solo, len(profiles))
        ).generate(len(profiles), 20, seed=19)
        config = SchedulerConfig(
            deadline_s=2.0 * solo,
            max_queue_depth=3,
            compute="timesliced",
            admission="residency",
        )
        result = ServingScheduler(plane, config, engine="array").run(
            system, profiles, traces
        )
        assert (result.served, result.deferred, result.evict_admissions) == (460, 20, 153)

        previous: dict = {}
        changes = 0
        for session, split in fetches:
            changes += previous.get(session) != split
            previous[session] = split
        assert len(fetches) == result.served
        assert changes < len(fetches)
        assert calls == changes
        result.memory.sanity_check()


class TestResidencyAdmissionValidation:
    def test_residency_requires_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            SchedulerConfig(admission="residency")

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(ValueError, match="admission policy"):
            SchedulerConfig(admission="roundrobin")

    def test_residency_requires_memory_plane(self, plain_plane, edge):
        config = SchedulerConfig(deadline_s=1.0, admission="residency")
        scheduler = ServingScheduler(plain_plane, config)
        with pytest.raises(ValueError, match="memory plane"):
            scheduler.run(edge["V-Rex8"], _fleet([10_000]), [[0.0]])

    def test_duplicate_session_ids_rejected_with_clear_message(
        self, degenerate_plane, edge
    ):
        """Default session_id=0 profiles are valid everywhere else; the
        memory plane needs distinct ids and must say so, not crash deep
        inside shard registration."""
        profiles = [StreamProfile(kv_len=10_000), StreamProfile(kv_len=20_000)]
        with pytest.raises(ValueError, match="session_id per stream"):
            degenerate_plane.frame_step(edge["V-Rex8"], profiles)
        # the memory-less plane still accepts them
        BatchLatencyModel().frame_step(edge["V-Rex8"], profiles)

    def test_memory_plane_validation(self):
        with pytest.raises(ValueError, match="num_banks"):
            ShardedKVHierarchy(num_banks=0)
        with pytest.raises(ValueError, match="num_banks"):
            ShardedKVHierarchy(num_banks=2.5)  # was silently truncated to 2
        with pytest.raises(ValueError, match="bank_budget_bytes"):
            ShardedKVHierarchy(bank_budget_bytes=0.0)
        hierarchy = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=1e9)
        # non-finite byte counts would poison cold_fraction / bank occupancy
        with pytest.raises(ValueError, match="offloaded_bytes"):
            hierarchy.register(1, offloaded_bytes=float("nan"), num_clusters=4)
        with pytest.raises(ValueError, match="offloaded_bytes"):
            hierarchy.register(1, offloaded_bytes=float("inf"), num_clusters=4)
        with pytest.raises(ValueError, match="hot_bytes"):
            hierarchy.register(1, 100.0, hot_bytes=float("nan"))
        with pytest.raises(ValueError, match="hc_table_bytes"):
            hierarchy.register(1, 100.0, hc_table_bytes=float("inf"))
        # a fractional cluster count used to install home shares summing to
        # more than the session's bytes (2.5 clusters on 4 banks: 120 of 100)
        for clusters in (2.5, 0, float("nan")):
            with pytest.raises(ValueError, match="num_clusters"):
                hierarchy.register(1, 100.0, num_clusters=clusters)
            with pytest.raises(ValueError, match="num_clusters"):
                partition_by_cluster(clusters, 4, 100.0)
        with pytest.raises(KeyError):  # rejected before any state moved
            hierarchy.offchip_bytes(1)
        hierarchy.register(0, 100.0)
        with pytest.raises(ValueError, match="already registered"):
            hierarchy.register(0, 50.0)
        with pytest.raises(KeyError, match="not registered"):
            hierarchy.fetch_split(99)


class TestAdmissionDecisionOracle:
    """Hand-computed boundaries of the one admission rule.

    Both engines call :func:`admission_decision`, so there is no second
    implementation left to diff it against: these cases are its oracle.

    The plane: two banks of 150 bytes.  Session 0 registers 200 bytes
    (home and warm ``[100, 100]``); session 1 registers 200 bytes into the
    50 bytes of headroom left per bank (warm ``[50, 50]``, 100 bytes cold,
    cold fraction 0.5).  The stage costs 1 s warm and 3 s cold, so session
    1's own latency is ``1 + 0.5 * (3 - 1) = 2`` s; with one job of stream
    backlog and 0.25 s of compute backlog the estimate is ``1 * 1 + 0.25 +
    2 = 3.25`` s and the fully-promoted estimate ``(1 + 1) * 1 + 0.25 =
    2.25`` s.
    """

    BACKLOG_JOBS = 1
    COMPUTE_BACKLOG_S = 0.25

    @staticmethod
    def _memory() -> ShardedKVHierarchy:
        memory = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=150.0)
        memory.register(0, 200.0, num_clusters=2)
        memory.register(1, 200.0, num_clusters=2)
        assert memory.cold_fraction(0) == 0.0
        assert memory.cold_fraction(1) == 0.5
        return memory

    @staticmethod
    def _stage(**overrides) -> StageTable:
        """A one-row stage table; its ``demand`` stands for a fetching entry."""
        fields = dict(
            active=True,
            on_dre=True,
            overlaps=True,
            vision_s=0.0,
            compute_s=0.5,
            prediction_s=0.1,
            fetch_s=0.5,
            demand=SimpleNamespace(fetch_bytes=1.0),
            solo_warm_s=1.0,
            solo_cold_s=3.0,
            tokens=10,
            solo_s=2.0,
        )
        fields.update(overrides)
        stages = StageTable(1)
        for name, value in fields.items():
            getattr(stages, name)[0] = value
        return stages

    def _decide(self, memory, deadline_s, session=1, protected=(), stage=None):
        ctx = SimpleNamespace(
            config=SchedulerConfig(deadline_s=deadline_s, admission="residency"),
            memory=memory,
        )
        return admission_decision(
            ctx,
            stage or self._stage(),
            0,
            session,
            self.BACKLOG_JOBS,
            self.COMPUTE_BACKLOG_S,
            protected,
        )

    def test_admits_at_the_estimate_boundary_without_touching_memory(self):
        memory = self._memory()
        version = memory.occupancy_version
        assert self._decide(memory, deadline_s=3.25) == ADMIT
        assert memory.occupancy_version == version
        assert memory.evictions == []

    @pytest.mark.parametrize("deadline_s", [3.0, 2.25])
    def test_evicts_when_a_full_promotion_meets_the_deadline(self, deadline_s):
        """Busted estimate, warm estimate within (or exactly at) the deadline."""
        memory = self._memory()
        assert self._decide(memory, deadline_s=deadline_s) == EVICT
        # the planned promotion was applied: session 0 lost both shards
        assert memory.evictions == [
            EvictionRecord(0, 0, 100.0),
            EvictionRecord(0, 1, 100.0),
        ]
        assert memory.cold_fraction(1) == 0.0
        assert memory.cold_fraction(0) == 1.0
        assert memory.occupancy_snapshot() == (100.0, 100.0)

    def test_defers_when_even_the_warm_estimate_busts(self):
        memory = self._memory()
        version = memory.occupancy_version
        assert self._decide(memory, deadline_s=2.0) == DEFER
        assert memory.occupancy_version == version  # never priced a promotion
        assert memory.evictions == []

    def test_defers_when_the_promotion_falls_short(self):
        """The only victim is protected: 0 of the 100 cold bytes promotable."""
        memory = self._memory()
        version = memory.occupancy_version
        assert self._decide(memory, deadline_s=3.0, protected={0}) == DEFER
        assert memory.occupancy_version == version  # planned, never applied
        assert memory.evictions == []
        assert memory.cold_fraction(1) == 0.5

    def test_defers_a_fully_warm_session_that_still_busts(self):
        """Session 0: estimate 1 + 0.25 + 1 = 2.25 s, nothing to promote."""
        memory = self._memory()
        assert self._decide(memory, deadline_s=2.25, session=0) == ADMIT
        assert self._decide(memory, deadline_s=2.0, session=0) == DEFER
        assert memory.evictions == []

    @pytest.mark.parametrize(
        "overrides", [{"active": False}, {"demand": None}]
    )
    def test_nothing_to_estimate_always_admits(self, overrides):
        memory = self._memory()
        stage = self._stage(**overrides)
        assert self._decide(memory, deadline_s=1e-9, stage=stage) == ADMIT

    def test_energy_budget_boundary(self):
        """sojourn = 1 * 2 + 0.25 + 2 = 4.25 s;
        marginal = (4 W * 4.25 s + 2 W * 0.5 s) / 10 tokens = 1.8 J/token."""

        def decide(budget, **overrides):
            ctx = SimpleNamespace(
                config=SchedulerConfig(
                    admission="energy", energy_budget_j_per_token=budget
                ),
                memory=None,
                baseline_w=4.0,
                io_w=2.0,
            )
            return admission_decision(
                ctx,
                self._stage(**overrides),
                0,
                1,
                self.BACKLOG_JOBS,
                self.COMPUTE_BACKLOG_S,
                (),
            )

        assert decide(1.8) == ADMIT  # at the budget: not over it
        assert decide(1.79) == DEFER
        assert decide(1e-9, tokens=0) == ADMIT
        assert decide(1e-9, active=False) == ADMIT
