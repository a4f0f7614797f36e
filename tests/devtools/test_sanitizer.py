"""Fault-injection tests for the runtime simulation sanitizer.

Each sanitizer check is demonstrated live: a component is corrupted the
way a real bug would corrupt it (an event pushed into the past, a leaked
resource, shard bytes created from nothing) and the sanitizer must raise
:class:`~repro.devtools.sanitizer.SanitizerError` with the matching
machine-readable code.  A final equivalence test pins that sanitized runs
produce bit-identical results — the sanitizer observes, never perturbs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clustering import HashClusterLanes
from repro.core.hashbit import HashBitEncoder
from repro.devtools.sanitizer import (
    ENV_VAR,
    EVENT_ORDER,
    JOB_STATE,
    LANE_ORDER,
    PRICE_TABLE,
    RESOURCE_BALANCE,
    RING_DISCIPLINE,
    SHARD_CONSERVATION,
    TABLE_CONSERVATION,
    SanitizerError,
    arm,
    arm_from_argv,
    sanitize_enabled,
)
from repro.hw.event import (
    ArrayEventQueue,
    EventLoop,
    IndexRing,
    PreemptiveResource,
    ResourceQueue,
)
from repro.hw.interconnect import PCIE5_SWITCH, InterconnectLink
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.jobtable import ADM_ADMIT, ADM_BACKLOG, JobTable


GIB = 1024.0**3


@pytest.fixture
def armed(monkeypatch):
    """Arm the sanitizer for the components a test constructs."""
    monkeypatch.setenv(ENV_VAR, "1")


def expect(code: str):
    return pytest.raises(SanitizerError, match=rf"\[{code}\]")


class TestEnvGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not sanitize_enabled()

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        assert sanitize_enabled()

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        assert not sanitize_enabled()

    def test_arm_enables_for_the_process(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        arm()
        assert sanitize_enabled()

    def test_arm_from_argv_consumes_flag(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        rest = arm_from_argv(["--sanitize", "other"])
        assert rest == ["other"]
        assert sanitize_enabled()

    def test_arm_from_argv_without_flag_is_inert(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "0")
        rest = arm_from_argv(["other"])
        assert rest == ["other"]
        assert not sanitize_enabled()

    def test_unsanitized_components_skip_checks(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        queue = ResourceQueue("q")
        queue.enqueue(1.0, 0.1)
        queue.enqueue(0.5, 0.1)  # out-of-order arrival tolerated when off
        ring = IndexRing(2, 1)
        ring.push(0, 1)
        ring.push(0, 1)  # silent double-push corruption tolerated when off


@pytest.mark.usefixtures("armed")
class TestEventOrder:
    def test_event_loop_detects_past_pop(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        # corrupt the heap the way a bad tie-break would: an entry whose
        # time precedes the loop's clock once the first event has fired
        loop._heap.append((0.25, 0, (), 99, lambda: None))
        with expect(EVENT_ORDER):
            loop.run()

    def test_event_loop_error_carries_trace(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop._heap.append((0.5, 0, (), 99, lambda: None))
        with pytest.raises(SanitizerError) as info:
            loop.run()
        assert info.value.code == EVENT_ORDER
        assert info.value.trace  # the popped event preceding the violation
        assert "trace tail" in str(info.value)

    def test_array_queue_dynamic_order(self):
        queue = ArrayEventQueue("heap")
        queue.push(1.0, 5)
        queue.pop()
        queue.push(0.5, 5)  # pushed into the past
        with expect(EVENT_ORDER):
            queue.pop()

    def test_array_queue_clean_run_passes(self):
        queue = ArrayEventQueue("heap")
        queue.preload([0.5, 1.5], [1, 1], [0, 0])
        queue.push(1.0, 2)
        popped = [queue.pop()[0] for _ in range(3)]
        assert popped == [0.5, 1.0, 1.5]


@pytest.mark.usefixtures("armed")
class TestLaneOrder:
    def test_corrupted_static_lane(self):
        queue = ArrayEventQueue("heap")
        queue.preload([0.5, 1.0], [1, 1], [0, 0])
        # corrupt the sorted lane in place (what a buggy preload would do)
        queue._lane_t[0], queue._lane_t[1] = 2.0, 0.5
        queue.pop()
        with expect(LANE_ORDER):
            queue.pop()


@pytest.mark.usefixtures("armed")
class TestRingDiscipline:
    def test_double_push_detected(self):
        ring = IndexRing(4, 2)
        ring.push(0, 2)
        with expect(RING_DISCIPLINE):
            ring.push(1, 2)  # still queued on lane 0

    def test_repush_after_pop_is_legal(self):
        ring = IndexRing(4, 1)
        ring.push(0, 2)
        assert ring.pop(0) == 2
        ring.push(0, 2)  # round-robin requeue
        assert ring.pop(0) == 2

    def test_index_bounds(self):
        ring = IndexRing(4, 1)
        with expect(RING_DISCIPLINE):
            ring.push(0, 4)

    def test_lane_bounds(self):
        ring = IndexRing(4, 2)
        with expect(RING_DISCIPLINE):
            ring.push(2, 0)


@pytest.mark.usefixtures("armed")
class TestResourceBalance:
    @staticmethod
    def _run_with_lifecycle(monkeypatch, engine_name, wrap):
        """One armed run; ``wrap(schedule_issue)`` returns a wrapper of the
        lifecycle's ``finish`` and the issue hook the lifecycle gets."""
        from repro.sim import engine
        from repro.sim.arrivals import PoissonArrivals
        from repro.sim.batched import BatchLatencyModel, StreamProfile
        from repro.sim.scheduler import ServingScheduler
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        lifecycle = engine._job_lifecycle

        def wrapped(ctx, table, server, stages, schedule_issue):
            finish_wrapper, hook = wrap(schedule_issue)
            submit, finish, *rest = lifecycle(ctx, table, server, stages, hook)
            return (submit, finish_wrapper(finish), *rest)

        monkeypatch.setattr(engine, "_job_lifecycle", wrapped)
        monkeypatch.setenv(ENV_VAR, "1")
        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000, session_id=i) for i in range(2)]
        traces = PoissonArrivals(rate_hz=6.0).generate(2, 3, seed=11)
        ServingScheduler(BatchLatencyModel(), engine=engine_name).run(system, profiles, traces)

    @pytest.mark.parametrize("engine_name", ["reference", "array"])
    def test_leaked_stream_slot_detected(self, monkeypatch, engine_name):
        """A job whose issue event is lost never releases its stream slot:
        the lifecycle's end-of-run drain check names the stream."""
        lost = []

        def wrap(schedule_issue):
            def hook(job, t):
                if not lost:
                    lost.append(job)  # swallowed: the job holds its slot forever
                    return
                schedule_issue(job, t)

            return (lambda finish: finish), hook

        with pytest.raises(SanitizerError, match="undrained stream slots") as info:
            self._run_with_lifecycle(monkeypatch, engine_name, wrap)
        assert info.value.code == RESOURCE_BALANCE

    @pytest.mark.parametrize("engine_name", ["reference", "array"])
    def test_double_finish_detected_on_both_engines(self, monkeypatch, engine_name):
        """Both engines' lifecycles run the job-state machine: a job
        finished twice fails at its second record."""

        def wrap(schedule_issue):
            def twice(finish):
                def finish_twice(job, t):
                    finish(job, t)
                    finish(job, t)

                return finish_twice

            return twice, schedule_issue

        with expect(JOB_STATE):
            self._run_with_lifecycle(monkeypatch, engine_name, wrap)

    def test_fcfs_arrival_order_enforced(self):
        queue = ResourceQueue("dre")
        queue.enqueue(1.0, 0.1)
        with expect(RESOURCE_BALANCE):
            queue.enqueue(0.5, 0.1)

    def test_preemptive_server_undrained(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3)
        server.submit(0.5)
        with expect(RESOURCE_BALANCE):
            server.assert_drained()  # loop never ran: job still in flight

    def test_preemptive_server_drains_after_run(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3)
        server.submit(0.005)
        server.submit(0.003)
        loop.run()
        server.assert_drained()

    def test_preemptive_served_corruption_detected(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3)
        job = server.submit(0.005)
        loop.run()
        server._core.served[job._index] = 0.004  # bookkeeping corrupted after the fact
        with expect(RESOURCE_BALANCE):
            server.assert_drained()

    def test_preemptive_busy_conservation_violation_detected(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3)
        server.submit(0.005)
        server.submit(0.003)
        loop.run()
        server._core.busy_s += 1e-6  # a slice grant bypassed the integral
        with expect(RESOURCE_BALANCE):
            server.assert_drained()

    def test_recorded_job_history_is_checked_for_causality(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3, record=True)
        job = server.submit(0.005)
        loop.run()
        server.assert_drained()
        server._core.first_start[job._index] = job.finish_s + 1.0  # started after it finished
        with expect(RESOURCE_BALANCE):
            server.assert_drained()

    def test_preemptive_busy_conservation_checked_without_records(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3, record=False)
        server.submit(0.005)
        loop.run()
        server.assert_drained()  # conservation holds with no job history
        server._core.completed_work_s += 1e-6
        with expect(RESOURCE_BALANCE):
            server.assert_drained()

    def test_preemptive_completion_count_mismatch_detected(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1e-3, record=False)
        server.submit(0.005)
        loop.run()
        server._core.completed -= 1  # a completion bypassed the counter
        with expect(RESOURCE_BALANCE):
            server.assert_drained()

    def test_fast_forwarded_slices_leave_one_trace_entry(self):
        loop = EventLoop()
        server = PreemptiveResource(loop, quantum_s=1 / 64)
        server.submit(0.5, key=(0,))
        server.submit(0.5, key=(1,))
        loop.run(until_s=10.5 / 64)
        # the slice at 1/64 fired from the queue; 2/64 .. 10/64 were taken in place
        assert loop._trace.tail()[-1] == (2 / 64, 10 / 64, "9 slices fast-forwarded")
        loop.run()
        server.assert_drained()

    def test_array_engine_served_corruption_detected(self, monkeypatch):
        """The array engine's end-of-run check is the core's: a ``served``
        cell corrupted mid-run breaks busy-time conservation."""
        from repro.hw.event import RoundRobinCore
        from repro.sim import engine
        from repro.sim.arrivals import PoissonArrivals
        from repro.sim.batched import BatchLatencyModel, StreamProfile
        from repro.sim.scheduler import SchedulerConfig, ServingScheduler
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        class SkippingAhead(RoundRobinCore):
            def dispatch(self, now):
                if self.submitted == 3 and self.served[2] == 0.0:
                    self.served[2] = 0.5 * self.work[2]  # work granted by nobody
                return super().dispatch(now)

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000, session_id=i) for i in range(3)]
        traces = PoissonArrivals(rate_hz=6.0).generate(3, 4, seed=11)
        config = SchedulerConfig(compute="timesliced", quantum_s=1e-3)
        monkeypatch.setenv(ENV_VAR, "1")
        scheduler = ServingScheduler(BatchLatencyModel(), config, engine="array")
        scheduler.run(system, profiles, traces)  # the honest core drains clean
        monkeypatch.setattr(engine, "RoundRobinCore", SkippingAhead)
        with pytest.raises(SanitizerError, match="busy-time conservation") as info:
            scheduler.run(system, profiles, traces)
        assert info.value.code == RESOURCE_BALANCE
        assert any("fast-forwarded" in str(entry) for entry in info.value.trace)


@pytest.mark.usefixtures("armed")
class TestInterconnectConservation:
    def test_conserved_link_passes(self):
        link = InterconnectLink(PCIE5_SWITCH)
        link.ship(0.0, 1e9, session_id=0, src_device=0, dst_device=1)
        link.ship(0.1, 2e9, session_id=1, src_device=0, dst_device=2)
        link.assert_conserved()
        assert link.num_transfers == 2

    def test_byte_accumulator_drift_detected(self):
        link = InterconnectLink(PCIE5_SWITCH)
        link.ship(0.0, 1e9)
        link.total_bytes += 1.0  # bytes accounted outside ship()
        with expect(RESOURCE_BALANCE):
            link.assert_conserved()

    def test_busy_accumulator_drift_detected(self):
        link = InterconnectLink(PCIE5_SWITCH)
        link.ship(0.0, 1e9)
        link._busy_total_s += 1e-9
        with expect(RESOURCE_BALANCE):
            link.assert_conserved()

    def test_retention_count_mismatch_detected(self):
        link = InterconnectLink(PCIE5_SWITCH)
        transfer = link.ship(0.0, 1e9)
        link.transfers.append(transfer)  # duplicated retention entry
        with expect(RESOURCE_BALANCE):
            link.assert_conserved()


def _table(frames=2, answers=1):
    return JobTable(
        traces=[[0.1 * i for i in range(frames)]],
        question_arrivals=[0.5],
        answers=[answers],
        session_ids=[0],
    )


@pytest.mark.usefixtures("armed")
class TestJobState:
    def test_legal_lifecycle(self):
        table = _table()
        table.san_submit(0)
        table.san_begin(0)
        table.san_record(0)

    def test_drop_records_straight_from_submitted(self):
        table = _table()
        table.san_submit(0)
        table.san_record(0)  # backlog/defer drop: never begun

    def test_double_submit_detected(self):
        table = _table()
        table.san_submit(0)
        with expect(JOB_STATE):
            table.san_submit(0)

    def test_begin_without_submit_detected(self):
        table = _table()
        with expect(JOB_STATE):
            table.san_begin(0)

    def test_record_of_recorded_job_detected(self):
        table = _table()
        table.san_submit(0)
        table.san_record(0)
        with expect(JOB_STATE):
            table.san_record(0)

    def test_out_of_range_job_detected(self):
        table = _table()
        with expect(JOB_STATE):
            table.san_submit(table.num_jobs)

    def _fill_one(self, table, job=0, **overrides):
        values = dict(
            arrival=0.0, start=0.1, finish=0.2, dropped=False,
            admission=ADM_ADMIT, pcie=0.0, dre=0.0, cwait=0.0,
        )
        values.update(overrides)
        table.arrival[job] = values["arrival"]
        table.start[job] = values["start"]
        table.finish[job] = values["finish"]
        table.dropped[job] = values["dropped"]
        table.admission[job] = values["admission"]
        table.pcie_wait[job] = values["pcie"]
        table.dre_wait[job] = values["dre"]
        table.compute_wait[job] = values["cwait"]
        table.records.append(job)

    def test_finalize_accepts_legal_columns(self):
        table = _table()
        self._fill_one(table, job=0)
        self._fill_one(table, job=1, arrival=0.1, start=0.2, finish=0.3)
        table.finalize(None)

    def test_duplicate_record_detected(self):
        table = _table()
        self._fill_one(table, job=0)
        self._fill_one(table, job=0)
        with expect(JOB_STATE):
            table.finalize(None)

    def test_non_causal_times_detected(self):
        table = _table()
        self._fill_one(table, job=0, start=0.2, finish=0.1)
        with expect(JOB_STATE):
            table.finalize(None)

    def test_negative_wait_detected(self):
        table = _table()
        self._fill_one(table, job=0, pcie=-0.01)
        with expect(JOB_STATE):
            table.finalize(None)

    def test_tiny_negative_compute_wait_tolerated(self):
        # float non-associativity residue of finish - submit - work
        table = _table()
        self._fill_one(table, job=0, cwait=-1e-16)
        table.finalize(None)

    def test_large_negative_compute_wait_detected(self):
        table = _table()
        self._fill_one(table, job=0, cwait=-1e-3)
        with expect(JOB_STATE):
            table.finalize(None)

    def test_undropped_backlog_detected(self):
        table = _table()
        self._fill_one(table, job=0, admission=ADM_BACKLOG, dropped=False)
        with expect(JOB_STATE):
            table.finalize(None)


@pytest.mark.usefixtures("armed")
class TestShardConservation:
    def test_clean_lifecycle_passes(self):
        plane = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=GIB)
        plane.register(0, offloaded_bytes=0.5 * GIB, hot_bytes=0.1 * GIB, num_clusters=8)
        plane.register(1, offloaded_bytes=1.5 * GIB, num_clusters=8)
        plane.register(2, offloaded_bytes=1.0 * GIB, num_clusters=8)
        plane.commit_fetch(2)
        plane.sanity_check()

    def test_occupancy_corruption_detected(self):
        plane = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=GIB)
        plane.register(0, offloaded_bytes=0.5 * GIB, num_clusters=4)
        plane._occupancy[0] += 1234.0  # bytes from nowhere
        with expect(SHARD_CONSERVATION):
            plane.sanity_check()

    def test_hot_tier_eviction_detected(self):
        plane = ShardedKVHierarchy(num_banks=1)
        plane.register(0, offloaded_bytes=GIB, hot_bytes=0.25 * GIB)
        plane._shards[0].hot_bytes -= 1024.0  # hot shard "evicted"
        with expect(SHARD_CONSERVATION):
            plane.sanity_check()

    def test_negative_warm_bytes_detected(self):
        plane = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=GIB)
        plane.register(0, offloaded_bytes=0.5 * GIB, num_clusters=4)
        plane._shards[0].warm_bytes[1] = -1.0
        plane._occupancy[1] = -1.0  # keep occupancy consistent: warm must trip first
        with expect(SHARD_CONSERVATION):
            plane.sanity_check()

    def test_warm_exceeding_home_detected(self):
        plane = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=GIB)
        plane.register(0, offloaded_bytes=0.5 * GIB, num_clusters=4)
        shard = plane._shards[0]
        shard.warm_bytes[0] = shard.home_bytes[0] + GIB
        plane._occupancy[0] += GIB
        with expect(SHARD_CONSERVATION):
            plane.sanity_check()

    def test_register_checks_immediately(self, monkeypatch):
        plane = ShardedKVHierarchy(num_banks=1, bank_budget_bytes=GIB)
        plane.register(0, offloaded_bytes=0.25 * GIB)
        plane._occupancy[0] = 2 * GIB  # over budget before the next register
        with expect(SHARD_CONSERVATION):
            plane.register(1, offloaded_bytes=1024.0)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda index: index.pop(), id="resident-dropped"),
            pytest.param(lambda index: index.append((9, 7, 1024.0)), id="evicted-kept"),
            pytest.param(
                lambda index: index.__setitem__(0, (*index[0][:2], 1.0)), id="stale-bytes"
            ),
            pytest.param(lambda index: index.reverse(), id="out-of-last-use-order"),
        ],
    )
    def test_resident_index_corruption_detected(self, corrupt):
        """Each bank's index must be its warm shards: members, bytes, order."""
        plane = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=GIB)
        plane.register(0, offloaded_bytes=0.5 * GIB, num_clusters=4)
        plane.register(1, offloaded_bytes=0.5 * GIB, num_clusters=4)
        plane.sanity_check()
        corrupt(plane._residents[1])
        with expect(SHARD_CONSERVATION):
            plane.sanity_check()
        with expect(SHARD_CONSERVATION):  # and unprompted, after the next mutation
            plane.register(2, offloaded_bytes=1024.0)

    def test_stale_promotion_plan_detected(self, monkeypatch):
        """A stale plan is an API error, raised armed or not, before any mutation."""
        for armed in ("1", "0"):
            monkeypatch.setenv(ENV_VAR, armed)
            plane = ShardedKVHierarchy(num_banks=1, bank_budget_bytes=GIB)
            plane.register(0, offloaded_bytes=0.75 * GIB)
            plane.register(1, offloaded_bytes=0.75 * GIB)  # 0.5 GiB left cold
            plan = plane.plan_promotion(1)
            assert plane.apply_promotion(plan) == 0.5 * GIB  # fresh plan: fine
            plane.commit_fetch(0)  # occupancy moved since the plan was made
            version = plane.occupancy_version
            with pytest.raises(
                ValueError, match=rf"planned at occupancy version 2, applied at {version}"
            ):
                plane.apply_promotion(plan)
            assert plane.occupancy_version == version
            plane.sanity_check()


class TestTableConservation:
    """The lane store arms itself from the environment, read at construction."""

    @pytest.fixture
    def store(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        store = HashClusterLanes(lanes=3, head_dim=8, n_bits=32, hamming_threshold=7)
        self.feed(store)  # checked after every update
        return store

    @staticmethod
    def feed(store, chunks=3):
        rng = np.random.default_rng(store.num_tokens)
        encoder = HashBitEncoder(store.head_dim, store.n_bits, seed=0)
        for _ in range(chunks):
            keys = rng.normal(size=(store.lanes, 5, store.head_dim))
            ids = np.arange(store.num_tokens, store.num_tokens + 5)
            store.update(keys, encoder.encode(keys), ids)

    def test_clean_updates_pass_and_unarmed_store_skips_checks(self, store, monkeypatch):
        store.sanity_check()
        monkeypatch.delenv(ENV_VAR)
        unarmed = HashClusterLanes(lanes=1, head_dim=8, n_bits=32, hamming_threshold=7)
        self.feed(unarmed, chunks=1)
        unarmed._counts[0, 0] += 1
        self.feed(unarmed, chunks=1)  # corrupted, but nobody is looking

    def test_lost_token_detected_on_next_update(self, store):
        store._counts[1, 0] -= 1  # a token counted in no cluster
        with expect(TABLE_CONSERVATION):
            self.feed(store, chunks=1)

    @pytest.mark.parametrize("state", ["_counts", "_votes", "_key_sums"])
    def test_dead_slot_state_detected(self, store, state):
        getattr(store, state)[0, store.live[0] :] = 1  # a scatter past the live count
        with pytest.raises(SanitizerError, match="dead cluster slot"):
            store.sanity_check()

    def test_stale_signature_detected(self, store):
        store._signatures[2, 0] ^= np.uint64(1)  # a majority refresh that never happened
        with expect(TABLE_CONSERVATION):
            store.sanity_check()


class TestPriceTable:
    """A demand-table hit must equal a fresh derivation (armed at plane construction)."""

    @staticmethod
    def steps(plane):
        from repro.sim.batched import StreamProfile
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        profiles = [StreamProfile(kv_len=20_000 + 5_000 * (i % 2), session_id=i) for i in range(4)]
        return [
            plane.frame_step(system, profiles),
            plane.frame_step(system, profiles, contention=False),
            plane.generation_step(system, profiles, compute="timesliced"),
        ]

    def test_armed_and_unarmed_planes_price_identically(self, monkeypatch):
        from repro.sim.batched import BatchLatencyModel

        monkeypatch.delenv(ENV_VAR, raising=False)
        plain = self.steps(BatchLatencyModel())
        monkeypatch.setenv(ENV_VAR, "1")
        assert self.steps(BatchLatencyModel()) == plain  # every hit cross-checked

    def test_corrupted_entry_detected_at_the_next_hit(self, monkeypatch):
        from repro.sim.batched import BatchLatencyModel

        monkeypatch.setenv(ENV_VAR, "1")
        armed = BatchLatencyModel()
        monkeypatch.delenv(ENV_VAR)
        unarmed = BatchLatencyModel()  # the switch is read once, at construction
        for plane in (armed, unarmed):
            self.steps(plane)
            (table,) = plane._demands.values()
            # the table went stale: as if the derivation read an input the key omits
            object.__setattr__(next(iter(table.values())), "compute_layer_s", 0.0)
        self.steps(unarmed)  # corrupted, but nobody is looking
        with expect(PRICE_TABLE):
            self.steps(armed)

    def test_perturbed_column_derivation_detected_at_the_miss(self, monkeypatch):
        import dataclasses

        from repro.sim import batched
        from repro.sim.batched import BatchLatencyModel

        derive = batched._derive_demands

        def perturbed(*args, **kwargs):
            # as if a column term drifted from the scalar chain in its last bit
            entries = derive(*args, **kwargs)
            last = entries[-1]
            entries[-1] = dataclasses.replace(
                last, compute_layer_s=np.nextafter(last.compute_layer_s, np.inf)
            )
            return entries

        monkeypatch.setattr(batched, "_derive_demands", perturbed)
        monkeypatch.delenv(ENV_VAR, raising=False)
        self.steps(BatchLatencyModel())  # perturbed, but nobody is looking
        monkeypatch.setenv(ENV_VAR, "1")
        # the armed plane's first step finds every row missing: it raises there
        with pytest.raises(SanitizerError, match=r"\[price-table\] demand-table miss"):
            self.steps(BatchLatencyModel())


class TestSanitizedRunEquivalence:
    """REPRO_SANITIZE=1 must not change a single bit of any run."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.sim.arrivals import PoissonArrivals
        from repro.sim.batched import BatchLatencyModel, StreamProfile
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        plane = BatchLatencyModel()
        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        profiles = [
            StreamProfile(kv_len=10_000 + 4_000 * i, session_id=i) for i in range(4)
        ]
        traces = PoissonArrivals(rate_hz=6.0).generate(4, 6, seed=11)
        return plane, system, profiles, traces

    @pytest.mark.parametrize("engine", ["reference", "array"])
    @pytest.mark.parametrize("compute", ["private", "timesliced"])
    def test_sanitized_matches_unsanitized(self, setup, monkeypatch, engine, compute):
        from repro.sim.scheduler import SchedulerConfig, ServingScheduler

        plane, system, profiles, traces = setup
        config = SchedulerConfig(compute=compute, quantum_s=1e-3, deadline_s=1.0)

        monkeypatch.delenv(ENV_VAR, raising=False)
        plain = ServingScheduler(plane, config, engine=engine).run(
            system, profiles, traces, question_arrivals=[2.0] * 4, answer_tokens=2
        )
        monkeypatch.setenv(ENV_VAR, "1")
        sanitized = ServingScheduler(plane, config, engine=engine).run(
            system, profiles, traces, question_arrivals=[2.0] * 4, answer_tokens=2
        )

        assert sanitized.events_processed == plain.events_processed
        assert sanitized.records == plain.records
        assert sanitized.timeline.tasks == plain.timeline.tasks
