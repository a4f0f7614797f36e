"""Cross-engine differential sanitization (the carried ROADMAP follow-up).

Runs the same seeded fleet workload — including work stealing, the
stressiest routing path — under the reference and array engines with the
runtime sanitizer armed, and requires record-for-record agreement.  A
doctored divergence must raise with a field-level diff naming the job
and field where the engines forked.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.devtools.differential import (
    DIFF_LIMIT,
    DifferentialError,
    assert_engines_agree,
    diff_records,
)
from repro.hw.interconnect import PCIE5_SWITCH
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import BurstyArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import RecordSequence, SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


@pytest.fixture(scope="module")
def edge():
    return edge_systems(default_llm_workload().model_bytes())


def _seeded_fleet_run(edge, engine: str):
    plane = BatchLatencyModel()
    system = edge["V-Rex8"]
    profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(6)]
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    traces = BurstyArrivals.for_mean_rate(
        rate_for_load(1.2, solo, 6)
    ).generate(6, 5, seed=23)
    config = SchedulerConfig(deadline_s=2.5 * solo, max_queue_depth=4)
    fleet = FleetScheduler(
        plane,
        config,
        FleetConfig(
            num_devices=3,
            router="kv_residency",
            interconnect=PCIE5_SWITCH,
            migrate_backlog_s=math.inf,
            work_stealing=True,
        ),
        engine=engine,
    )
    return fleet.run(
        system,
        profiles,
        traces,
        home_devices={profile.session_id: 0 for profile in profiles},
    )


def _seeded_memory_run(edge, engine: str):
    """Residency admission over two contended banks: 22 evictions."""
    system = edge["V-Rex8"]
    profiles = [StreamProfile(kv_len=30_000, session_id=i) for i in range(6)]
    solo = BatchLatencyModel().frame_step(system, profiles[:1]).streams[0].total_s
    traces = BurstyArrivals.for_mean_rate(rate_for_load(1.4, solo, 6)).generate(6, 8, seed=7)
    config = SchedulerConfig(
        deadline_s=2.0 * solo,
        max_queue_depth=3,
        compute="timesliced",
        quantum_s=1e-3,
        admission="residency",
    )
    memory = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=int(0.5 * 1024**3))
    return ServingScheduler(BatchLatencyModel(memory=memory), config, engine=engine).run(
        system, profiles, traces
    )


class TestAssertEnginesAgree:
    def test_seeded_steal_run_agrees_across_engines(self, edge, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        results = assert_engines_agree(lambda engine: _seeded_fleet_run(edge, engine))
        assert set(results) == {"reference", "array"}
        # the workload exercised the steal path, not a trivial schedule
        assert results["array"].steal_count > 0
        assert results["array"].records == results["reference"].records

    @pytest.mark.parametrize("timesliced_memory", [False, True])
    def test_scheduler_run_agrees_across_engines(self, edge, monkeypatch, timesliced_memory):
        """``timesliced_memory`` runs the shared round-robin core under both
        engines, with residency admission reading its backlog."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        system = edge["V-Rex8"]
        profiles = [StreamProfile(kv_len=30_000, session_id=i) for i in range(4)]
        knobs = {}
        memory = None
        if timesliced_memory:
            knobs = {"compute": "timesliced", "quantum_s": 1e-3, "admission": "residency"}
            memory = ShardedKVHierarchy(num_banks=2, bank_budget_bytes=int(0.5 * 1024**3))
        solo = BatchLatencyModel().frame_step(system, profiles[:1]).streams[0].total_s
        traces = BurstyArrivals.for_mean_rate(
            rate_for_load(1.4, solo, 4)
        ).generate(4, 6, seed=7)
        config = SchedulerConfig(deadline_s=2.0 * solo, max_queue_depth=3, **knobs)
        results = assert_engines_agree(
            lambda engine: ServingScheduler(
                BatchLatencyModel(memory=memory), config, engine=engine
            ).run(system, profiles, traces)
        )
        if timesliced_memory:
            # rotation runs were resolved in place, and banks were contended
            assert results["array"].events_processed > 4 * len(results["array"].records)
            assert results["array"].memory.evictions

    def test_refuses_to_run_unsanitized(self, edge, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        with pytest.raises(RuntimeError, match="REPRO_SANITIZE"):
            assert_engines_agree(lambda engine: _seeded_fleet_run(edge, engine))

    def test_doctored_divergence_raises_with_field_diff(self, edge, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        honest = _seeded_fleet_run(edge, "array")

        class Doctored:
            def __init__(self, result):
                self.records = [
                    replace(record, finish_s=record.finish_s + 1.0)
                    if index == 2
                    else record
                    for index, record in enumerate(result.records)
                ]
                self.events_processed = result.events_processed

        def run(engine):
            result = _seeded_fleet_run(edge, engine)
            return Doctored(result) if engine == "array" else result

        with pytest.raises(DifferentialError) as excinfo:
            assert_engines_agree(run)
        assert "record[2]" in str(excinfo.value)
        assert "finish_s" in str(excinfo.value)

    @pytest.mark.parametrize("doctored", [1, None])
    def test_doctored_evictions_raise_with_entry_diff(self, edge, monkeypatch, doctored):
        """Same records, other victims: the memory plane is diffed too.

        ``doctored`` entries get another session id (``None``: every entry,
        and the diff is capped at ``DIFF_LIMIT`` lines).
        """
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def other_victims(result):
            evictions = result.memory.evictions
            count = len(evictions) if doctored is None else doctored
            assert len(evictions) > DIFF_LIMIT
            return SimpleNamespace(
                records=result.records,
                events_processed=result.events_processed,
                bank_occupancy_trajectory=result.bank_occupancy_trajectory,
                memory=SimpleNamespace(
                    evictions=[
                        replace(eviction, session_id=eviction.session_id + 1)
                        if index < count
                        else eviction
                        for index, eviction in enumerate(evictions)
                    ]
                ),
            )

        def run(engine):
            result = _seeded_memory_run(edge, engine)
            return other_victims(result) if engine == "array" else result

        with pytest.raises(DifferentialError) as excinfo:
            assert_engines_agree(run)
        entries = [line for line in excinfo.value.diffs if line.startswith("memory.evictions[")]
        assert entries[0].startswith("memory.evictions[0]: EvictionRecord(session_id=")
        if doctored is None:
            assert len(entries) == DIFF_LIMIT
            assert excinfo.value.diffs[-1] == "... (memory.evictions diff truncated)"
        else:
            assert list(excinfo.value.diffs) == entries


class TestDiffRecords:
    def test_agreement_is_empty(self, edge):
        result = _seeded_fleet_run(edge, "array")
        assert diff_records(result.records, result.records) == []

    def test_count_mismatch_reported(self, edge):
        result = _seeded_fleet_run(edge, "array")
        diffs = diff_records(result.records, result.records[:-1])
        assert any("record count" in line for line in diffs)

    def test_diff_is_truncated(self, edge):
        result = _seeded_fleet_run(edge, "array")
        doctored = [replace(record, start_s=-1.0) for record in result.records]
        diffs = diff_records(result.records, doctored, limit=3)
        assert diffs[-1] == "... (diff truncated)"
        assert len(diffs) == 4

    def test_record_sequences_diff_like_lists(self, edge):
        result = _seeded_fleet_run(edge, "array")
        start = result.columns.start.copy()
        start[[2, 5]] = -1.0
        doctored = RecordSequence(result.columns.replaced(start=start))
        diffs = diff_records(result.records, doctored)
        assert diffs == diff_records(list(result.records), list(doctored))
        assert [line.split(" ")[0] for line in diffs] == ["record[2]", "record[5]"]
