"""Every interval of a seeded fleet, pinned bit for bit.

One seeded fleet of 12 streams — Poisson frames, a question on most
streams and a short answer chain — runs on both engines, private and
time-sliced compute, without a memory plane and on two residency-admitted
banks, plus once through an M = 1 :class:`FleetScheduler` (whose one
device run shares that run's pin).  Each run's interval columns
(``JobTable._intervals``, named by ``oracles.run_intervals``) are hashed
row by row, in order, as
``(name, resource, start_s.hex(), duration_s.hex(), bandwidth_gbps)``,
so any change to how a run logs or derives its intervals — a moved
float, a renamed resource, a reordered task — fails here.  Never re-pin:
a failing case is a behaviour change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from oracles import run_intervals

from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload

NUM_STREAMS = 12


def _fleet(banks: bool):
    """The plane, config and run arguments of the pinned fleet."""
    rng = np.random.default_rng(35)
    system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
    plane = (
        BatchLatencyModel(memory=ShardedKVHierarchy(num_banks=2, bank_budget_bytes=4.5 * 2**30))
        if banks
        else BatchLatencyModel()
    )
    profiles = [
        StreamProfile(kv_len=int(rng.integers(10_000, 60_001)), session_id=3 * s + 2)
        for s in range(NUM_STREAMS)
    ]
    solo = plane.frame_step(system, profiles[:1]).streams[0].total_s
    traces = PoissonArrivals(rate_for_load(1.2, solo, NUM_STREAMS)).generate(
        NUM_STREAMS, 6, seed=35
    )
    questions = [
        None if s % 4 == 3 else float(traces[s][-1]) + float(rng.uniform(0.0, 2.0 * solo))
        for s in range(NUM_STREAMS)
    ]
    answers = [0 if at is None else int(rng.integers(1, 4)) for at in questions]
    arguments = dict(
        system=system,
        profiles=profiles,
        frame_arrivals=traces,
        question_arrivals=questions,
        answer_tokens=answers,
    )
    return plane, solo, arguments


def _config(solo: float, compute: str, banks: bool) -> SchedulerConfig:
    return SchedulerConfig(
        deadline_s=3.0 * solo,
        max_queue_depth=3,
        compute=compute,
        admission="residency" if banks else "backlog",
    )


def _digest(result) -> str:
    lines = [
        repr((t.name, t.resource, t.start_s.hex(), t.duration_s.hex(), t.bandwidth_gbps))
        for t in run_intervals(result)
    ]
    return f"{len(lines)}:" + hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: (compute, banks) -> "<task count>:<sha256>"; both engines share each pin
DIGESTS = {
    ("private", False): "293:cc2004cd308f82df6cf5bcdfb7c25dd108d97abeff3a545126c1c30d65ab21af",
    ("private", True): "263:d320896e4ac2a65a5333e2896101a984eb3053fdbf616b0b7a019311e356c778",
    ("timesliced", False): "293:bece7247b4cd97243e840e624967019c7fdcbf66fad83209096cb56318cb3596",
    ("timesliced", True): "221:57668490ace25c0e19c9838eb88a08d53c676e6b5b3dea4e7b2598846301292a",
}


@pytest.mark.parametrize("banks", [False, True], ids=["no-memory", "2-banks"])
@pytest.mark.parametrize("compute", ["private", "timesliced"])
@pytest.mark.parametrize("engine", ["array", "reference"])
def test_schedule_timeline_is_unchanged(engine, compute, banks):
    plane, solo, arguments = _fleet(banks)
    scheduler = ServingScheduler(plane, _config(solo, compute, banks), engine=engine)
    result = scheduler.run(
        arguments["system"],
        arguments["profiles"],
        arguments["frame_arrivals"],
        question_arrivals=arguments["question_arrivals"],
        answer_tokens=arguments["answer_tokens"],
    )
    assert _digest(result) == DIGESTS[(compute, banks)]


def test_single_device_fleet_timeline_is_the_device_timeline():
    plane, solo, arguments = _fleet(True)
    fleet = FleetScheduler(
        plane, _config(solo, "timesliced", True), FleetConfig(num_devices=1)
    )
    result = fleet.run(**arguments)
    assert _digest(result.devices[0].schedule) == DIGESTS[("timesliced", True)]
