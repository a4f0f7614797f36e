"""The five reference scenarios and the one vertical pass they all run.

Every workload is the same *vertical* run — seeded video frames through the
functional ReSV plane, calibration of stream profiles, a pricing-plane
sweep, a single-device ``ServingScheduler`` run finalised to records,
summaries and an energy report, then the same kind of sessions on a
multi-device ``FleetScheduler`` — and differs only in where it puts the
work: each spec makes one stage large and keeps the others small.  A
workload therefore exercises every layer (so every per-layer metric is a
real measurement on every workload) while ~85-95% of its wall time sits in
the layer it is named for.

The pass calls only public functions; spans are opened here, around those
calls, never inside ``src/``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from repro.config import ReSVConfig, toy_model_config
from repro.core import ReSVRetriever
from repro.hw.interconnect import FREE_INTERCONNECT, PCIE5_SWITCH
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.model.llm import StreamingVideoLLM
from repro.model.serving import SessionBatch
from repro.sim.arrivals import BurstyArrivals, PoissonArrivals, rate_for_load
from repro.sim.batched import BatchLatencyModel, StreamProfile, profiles_from_reports
from repro.sim.fleet import FleetConfig, FleetScheduler
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import edge_systems, server_systems
from repro.sim.workload import default_llm_workload
from repro.video.synthetic import SyntheticVideoConfig, SyntheticVideoStream

ANSWER_TOKENS = 4  # simulated answer tokens per question (scheduler + fleet)
GENERATED_TOKENS = 3  # functional-plane tokens generated per stream
QUESTION_TOKENS = 5  # functional-plane question length
NOMINAL_KV_LEN = 40_000  # the cache length solo service time is quoted at
SWEEP_FLEETS = (4, 16, 48)


@dataclass(frozen=True)
class Workload:
    """Sizes and policies of one vertical scenario."""

    name: str
    why: str
    # functional plane: toy model + ReSV over seeded synthetic video
    func_streams: int
    func_frames: int
    # pricing-plane sweep: how many systems' worth of figure-style step pricing
    sweep_rounds: int
    # single-device scheduler stage
    system: str
    sessions: int
    frames: int
    kv_range: tuple[int, int]
    arrivals: str  # "poisson" or "bursty"
    load: float  # offered load relative to one stream's solo service time
    deadline_x: float  # deadline in solo service times
    max_queue_depth: int | None
    compute: str = "private"
    admission: str = "backlog"
    banks: int = 0  # 0: no memory plane; else a sharded hierarchy, ~1/3 resident
    # fleet stage (same plane and scheduler config, M devices)
    fleet_sessions: int = 8
    fleet_frames: int = 8
    fleet_load: float = 0.5  # per device
    devices: int = 2
    router: str = "round_robin"
    priced_interconnect: bool = False
    homed_share: float = 0.0  # share of sessions whose shards start on device 0
    stealing: bool = False  # kv_residency patience and work stealing at 2x solo backlog

    def smoke(self) -> Workload:
        """The same scenario at roughly 1/50 of the work."""

        def shrink(value: int, by: int, floor: int) -> int:
            return max(floor, value // by)

        return dataclasses.replace(
            self,
            func_streams=shrink(self.func_streams, 4, 2),
            func_frames=shrink(self.func_frames, 8, 3),
            sweep_rounds=shrink(self.sweep_rounds, 50, 1),
            sessions=shrink(self.sessions, 8, 4),
            frames=shrink(self.frames, 6, 4),
            fleet_sessions=shrink(self.fleet_sessions, 8, 4),
            fleet_frames=shrink(self.fleet_frames, 6, 4),
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream_e2e",
            why="functional plane (toy LLM + ReSV clustering/WiCSum) does ~95% of the work; "
            "scheduler, fleet and energy almost none",
            func_streams=8,
            func_frames=14,
            sweep_rounds=1,
            system="V-Rex8",
            sessions=8,
            frames=14,
            kv_range=(NOMINAL_KV_LEN, NOMINAL_KV_LEN),
            arrivals="poisson",
            load=0.5,
            deadline_x=2.0,
            max_queue_depth=4,
            fleet_sessions=8,
            fleet_frames=14,
        ),
        Workload(
            name="edge_overload",
            why="1024 heterogeneous sessions overload one V-Rex8: event dispatch and record/"
            "summary finalisation split the time; also the host-memory workload",
            func_streams=1,
            func_frames=4,
            sweep_rounds=1,
            system="V-Rex8",
            sessions=1024,
            frames=64,
            kv_range=(10_000, 60_000),
            arrivals="poisson",
            load=1.1,
            deadline_x=3.0,
            max_queue_depth=8,
        ),
        Workload(
            name="memory_timesliced",
            why="memory-bound V-Rex48 with 4 sharded banks, residency admission and time-sliced "
            "compute: per-job re-pricing, eviction and the preemptive server dominate",
            func_streams=1,
            func_frames=4,
            sweep_rounds=1,
            system="V-Rex48",
            sessions=128,
            frames=110,
            kv_range=(NOMINAL_KV_LEN, NOMINAL_KV_LEN),
            arrivals="bursty",
            load=1.2,
            deadline_x=2.0,
            max_queue_depth=3,
            compute="timesliced",
            admission="residency",
            banks=4,
        ),
        Workload(
            name="fleet_rebalance",
            why="4-device fleet, kv_residency routing over a priced switch with work stealing: "
            "routing pre-pass + estimator + per-device replay dominate",
            func_streams=1,
            func_frames=4,
            sweep_rounds=1,
            system="V-Rex8",
            sessions=16,
            frames=10,
            kv_range=(NOMINAL_KV_LEN, NOMINAL_KV_LEN),
            arrivals="bursty",
            load=0.7,
            deadline_x=3.0,
            max_queue_depth=8,
            fleet_sessions=512,
            fleet_frames=120,
            fleet_load=1.3,
            devices=4,
            router="kv_residency",
            priced_interconnect=True,
            homed_share=0.5,
            stealing=True,
        ),
        Workload(
            name="plane_sweep",
            why="figure-style pricing sweep (contention/batched/timesliced frame steps over all "
            "ten systems) as a hot loop: the pricing plane does all the work",
            func_streams=1,
            func_frames=4,
            sweep_rounds=200,
            system="V-Rex8",
            sessions=16,
            frames=10,
            kv_range=(10_000, 60_000),
            arrivals="poisson",
            load=0.7,
            deadline_x=3.0,
            max_queue_depth=8,
        ),
    )
}


# ---------------------------------------------------------------------- #
# inputs: everything a pass consumes, generated from the seed alone
# ---------------------------------------------------------------------- #
@dataclass
class Inputs:
    batch: SessionBatch
    videos: list[list[np.ndarray]]
    functional_arrivals: list[np.ndarray]
    questions: list[np.ndarray]
    systems: dict  # every edge + server system, for the sweep
    system: object  # the scheduler/fleet stage's SystemConfig
    solo_s: float  # one stream's solo frame service time at NOMINAL_KV_LEN
    kv_lens: list[int]
    sweep_kv_lens: list[int]
    memory_budget_bytes: float
    traces: list[np.ndarray]
    question_arrivals: list[float]
    fleet_traces: list[np.ndarray]
    fleet_question_arrivals: list[float]
    homes: dict[int, int]  # session id -> device already holding its shards


def _arrival_traces(kind: str, load: float, solo_s: float, streams: int, frames: int, seed: int):
    rate = rate_for_load(load, solo_s, streams)
    process = (
        PoissonArrivals(rate_hz=rate) if kind == "poisson" else BurstyArrivals.for_mean_rate(rate)
    )
    return process.generate(streams, frames, seed=seed)


def build_inputs(spec: Workload, seed: int, tracer) -> Inputs:
    """Generate one pass's inputs and the model they are fed to."""
    rng = np.random.default_rng((seed, 0xE2E))
    config = toy_model_config()
    model = StreamingVideoLLM(config, seed=seed)
    engine = ReSVRetriever(
        config.num_layers,
        config.num_kv_heads,
        config.head_dim,
        ReSVConfig(hamming_threshold=7, wicsum_ratio=0.3, recent_window=8, seed=seed),
        use_early_exit=True,
    )

    def spawn_traced():
        retriever = engine.spawn()
        # instance attributes shadow the public methods: the model's calls
        # into the retriever become child spans of the serving call
        retriever.observe_keys = tracer.wrap("core.resv.observe", retriever.observe_keys)
        retriever.select = tracer.wrap("core.resv.select", retriever.select)
        return retriever

    batch = SessionBatch(model, retriever_factory=spawn_traced, num_sessions=spec.func_streams)
    videos = [
        SyntheticVideoStream(
            SyntheticVideoConfig(
                num_frames=spec.func_frames,
                tokens_per_frame=config.tokens_per_frame,
                hidden_dim=config.hidden_dim,
                seed=int(rng.integers(1 << 31)),
            )
        ).frames()
        for _ in range(spec.func_streams)
    ]
    functional_arrivals = PoissonArrivals(rate_hz=2.0).generate(
        spec.func_streams, spec.func_frames, seed=seed
    )
    questions = [
        rng.normal(size=(QUESTION_TOKENS, config.hidden_dim)) for _ in range(spec.func_streams)
    ]

    model_bytes = default_llm_workload().model_bytes()
    systems = {**edge_systems(model_bytes), **server_systems(model_bytes)}
    system = systems[spec.system]
    pricing = BatchLatencyModel()  # set-up only: sizes the offered load and the banks
    nominal = StreamProfile(kv_len=NOMINAL_KV_LEN)
    solo_s = pricing.frame_step(system, [nominal]).streams[0].total_s
    low, high = spec.kv_range
    population = max(spec.sessions, spec.fleet_sessions)
    kv_lens = [int(k) for k in rng.integers(low, high + 1, size=population)]
    sweep_kv_lens = [int(k) for k in rng.integers(10_000, 60_001, size=max(SWEEP_FLEETS))]
    # banks sized so about a third of the fleet's offloaded shards are resident
    offloaded = pricing.session_shard_bytes(system, nominal).offloaded_bytes * spec.sessions
    memory_budget_bytes = offloaded / (3.0 * spec.banks) if spec.banks else math.inf

    traces = _arrival_traces(spec.arrivals, spec.load, solo_s, spec.sessions, spec.frames, seed)
    fleet_traces = _arrival_traces(
        spec.arrivals,
        spec.fleet_load * spec.devices,
        solo_s,
        spec.fleet_sessions,
        spec.fleet_frames,
        seed,
    )
    homed = int(spec.homed_share * spec.fleet_sessions)
    return Inputs(
        batch=batch,
        videos=videos,
        functional_arrivals=functional_arrivals,
        questions=questions,
        systems=systems,
        system=system,
        solo_s=solo_s,
        kv_lens=kv_lens,
        sweep_kv_lens=sweep_kv_lens,
        memory_budget_bytes=memory_budget_bytes,
        traces=traces,
        question_arrivals=[float(trace[-1]) for trace in traces],
        fleet_traces=fleet_traces,
        fleet_question_arrivals=[float(trace[-1]) for trace in fleet_traces],
        homes={session: 0 for session in range(homed)},
    )


# ---------------------------------------------------------------------- #
# the pass
# ---------------------------------------------------------------------- #
@dataclass
class PassOutput:
    """What one pass produced; the checks read it, the timed region ends before."""

    generated: list[np.ndarray]
    reports: list
    profiles: list[StreamProfile]
    sweep_total_ms: float
    solo_fps: float
    scheduler: ServingScheduler
    schedule: object
    summary: object
    energy: object
    fleet_result: object
    fleet_records: list
    fleet_energy: object


def plane_for(spec: Workload, inputs: Inputs) -> BatchLatencyModel:
    """A fresh pricing plane, with the workload's memory plane if it has one."""
    if not spec.banks:
        return BatchLatencyModel()
    return BatchLatencyModel(
        memory=ShardedKVHierarchy(
            num_banks=spec.banks, bank_budget_bytes=inputs.memory_budget_bytes
        )
    )


def scheduler_config(spec: Workload, inputs: Inputs) -> SchedulerConfig:
    return SchedulerConfig(
        deadline_s=spec.deadline_x * inputs.solo_s,
        max_queue_depth=spec.max_queue_depth,
        compute=spec.compute,
        admission=spec.admission,
    )


def fleet_config(spec: Workload, inputs: Inputs, devices: int | None = None) -> FleetConfig:
    solo = inputs.solo_s
    knobs = {}
    if spec.stealing:
        # rebalancing sweeps stay off: at the issue's 10x-solo interval
        # FleetScheduler.run raises "arrival trace must be nondecreasing"
        # on every seed tried (see README, "Known defect")
        knobs = {
            "migrate_backlog_s": 2.0 * solo,
            "work_stealing": True,
            "steal_backlog_s": 2.0 * solo,
        }
    return FleetConfig(
        num_devices=spec.devices if devices is None else devices,
        router=spec.router,
        interconnect=PCIE5_SWITCH if spec.priced_interconnect else FREE_INTERCONNECT,
        **knobs,
    )


def _tiled_reports(reports: list, count: int) -> list:
    """``count`` session reports cycling through the measured ones."""
    return [
        dataclasses.replace(reports[index % len(reports)], session_id=index)
        for index in range(count)
    ]


def _sweep(spec: Workload, inputs: Inputs, profiles: list[StreamProfile], tracer):
    """Figure-style pricing sweep: three fleet sizes, every step mode, per system.

    One round prices one system; rounds start at the workload's own system
    and cycle through the edge and server line-ups.
    """
    plane = BatchLatencyModel()
    fleets = {size: profiles[:size] for size in SWEEP_FLEETS}
    names = list(inputs.systems)
    first = names.index(spec.system)
    total_ms = 0.0

    def price(name: str, step, *args, **kwargs) -> None:
        nonlocal total_ms
        with tracer.span(f"sim.batched.{name}"):
            total_ms += step(*args, **kwargs).total_ms

    for round_index in range(spec.sweep_rounds):
        system = inputs.systems[names[(first + round_index) % len(names)]]
        step = plane.frame_step
        for size, fleet in fleets.items():
            price(f"frame_step.contention_n{size}", step, system, fleet, contention=True)
        price("frame_step.batched_n48", step, system, fleets[48], contention=False)
        price("frame_step.timesliced_n16", step, system, fleets[16], compute="timesliced")
        price("question_step", plane.question_step, system, fleets[16])
        price("generation_step", plane.generation_step, system, fleets[16])
        with tracer.span("sim.batched.scenario_estimates"):
            estimates = plane.scenario_estimates(system, fleets[16], frames=8, answer_tokens=4)
            total_ms += sum(estimate.total_s for estimate in estimates) * 1e3
        for profile in fleets[16]:
            with tracer.span("sim.batched.session_shard_bytes"):
                plane.session_shard_bytes(system, profile)
    solo_fps = plane.frame_step(inputs.system, [StreamProfile(kv_len=NOMINAL_KV_LEN)]).fps
    return total_ms, solo_fps


def run_pass(spec: Workload, inputs: Inputs, tracer) -> PassOutput:
    """One vertical run, frames to fleet energy report — the timed region."""
    batch = inputs.batch
    with tracer.span("model.serving.frames"):
        batch.run_arrivals(inputs.videos, inputs.functional_arrivals)
    with tracer.span("model.serving.qa"):
        batch.ask_all(inputs.questions)
        generated = batch.generate_all(GENERATED_TOKENS)
    with tracer.span("model.serving.reports"):
        reports = batch.reports()

    population = len(inputs.kv_lens)
    with tracer.span("sim.batched.profiles_from_reports"):
        profiles = profiles_from_reports(
            _tiled_reports(reports, population), kv_lens=inputs.kv_lens
        )
        sweep_profiles = profiles_from_reports(
            _tiled_reports(reports, len(inputs.sweep_kv_lens)), kv_lens=inputs.sweep_kv_lens
        )
    with tracer.span("sim.batched.sweep"):
        sweep_total_ms, solo_fps = _sweep(spec, inputs, sweep_profiles, tracer)

    config = scheduler_config(spec, inputs)
    scheduler = ServingScheduler(plane_for(spec, inputs), config)
    with tracer.span("sim.scheduler.run"):
        schedule = scheduler.run(
            inputs.system,
            profiles[: spec.sessions],
            inputs.traces,
            question_arrivals=inputs.question_arrivals,
            answer_tokens=ANSWER_TOKENS,
        )
    with tracer.span("sim.scheduler.records"):
        schedule.records  # noqa: B018 — materialising the views is the work timed here
    with tracer.span("sim.scheduler.summaries"):
        summary = schedule.fleet_summary()
        schedule.stream_summaries()
    with tracer.span("sim.energy.schedule"):
        energy = schedule.energy()

    fleet = FleetScheduler(plane_for(spec, inputs), config, fleet_config(spec, inputs))
    fleet.scheduler.run = tracer.wrap("sim.fleet.device_run", fleet.scheduler.run)
    with tracer.span("sim.fleet.run"):
        fleet_result = fleet.run(
            inputs.system,
            profiles[: spec.fleet_sessions],
            inputs.fleet_traces,
            question_arrivals=inputs.fleet_question_arrivals,
            answer_tokens=ANSWER_TOKENS,
            home_devices=inputs.homes,
        )
    with tracer.span("sim.fleet.records"):
        fleet_records = fleet_result.records
    with tracer.span("sim.energy.fleet"):
        fleet_energy = fleet_result.energy()

    return PassOutput(
        generated=generated,
        reports=reports,
        profiles=profiles,
        sweep_total_ms=sweep_total_ms,
        solo_fps=solo_fps,
        scheduler=scheduler,
        schedule=schedule,
        summary=summary,
        energy=energy,
        fleet_result=fleet_result,
        fleet_records=fleet_records,
        fleet_energy=fleet_energy,
    )


# ---------------------------------------------------------------------- #
# untimed companions of a pass: the comparison runs the checks and the
# difference metrics need
# ---------------------------------------------------------------------- #
@dataclass
class Extras:
    rerun: object  # the scheduler stage again on the same (now price-cached) scheduler
    m1_fleet: object  # the fleet stage's sessions on a one-device fleet ...
    m1_plain: object  # ... and on a plain ServingScheduler, which it must equal


def run_extras(spec: Workload, inputs: Inputs, out: PassOutput, tracer) -> Extras:
    with tracer.span("sim.scheduler.rerun"):
        rerun = out.scheduler.run(
            inputs.system,
            out.profiles[: spec.sessions],
            inputs.traces,
            question_arrivals=inputs.question_arrivals,
            answer_tokens=ANSWER_TOKENS,
        )
    config = scheduler_config(spec, inputs)
    sessions = out.profiles[: spec.fleet_sessions]
    arguments = {
        "question_arrivals": inputs.fleet_question_arrivals,
        "answer_tokens": ANSWER_TOKENS,
    }
    one_device = FleetScheduler(plane_for(spec, inputs), config, FleetConfig(num_devices=1))
    with tracer.span("sim.fleet.m1_run"):
        m1_fleet = one_device.run(inputs.system, sessions, inputs.fleet_traces, **arguments)
    m1_plain = ServingScheduler(plane_for(spec, inputs), config).run(
        inputs.system, sessions, inputs.fleet_traces, **arguments
    )
    return Extras(rerun=rerun, m1_fleet=m1_fleet, m1_plain=m1_plain)
