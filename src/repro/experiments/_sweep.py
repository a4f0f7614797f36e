"""One sweep runner for the five serving-experiment drivers.

``batched_serving``, ``scheduled_serving``, ``sharded_memory``,
``fleet_serving`` and ``energy_serving`` each declare their sweeps as data:
a frozen base :class:`Scenario` plus the axes they vary.  This module holds
everything those sweeps share:

* :class:`Scenario` — system, per-stream cache lengths, frames per stream,
  deadline multiple, queue depth and seed, plus what they derive once: the
  plane, the stream profiles, the solo latency, the deadline and one
  arrival-trace set per ``(load, pattern)``;
* :func:`grid` — one row per point of the axes' product, first axis
  outermost; an empty axis is rejected by its argument's name;
* :class:`SweepResult` — the rows, found by their key columns with
  ``row(*key)``, beside the scenario's headline numbers;
* :func:`schedule_row` — one scheduler run's latency, miss and drop summary;
* :func:`format_rows` — a table printed from ``(header, cell[, format])``
  column specs;
* :func:`main` — every driver's command line: ``--sanitize`` arms the
  runtime sanitizer for the whole sweep, as ``REPRO_SANITIZE=1`` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.reporting import format_table
from repro.config import require_number
from repro.devtools.sanitizer import arm_from_argv
from repro.hw.memory.sharding import ShardedKVHierarchy
from repro.sim.arrivals import (
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    rate_for_load,
)
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.scheduler import SchedulerConfig, ServingScheduler
from repro.sim.systems import SystemConfig, edge_systems, server_systems
from repro.sim.workload import default_llm_workload

PATTERNS = ("aligned", "staggered", "poisson", "bursty")


def named_system(name: str) -> SystemConfig:
    """One of the default workload's edge or server systems, by name."""
    model_bytes = default_llm_workload().model_bytes()
    return {**edge_systems(model_bytes), **server_systems(model_bytes)}[name]


def arrival_traces(
    pattern: str, rate_hz: float, num_streams: int, frames: int, seed: int
):
    """One trace per stream; every pattern runs at the same mean rate."""
    if pattern == "aligned":
        process = DeterministicArrivals(period_s=1.0 / rate_hz)
    elif pattern == "staggered":
        process = DeterministicArrivals(
            period_s=1.0 / rate_hz, spacing_s=1.0 / (rate_hz * num_streams)
        )
    elif pattern == "poisson":
        process = PoissonArrivals(rate_hz=rate_hz)
    elif pattern == "bursty":
        process = BurstyArrivals.for_mean_rate(rate_hz)
    else:
        raise ValueError(f"unknown arrival pattern {pattern!r}")
    return process.generate(num_streams, frames, seed=seed)


@dataclass(frozen=True)
class Scenario:
    """The fixed inputs of one sweep; what they derive is computed once.

    ``memory`` (a bank hierarchy template) prices the plane, the solo
    latency included, against sharded device memory.  ``deadline_multiple``
    is in solo latencies; ``None`` runs without a deadline.
    """

    system: SystemConfig
    kv_lens: tuple[int, ...]
    frames_per_stream: int = 1
    deadline_multiple: float | None = None
    max_queue_depth: int | None = None
    seed: int = 0
    memory: ShardedKVHierarchy | None = None
    _traces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_number("num_streams", len(self.kv_lens), 1, integer=True)
        require_number("frames_per_stream", self.frames_per_stream, 1, integer=True)

    @property
    def num_streams(self) -> int:
        return len(self.kv_lens)

    @cached_property
    def plane(self) -> BatchLatencyModel:
        return BatchLatencyModel(memory=self.memory)

    @cached_property
    def profiles(self) -> list[StreamProfile]:
        return [StreamProfile(kv_len=kv, session_id=i) for i, kv in enumerate(self.kv_lens)]

    @cached_property
    def solo_latency_s(self) -> float:
        """One stream's frame latency alone on the system."""
        return self.plane.frame_step(self.system, self.profiles[:1]).streams[0].total_s

    @property
    def deadline_s(self) -> float | None:
        if self.deadline_multiple is None:
            return None
        return self.deadline_multiple * self.solo_latency_s

    def traces(self, load: float, pattern: str = "poisson"):
        """The streams' arrival traces at an offered load (in solo latencies)."""
        if (load, pattern) not in self._traces:
            rate = rate_for_load(load, self.solo_latency_s, self.num_streams)
            self._traces[load, pattern] = arrival_traces(
                pattern, rate, self.num_streams, self.frames_per_stream, self.seed
            )
        return self._traces[load, pattern]

    def config(self, **policy) -> SchedulerConfig:
        return SchedulerConfig(
            deadline_s=self.deadline_s, max_queue_depth=self.max_queue_depth, **policy
        )

    def schedule(self, load: float, pattern: str = "poisson", plane=None, **policy):
        """One scheduler run at an offered load, on ``plane`` or the scenario's."""
        plane = self.plane if plane is None else plane
        scheduler = ServingScheduler(plane, self.config(**policy))
        return scheduler.run(self.system, self.profiles, self.traces(load, pattern))


def require_axis(name: str, values) -> tuple:
    """``values`` as a tuple, or a ``ValueError`` naming an empty axis."""
    values = tuple(values)
    if not values:
        raise ValueError(f"{name} must not be empty")
    return values


def grid(point, **axes) -> list[dict]:
    """``point(*coordinates)`` at every point of the axes' product.

    Axes are named by the entry-point argument they come from and vary
    first-outermost; each point returns its row, key columns included.
    """
    values = [require_axis(name, axis) for name, axis in axes.items()]
    return [point(*coordinates) for coordinates in itertools.product(*values)]


@dataclass(kw_only=True)
class SweepResult:
    """A sweep's rows, found by their ``key`` columns, and its headline."""

    system: str
    kv_lens: tuple[int, ...]
    deadline_s: float | None = None
    solo_latency_s: float | None = None
    key: tuple[str, ...] = ("load",)
    rows: list[dict] = field(default_factory=list)

    @classmethod
    def of(cls, scenario: Scenario, rows: list[dict], **fields):
        return cls(
            system=scenario.system.name,
            kv_lens=scenario.kv_lens,
            deadline_s=scenario.deadline_s,
            solo_latency_s=scenario.solo_latency_s,
            rows=rows,
            **fields,
        )

    @property
    def kv_len(self) -> int:
        return self.kv_lens[0]

    @property
    def num_streams(self) -> int:
        return len(self.kv_lens)

    @cached_property
    def _index(self) -> dict[tuple, dict]:
        index = {tuple(row[name] for name in self.key): row for row in self.rows}
        if len(index) != len(self.rows):
            raise ValueError(f"two rows share a key {self.key}")
        return index

    def row(self, *key) -> dict:
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"no row for {dict(zip(self.key, key))}") from None


def schedule_row(schedule) -> dict:
    """The latency, miss and drop summary of one scheduler run."""
    fleet = schedule.fleet_summary()
    return {
        "p50_ms": fleet.p50_ms,
        "p95_ms": fleet.p95_ms,
        "p99_ms": fleet.p99_ms,
        "mean_ms": fleet.mean_ms,
        "miss_rate": fleet.deadline_miss_rate,
        "drop_rate": fleet.drop_rate,
        "makespan_s": schedule.makespan_s,
        "events": schedule.events_processed,
    }


def percent(key: str):
    """A cell: ``row[key]`` as a percentage."""
    return lambda row: 100.0 * row[key]


def _cell(row: dict, cell, spec: str | None = None):
    value = row[cell] if isinstance(cell, str) else cell(row)
    return value if spec is None else format(value, spec)


def format_rows(columns, rows, title: str) -> str:
    """``rows`` as a table, one ``(header, cell[, format])`` spec per column.

    ``cell`` is a row key or a function of the row; ``format`` (a format
    spec such as ``".2f"``) turns the value into the printed string.
    """
    headers = [header for header, *_ in columns]
    cells = [[_cell(row, *spec) for _, *spec in columns] for row in rows]
    return format_table(headers, cells, title=title)


def main(argv: list[str] | None, report):
    """Consume ``--sanitize`` from ``argv`` (``sys.argv`` by default), then report."""
    arm_from_argv(argv)
    return report()
