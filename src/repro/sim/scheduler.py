"""Event-driven serving scheduler over the shared PCIe link and DRE.

:class:`repro.sim.batched.BatchLatencyModel` prices *one* serving tick at
fixed arrival offsets — every stream steps in lockstep, and the makespan of
that single step is the only latency it can report.  A serving deployment
does not tick: frames arrive as stochastic per-stream processes
(:mod:`repro.sim.arrivals`), a stream whose previous frame is still in
flight queues its next one, questions land mid-stream, and the operator
cares about the *distribution* of per-frame latency (p50/p95/p99, deadline
misses), not a single makespan.

:class:`ServingScheduler` replaces the lockstep step with an event loop
(:class:`repro.hw.event.EventLoop`):

* every stream's frames/questions/generation tokens are **jobs**; a
  stream's jobs are serialized on its own pipeline slot
  (:class:`repro.hw.event.ReleasableResource` — a frame holds the stream
  until its finish time emerges from the shared queues, later frames wait
  behind it);
* each job's demands are read once per stream and stage from the plane's
  demand table (:meth:`BatchLatencyModel._stream_demands`) — exactly the
  pricing the contended batched plane uses;
* ReSV prediction jobs serialize FCFS on the shared DRE and KV-fetch
  transfers on the shared PCIe link
  (:class:`repro.hw.memory.pcie.PCIeLinkQueue`), through the *same*
  :func:`repro.sim.batched.contended_issue_timing` /
  :func:`repro.sim.batched.contended_exposure` helpers (private compute)
  and the same :class:`repro.sim.batched.StageCore` machine under the
  same :func:`repro.sim.batched.stage_driver` (time-sliced compute) as
  :meth:`BatchLatencyModel._contended_step` — so in the degenerate
  configuration (every stream's single frame arrives at its profile
  offset, no admission control) the scheduler reproduces the contended
  batched step *bit for bit* under either compute policy;
* **admission control** drops frames when a stream's backlog exceeds
  ``max_queue_depth`` (upload throttling), or when the residency / energy
  policy's one rule (:func:`admission_decision`) defers them;
* every run records a full :class:`repro.hw.event.Timeline` (per-stream
  compute lanes plus the shared ``dre`` and ``pcie`` resources) and a
  :class:`JobRecord` per job, from which :class:`ScheduleResult` reports
  exact per-stream and fleet sojourn-time percentiles and deadline-miss
  rates.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import require_choice, require_number
from repro.hw.accelerator import VRexAccelerator
from repro.hw.event import (
    EventLoop,
    PreemptiveResource,
    ReleasableResource,
    ResourceQueue,
    Timeline,
)
from repro.hw.memory.pcie import PCIeLinkQueue
from repro.hw.memory.sharding import ShardedKVHierarchy, sharded_fetch_makespan
from repro.sim.batched import (
    DEFAULT_QUANTUM_S,
    PRIO_ARRIVAL,
    PRIO_COMPLETE,
    PRIO_ISSUE,
    PRIO_LINK,
    BatchLatencyModel,
    ContendedTiming,
    StageCore,
    StreamProfile,
    _broadcast_per_stream,
    contended_exposure,
    contended_issue_timing,
    stage_driver,
    validate_compute_policy,
)
from repro.sim.energy import EnergyInputs
from repro.sim.jobtable import (
    ADM_DEFER,
    ADM_EVICT,
    ADMISSION_NAMES,
    KIND_NAMES,
    RecordColumns,
)
from repro.sim.pipeline import FRAME_STAGE, GENERATION_STAGE
from repro.sim.systems import SystemConfig

FRAME_JOB = "frame"
QUESTION_JOB = "question"
GENERATION_JOB = "generation"

#: public kind / admission strings → the integer codes of the record
#: columns (:mod:`repro.sim.jobtable` owns the code → string tuples)
_KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}
_ADMISSION_CODES = {name: code for code, name in enumerate(ADMISSION_NAMES)}

#: Scheduler engines: ``"array"`` is the struct-of-arrays fast path
#: (:mod:`repro.sim.engine`), ``"reference"`` the original closure-driven
#: :class:`~repro.hw.event.EventLoop` — kept as the executable spec the
#: equivalence tests pin the fast path against.
ENGINES = ("array", "reference")


def validate_engine(engine: str) -> str:
    """Return ``engine`` or raise for an engine the scheduler lacks."""
    return require_choice("engine", engine, ENGINES)


DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)

#: Admission-control policies of the scheduler.
ADMISSION_POLICIES = ("backlog", "residency", "energy")

#: Admission outcomes recorded per job.  ``"admit"`` (served, no memory
#: action), ``"evict"`` (served after cold-shard eviction promoted the
#: stream's shards), ``"backlog"`` (dropped at the queue-depth bound) and
#: ``"defer"`` (shed by an admission controller: the residency policy
#: sheds a job that could not meet its deadline even after promotion;
#: the energy policy sheds a job whose marginal J/token estimate busts
#: the configured budget).
ADMIT, EVICT, BACKLOG_DROP, DEFER = "admit", "evict", "backlog", "defer"


def validate_admission_policy(admission: str) -> str:
    """Return ``admission`` or raise for a policy the scheduler lacks."""
    return require_choice("admission policy", admission, ADMISSION_POLICIES)


@dataclass(frozen=True)
class SchedulerConfig:
    """Deadline, admission-control and compute policy of a scheduler run.

    ``deadline_s`` is the per-job latency budget measured from arrival;
    ``max_queue_depth`` bounds a stream's backlog (arrivals beyond it are
    dropped at admission).

    ``compute`` picks the compute-contention policy: ``"private"`` prices
    the LXE/GPU as free per-stream engines (the optimistic floor), while
    ``"timesliced"`` makes every stream's dense compute (and, on GPU
    systems, its prediction kernels) contend on one shared round-robin
    server with scheduling quantum ``quantum_s``
    (:class:`repro.hw.event.PreemptiveResource`).

    ``admission`` picks the admission policy: ``"backlog"`` bounds only
    each stream's own queue depth, while ``"residency"`` additionally
    couples admission to the sharded device-memory plane — each arriving
    job is estimated against its deadline at the stream's *current* KV
    shard residency plus the compute backlog it would join, and the
    controller admits it, admits it after **evicting** colder shards to
    promote the stream warm, or **defers** (sheds) it when not even a full
    promotion could meet the deadline.  Residency admission requires a
    ``deadline_s`` and a scheduler plane built with a memory plane
    (:class:`repro.hw.memory.sharding.ShardedKVHierarchy`).

    ``admission="energy"`` defers a job when its *marginal energy per
    token* — the device baseline charged over the sojourn the job would
    see (its backlog-scaled wait plus its own solo latency) plus
    full-load IO power over its fetch — exceeds
    ``energy_budget_j_per_token``.  Under light load the estimate is
    near the solo J/token floor and everything admits; under overload
    the sojourn term inflates the estimate and the controller sheds the
    jobs whose queueing would burn the most joules per useful token.
    """

    deadline_s: float | None = None
    max_queue_depth: int | None = None
    compute: str = "private"
    quantum_s: float = DEFAULT_QUANTUM_S
    admission: str = "backlog"
    energy_budget_j_per_token: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None:
            require_number("deadline_s", self.deadline_s, exclusive=True)
        if self.max_queue_depth is not None:
            require_number("max_queue_depth", self.max_queue_depth, integer=True)
        validate_compute_policy(self.compute)
        require_number("quantum_s", self.quantum_s, exclusive=True)
        validate_admission_policy(self.admission)
        if self.admission == "residency" and self.deadline_s is None:
            raise ValueError("admission='residency' requires a deadline_s")
        if self.admission == "energy" and self.energy_budget_j_per_token is None:
            raise ValueError(
                "admission='energy' requires an energy_budget_j_per_token"
            )
        if self.energy_budget_j_per_token is not None:
            require_number(
                "energy_budget_j_per_token", self.energy_budget_j_per_token, exclusive=True
            )


@dataclass(frozen=True)
class JobRecord:
    """One scheduled (or dropped) unit of work."""

    stream_index: int
    session_id: int
    kind: str
    job_index: int
    arrival_s: float
    start_s: float
    finish_s: float
    dropped: bool = False
    deadline_missed: bool = False
    pcie_wait_s: float = 0.0
    dre_wait_s: float = 0.0
    compute_wait_s: float = 0.0
    #: admission outcome: "admit", "evict", "backlog" or "defer"
    admission: str = ADMIT

    @property
    def sojourn_s(self) -> float:
        """Arrival-to-finish latency (the quantity percentiles report)."""
        return self.finish_s - self.arrival_s


@dataclass(frozen=True)
class LatencySummary:
    """Sojourn-time distribution of one stream (or the whole fleet)."""

    scope: str
    jobs: int
    served: int
    dropped: int
    percentiles_ms: dict[str, float]
    mean_ms: float
    max_ms: float
    deadline_miss_rate: float
    drop_rate: float
    stream_index: int | None = None
    session_id: int | None = None

    def percentile_ms(self, q: float) -> float:
        return self.percentiles_ms[f"p{q:g}"]

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p95_ms(self) -> float:
        return self.percentile_ms(95)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)


def _records_from_columns(columns: RecordColumns) -> list[JobRecord]:
    """Materialize the dataclass record view of one run's sorted columns."""
    stream = columns.stream.tolist()
    session = columns.session.tolist()
    kind = columns.kind.tolist()
    index = columns.index.tolist()
    arrival = columns.arrival.tolist()
    start = columns.start.tolist()
    finish = columns.finish.tolist()
    dropped = columns.dropped.tolist()
    missed = columns.missed.tolist()
    pcie = columns.pcie_wait.tolist()
    dre = columns.dre_wait.tolist()
    cwait = columns.compute_wait.tolist()
    admission = columns.admission.tolist()
    return [
        JobRecord(
            stream_index=stream[i],
            session_id=session[i],
            kind=KIND_NAMES[kind[i]],
            job_index=index[i],
            arrival_s=arrival[i],
            start_s=start[i],
            finish_s=finish[i],
            dropped=dropped[i],
            deadline_missed=missed[i],
            pcie_wait_s=pcie[i],
            dre_wait_s=dre[i],
            compute_wait_s=cwait[i],
            admission=ADMISSION_NAMES[admission[i]],
        )
        for i in range(len(stream))
    ]


def _summarize(
    scope: str,
    columns: RecordColumns,
    rows: np.ndarray,
    percentiles: Sequence[float],
    stream_index: int | None = None,
    session_id: int | None = None,
) -> LatencySummary:
    """Sojourn-time distribution of the records at index array ``rows``.

    The one summariser behind every stream, device and fleet summary.

    **Float-order rule.**  ``np.mean`` is order-sensitive, so the served
    sojourns are always taken in *sorted-record order* — ``rows`` must be
    ascending positions in ``columns``, themselves sorted by ``(finish,
    stream, index)``.  A mask or a stable group-by of the sorted columns
    preserves that order; re-sorting, or selecting one device's rows out
    of a fleet-wide merge, does not — a per-device summary is computed on
    that device's own sorted columns.  Any refactor that keeps the value
    sequence keeps every percentile, mean and rate bit for bit.
    """
    total = len(rows)
    served_rows = rows[~columns.dropped[rows]]
    served = len(served_rows)
    sojourns = columns.finish[served_rows] - columns.arrival[served_rows]
    if served:
        pct = {
            f"p{q:g}": float(np.percentile(sojourns, q)) * 1e3 for q in percentiles
        }
        mean_ms = float(sojourns.mean()) * 1e3
        max_ms = float(sojourns.max()) * 1e3
    else:
        pct = {f"p{q:g}": float("nan") for q in percentiles}
        mean_ms = max_ms = float("nan")
    missed = int(columns.missed[served_rows].sum())
    return LatencySummary(
        scope=scope,
        jobs=total,
        served=served,
        dropped=total - served,
        percentiles_ms=pct,
        mean_ms=mean_ms,
        max_ms=max_ms,
        deadline_miss_rate=missed / served if served else 0.0,
        drop_rate=(total - served) / total if total else 0.0,
        stream_index=stream_index,
        session_id=session_id,
    )


class RecordViews:
    """Record views and statistics over a ``columns`` attribute.

    :class:`~repro.sim.jobtable.RecordColumns` is the only stored form of
    a run's job records; :class:`ScheduleResult` and
    :class:`repro.sim.fleet.FleetResult` both inherit every figure from
    here, computed on the columns, and hand out :class:`JobRecord` lists
    as a lazily materialized, cached view.
    """

    columns: RecordColumns
    _records: list[JobRecord] | None = None

    @property
    def records(self) -> list[JobRecord]:
        """The run's :class:`JobRecord` list, sorted by (finish, stream, index)."""
        if self._records is None:
            self._records = _records_from_columns(self.columns)
        return self._records

    def jobs(
        self, stream_index: int | None = None, kind: str | None = None
    ) -> list[JobRecord]:
        """Records filtered by stream and/or job kind (dropped included)."""
        return [
            r
            for r in self.records
            if (stream_index is None or r.stream_index == stream_index)
            and (kind is None or r.kind == kind)
        ]

    def _rows(self, stream_index: int | None, kind: str | None) -> np.ndarray:
        """Positions of the selected records (dropped included), ascending."""
        columns = self.columns
        selected = np.ones(len(columns), dtype=bool)
        if stream_index is not None:
            selected &= columns.stream == stream_index
        if kind is not None:
            selected &= columns.kind == _KIND_CODES[kind]
        return np.flatnonzero(selected)

    def sojourn_times_s(
        self, stream_index: int | None = None, kind: str | None = None
    ) -> list[float]:
        """Served jobs' arrival-to-finish latencies."""
        columns = self.columns
        rows = self._rows(stream_index, kind)
        rows = rows[~columns.dropped[rows]]
        return (columns.finish[rows] - columns.arrival[rows]).tolist()

    @property
    def served(self) -> int:
        return len(self.columns) - self.dropped

    @property
    def dropped(self) -> int:
        return int(self.columns.dropped.sum())

    @property
    def deferred(self) -> int:
        """Jobs shed by the residency-aware admission controller."""
        return int((self.columns.admission == ADM_DEFER).sum())

    @property
    def evict_admissions(self) -> int:
        """Jobs admitted only after cold-shard eviction promoted their stream."""
        return int((self.columns.admission == ADM_EVICT).sum())

    @property
    def makespan_s(self) -> float:
        """First arrival to last finish across served jobs."""
        columns = self.columns
        served = ~columns.dropped
        if not served.any():
            return 0.0
        return float(columns.finish[served].max() - columns.arrival[served].min())

    def fleet_summary(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES, kind: str | None = None
    ) -> LatencySummary:
        """Sojourn-time distribution over every stream's served jobs."""
        return _summarize("fleet", self.columns, self._rows(None, kind), percentiles)


class ScheduleResult(RecordViews):
    """Everything one scheduler run produced.

    Both engines hand over the run's sorted
    :class:`~repro.sim.jobtable.RecordColumns` — the store every statistic
    reads; the dataclass views are reconstructed lazily — plus the array
    engine's compact timeline log (``table``) or the reference loop's full
    ``timeline``.  The engine-equivalence tests pin the two engines'
    columns equal, column by column.
    """

    def __init__(
        self,
        system: str,
        config: SchedulerConfig,
        num_streams: int,
        columns: RecordColumns,
        timeline: Timeline | None = None,
        events_processed: int = 0,
        oom: bool = False,
        memory: ShardedKVHierarchy | None = None,
        bank_occupancy_trajectory: list[tuple[float, tuple[float, ...]]] | None = None,
        table=None,
        timesliced: bool = False,
        energy_inputs=None,
    ):
        self.system = system
        self.config = config
        self.num_streams = num_streams
        self.events_processed = events_processed
        self.oom = oom
        #: evolved per-run memory plane (None when the plane has no memory)
        self.memory = memory
        #: retained pricing/residency inputs of the energy plane
        #: (:class:`repro.sim.energy.EnergyInputs`; None on legacy paths)
        self.energy_inputs = energy_inputs
        #: ``(time_s, per-bank warm bytes)`` at every occupancy change
        self.bank_occupancy_trajectory = (
            [] if bank_occupancy_trajectory is None else bank_occupancy_trajectory
        )
        #: the run's sorted record columns (the store behind every view)
        self.columns = columns
        self._timeline = timeline
        self._table = table
        self._timesliced = timesliced

    @property
    def timeline(self) -> Timeline:
        """The run's full resource :class:`~repro.hw.event.Timeline`."""
        if self._timeline is None:
            if self._table is None:
                self._timeline = Timeline()
            else:
                self._timeline = self._table.build_timeline(self._timesliced)
        return self._timeline

    def stream_summaries(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES, kind: str | None = None
    ) -> list[LatencySummary]:
        """One sojourn-time distribution summary per stream."""
        columns = self.columns
        # group once: a stable sort by stream keeps each stream's rows in
        # sorted-record order (the float-order rule of ``_summarize``)
        rows = self._rows(None, kind)
        streams = columns.stream[rows]
        order = np.argsort(streams, kind="stable")
        rows = rows[order]
        bounds = np.searchsorted(
            streams[order], np.arange(self.num_streams + 1)
        ).tolist()
        summaries = []
        for stream in range(self.num_streams):
            group = rows[bounds[stream] : bounds[stream + 1]]
            summaries.append(
                _summarize(
                    f"stream {stream}",
                    columns,
                    group,
                    percentiles,
                    stream_index=stream,
                    session_id=int(columns.session[group[0]]) if group.size else None,
                )
            )
        return summaries

    def energy(self, model=None, window_s: float | None = None):
        """Per-resource busy/idle energy of this run.

        Returns an :class:`repro.sim.energy.EnergyReport` priced from
        the run's residency accumulators and served-job demand totals;
        ``window_s`` widens the accounting window (a fleet rollup prices
        each device over the fleet-wide span).  Both engines retain the
        same inputs, so the report is bit-identical across them.
        """
        if self.energy_inputs is None:
            raise ValueError(
                "this ScheduleResult carries no energy accounting inputs"
            )
        from repro.sim.energy import schedule_energy

        return schedule_energy(
            self, self.energy_inputs, model=model, window_s=window_s
        )


@dataclass
class _PricedStage:
    """One stream's per-job demands for one job kind, priced once.

    ``fetch_s`` carries the fetch priced at the stream's *registration*
    residency; with a memory plane the per-job fetch is re-priced at issue
    time from the session's current shard split via ``fetch_bytes_layer``
    and the warm/cold channel pricers.  ``solo_warm_s`` / ``solo_cold_s``
    bracket the job's no-queueing latency between a fully-promoted and a
    fully-demoted shard set — the admission controller's estimate inputs.

    ``tokens`` / ``flops`` / ``dram_bytes`` are the job's useful-work and
    traffic totals (vision included for frames), consumed by the energy
    plane's post-pass; ``solo_s`` is the no-queueing latency at the
    registration residency, the energy admission policy's sojourn
    primitive.
    """

    active: bool
    on_dre: bool
    overlaps: bool
    vision_s: float
    compute_s: float
    prediction_s: float
    fetch_s: float
    fetch_bytes_layer: float = 0.0
    warm_time_s: object = None
    cold_time_s: object = None
    solo_warm_s: float = 0.0
    solo_cold_s: float = 0.0
    tokens: int = 0
    flops: float = 0.0
    dram_bytes: float = 0.0
    solo_s: float = 0.0


class _Job:
    """Mutable in-flight state of one unit of work."""

    __slots__ = (
        "stream",
        "kind",
        "index",
        "arrival_s",
        "start_s",
        "timing",
        "pcie_wait_s",
        "dre_wait_s",
        "compute_wait_s",
        "remaining",
        "key",
        "admission",
    )

    def __init__(self, stream: int, kind: str, index: int, arrival_s: float, key: tuple):
        self.stream = stream
        self.kind = kind
        self.index = index
        self.arrival_s = arrival_s
        self.start_s = arrival_s
        self.timing: ContendedTiming | None = None
        self.pcie_wait_s = 0.0
        self.dre_wait_s = 0.0
        self.compute_wait_s = 0.0
        self.remaining = 0
        self.key = key
        self.admission = ADMIT


def _solo_latency(
    is_vrex: bool,
    overlaps: bool,
    vision_s: float,
    compute_s: float,
    prediction_s: float,
    fetch_s: float,
) -> float:
    """A job's no-queueing latency under the system's overlap rules.

    The admission controller's estimate primitive: the same per-stream
    overlap semantics as :func:`repro.sim.batched.contended_exposure`, but
    with empty shared queues (waits are estimated separately from the
    backlog the job would join).
    """
    if is_vrex:
        latency = max(compute_s, prediction_s + fetch_s)
    elif overlaps:
        latency = prediction_s + max(compute_s, fetch_s)
    else:
        latency = prediction_s + compute_s + fetch_s
    return vision_s + latency


@dataclass
class _RunContext:
    """One validated, fully priced scheduler run, ready for an engine.

    Both engines consume the same context, so any divergence between them
    is an event-mechanics bug, never a pricing one.
    """

    plane: BatchLatencyModel
    config: SchedulerConfig
    system: SystemConfig
    profiles: list[StreamProfile]
    traces: list[np.ndarray]
    question_arrivals: list[float | None]
    answers: list[int]
    device: object
    is_vrex: bool
    num_layers: int
    memory: ShardedKVHierarchy | None
    priced: list[dict[str, _PricedStage]]
    #: run-constant baseline / IO power rates the energy policy's
    #: marginal-J/token estimate charges
    baseline_w: float = 0.0
    io_w: float = 0.0


def admission_decision(
    ctx: _RunContext,
    stage: _PricedStage,
    session: int,
    backlog_jobs: int,
    compute_backlog_s: float,
    protected: Iterable[int],
) -> str:
    """Admit, evict-then-admit or defer one arriving job: the one rule.

    Both engines call this from ``submit`` under ``admission="residency"``
    or ``"energy"`` with their own reads of the queue state:
    ``backlog_jobs`` is the stream's own backlog (queued plus in flight),
    ``compute_backlog_s`` the shared compute backlog the job would join
    (timesliced policy only, else 0) and ``protected`` the sessions with a
    job in flight, whose shards are not eviction victims.

    **Residency.**  The estimate couples the stream's backlog (each queued
    job priced at the warm solo latency), the compute backlog and the
    job's own latency at the session's *current* shard residency.  If it
    busts the deadline but a full promotion — evicting colder unprotected
    shards — would bring it under, the promotion is planned once, applied,
    and the answer is ``EVICT``; otherwise ``DEFER`` (shed).

    **Energy.**  The marginal-energy estimate charges the device baseline
    over the sojourn the job would see — backlog priced at the solo
    latency, the compute backlog, plus the job's own solo latency — and
    the full-load IO power over its fetch, per useful token, and defers
    above ``energy_budget_j_per_token``.

    A job with nothing to estimate (inactive stage; no off-chip fetch
    bytes, resp. no tokens) always admits.
    """
    cfg = ctx.config
    if not stage.active:
        return ADMIT
    if cfg.admission == "energy":
        if stage.tokens <= 0:
            return ADMIT
        sojourn = backlog_jobs * stage.solo_s + compute_backlog_s + stage.solo_s
        marginal = (ctx.baseline_w * sojourn + ctx.io_w * stage.fetch_s) / stage.tokens
        return DEFER if marginal > cfg.energy_budget_j_per_token else ADMIT
    if stage.fetch_bytes_layer <= 0:
        return ADMIT
    memory = ctx.memory
    cold_frac = memory.cold_fraction(session)
    own = stage.solo_warm_s + cold_frac * (stage.solo_cold_s - stage.solo_warm_s)
    estimate = backlog_jobs * stage.solo_warm_s + compute_backlog_s + own
    if estimate <= cfg.deadline_s:
        return ADMIT
    if cold_frac > 0.0:
        warm_estimate = (backlog_jobs + 1) * stage.solo_warm_s + compute_backlog_s
        if warm_estimate > cfg.deadline_s:
            return DEFER  # not even a full promotion would save it
        plan = memory.plan_promotion(session, protected)
        if plan.promoted_bytes >= memory.cold_bytes(session) * (1.0 - 1e-9):
            memory.apply_promotion(plan)
            return EVICT
    return DEFER


class ServingScheduler:
    """Schedules stochastic per-stream arrivals onto one shared system.

    Wraps a :class:`BatchLatencyModel` for demand pricing; the scheduler
    itself owns only the event-time mechanics (stream slots, shared-queue
    FCFS order, deadlines, admission control) and keeps no prices between
    runs — every run reads the plane's value-keyed demand table, so
    schedulers sharing a plane share its warm entries and a profile edited
    in place is simply priced at its new values.  When the plane carries a
    memory plane (:class:`~repro.hw.memory.sharding.ShardedKVHierarchy`),
    each run partitions the fleet's KV shards across its banks, re-prices
    every job's fetch at the session's *current* residency, and — under
    ``admission="residency"`` — makes admit/defer/evict decisions that
    couple the queue-depth bound to bank occupancy and the compute backlog
    the stream would join.
    """

    def __init__(
        self,
        plane: BatchLatencyModel | None = None,
        config: SchedulerConfig | None = None,
        engine: str = "array",
    ):
        self.plane = plane or BatchLatencyModel()
        self.config = config or SchedulerConfig()
        #: "array" (struct-of-arrays fast path) or "reference" (original loop)
        self.engine = validate_engine(engine)

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validated_traces(
        frame_arrivals, num_streams: int
    ) -> list[np.ndarray]:
        traces = [np.asarray(trace, dtype=float) for trace in frame_arrivals]
        if len(traces) != num_streams:
            raise ValueError(
                f"expected one arrival trace per stream ({num_streams}), got {len(traces)}"
            )
        for stream, trace in enumerate(traces):
            if trace.ndim != 1:
                raise ValueError(f"arrival trace of stream {stream} must be 1-D")
        # one concatenated pass over all traces: per-stream numpy calls
        # dominate run setup at 1k+ streams
        lengths = np.array([trace.size for trace in traces], dtype=np.int64)
        if not lengths.any():
            return traces
        flat = np.concatenate([trace for trace in traces if trace.size])
        present = lengths > 0
        starts = np.concatenate([[0], np.cumsum(lengths[present])[:-1]])
        if np.any(flat[starts] < 0):
            bad = int(np.flatnonzero(present)[np.flatnonzero(flat[starts] < 0)[0]])
            raise ValueError(
                f"arrival trace of stream {bad} contains a negative time"
            )
        decreasing = np.zeros(flat.size, dtype=bool)
        decreasing[1:] = np.diff(flat) < 0
        decreasing[starts] = False  # stream boundaries are not steps
        if decreasing.any():
            bad_pos = int(np.flatnonzero(decreasing)[0])
            bad = int(np.flatnonzero(present)[np.searchsorted(starts, bad_pos, "right") - 1])
            raise ValueError(
                f"arrival trace of stream {bad} must be nondecreasing"
            )
        return traces

    def _validated_arguments(
        self,
        profiles,
        frame_arrivals,
        question_arrivals,
        question_tokens,
        answer_tokens,
    ) -> tuple[list, list, list, list, list]:
        """Validate and broadcast one run's per-stream arguments.

        Returns ``(profiles, traces, question_arrivals, question_tokens,
        answer_tokens)``, each a per-stream list.

        The API boundary of :meth:`run` *and* of
        :meth:`repro.sim.fleet.FleetScheduler.run`, so hostile input is
        judged the same whatever the device count; every ``ValueError``
        names the caller's (global) stream index.
        """
        profiles = list(profiles)
        if not profiles:
            raise ValueError("a run needs at least one stream profile")
        num_streams = len(profiles)
        traces = self._validated_traces(frame_arrivals, num_streams)
        if question_arrivals is None:
            question_arrivals = [None] * num_streams
        else:
            question_arrivals = list(question_arrivals)
            if len(question_arrivals) != num_streams:
                raise ValueError(
                    f"expected one question arrival per stream ({num_streams}), "
                    f"got {len(question_arrivals)}"
                )
            for stream, at in enumerate(question_arrivals):
                if at is not None and at < 0:
                    raise ValueError(
                        f"question arrival of stream {stream} must be non-negative"
                    )
        if question_tokens is None:
            q_tokens: list[int | None] = [
                self.plane.base.streaming.question_tokens
            ] * num_streams
        else:
            q_tokens = _broadcast_per_stream(
                question_tokens, num_streams, "question_tokens", allow_none_entries=True
            )
        answers = self.plane._per_stream_counts(
            answer_tokens, 0, num_streams, "answer_tokens"
        )
        for stream, count in enumerate(answers):
            if count < 0:
                raise ValueError(f"answer_tokens of stream {stream} must be non-negative")
            if count > 0 and question_arrivals[stream] is None:
                raise ValueError(
                    f"stream {stream} has answer_tokens but no question arrival"
                )
        return profiles, traces, question_arrivals, q_tokens, answers

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #
    def run(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        frame_arrivals: Sequence[Sequence[float]],
        question_arrivals: Sequence[float | None] | None = None,
        question_tokens: int | Sequence[int | None] | None = None,
        answer_tokens: int | Sequence[int] | None = None,
    ) -> ScheduleResult:
        """Simulate a fleet's serving run and return its full schedule.

        ``frame_arrivals[i]`` is stream ``i``'s frame arrival-time trace
        (:mod:`repro.sim.arrivals` generates these; the profiles'
        ``arrival_offset_s`` is ignored — the traces carry the phases).
        ``question_arrivals[i]`` (optional, ``None`` entry = no question)
        schedules one question prefill per stream; a stream's
        ``answer_tokens`` generation jobs chain autoregressively after its
        question completes, interleaving with any queued frames.
        """
        profiles, traces, question_arrivals, q_tokens, answers = (
            self._validated_arguments(
                profiles, frame_arrivals, question_arrivals, question_tokens, answer_tokens
            )
        )
        num_streams = len(profiles)

        base = self.plane.base
        device = base.device_for(system)
        is_vrex = isinstance(device, VRexAccelerator)
        num_layers = base.llm.model.num_layers
        vision_each, vision_cost = base._vision_time(system, 1)
        frame_overlaps = system.policy.overlap_fetch  # FRAME_STAGE rule

        memory = self.plane._memory_for(system, profiles)
        if self.config.admission == "residency" and memory is None:
            raise ValueError(
                "admission='residency' requires a BatchLatencyModel built with "
                "a memory plane (ShardedKVHierarchy)"
            )
        spec = system.device
        if spec.kind == "vrex":
            breakdown = base.energy.vrex_system_power(spec.num_cores)
            baseline_w = breakdown.compute_w + breakdown.dram_w
            io_w = base.energy.io_full_load_w(spec.num_cores)
        else:
            baseline_w = spec.power_w
            io_w = 0.0

        priced = self._priced_stages(
            system,
            profiles,
            q_tokens,
            memory,
            is_vrex,
            num_layers,
            vision_each,
            vision_cost,
            frame_overlaps,
        )
        ctx = _RunContext(
            plane=self.plane,
            config=self.config,
            system=system,
            profiles=profiles,
            traces=traces,
            question_arrivals=question_arrivals,
            answers=answers,
            device=device,
            is_vrex=is_vrex,
            num_layers=num_layers,
            memory=memory,
            priced=priced,
            baseline_w=baseline_w,
            io_w=io_w,
        )
        if self.engine == "reference":
            return self._run_reference(ctx)
        from repro.sim.engine import run_array  # deferred: the engine imports us

        return run_array(ctx)

    # ------------------------------------------------------------------ #
    # demand pricing (shared by both engines)
    # ------------------------------------------------------------------ #
    def _priced_stages(
        self,
        system: SystemConfig,
        profiles: list[StreamProfile],
        q_tokens: list[int | None],
        memory: ShardedKVHierarchy | None,
        is_vrex: bool,
        num_layers: int,
        vision_each: float,
        vision_cost,
        frame_overlaps: bool,
    ) -> list[dict[str, _PricedStage]]:
        plane = self.plane

        def price(q_lens, stage: str, vision_s: float, overlaps: bool, vision_work=None) -> list[_PricedStage]:
            """One job kind's priced stage per stream, off the plane's demand table."""
            demands = plane._stream_demands(system, profiles, q_lens, stage, memory)
            stages = []
            for profile, (entry, fetch_layer), q_len in zip(profiles, demands, q_lens, strict=True):
                if entry is None:
                    stages.append(_PricedStage(False, False, overlaps, 0.0, 0.0, 0.0, 0.0))
                    continue
                compute_s = entry.compute_layer_s * num_layers
                prediction_s = entry.prediction_layer_s * num_layers
                flops = entry.compute_cost.flops * num_layers
                dram_bytes = entry.compute_cost.dram_bytes * num_layers
                if vision_work is not None:
                    flops += vision_work.flops
                    dram_bytes += vision_work.dram_bytes
                priced_stage = _PricedStage(
                    active=True,
                    on_dre=entry.on_dre,
                    overlaps=overlaps,
                    vision_s=vision_s,
                    compute_s=compute_s,
                    prediction_s=prediction_s,
                    fetch_s=fetch_layer * num_layers,
                    tokens=int(q_len),
                    flops=flops,
                    dram_bytes=dram_bytes,
                )
                priced_stage.solo_s = _solo_latency(
                    is_vrex, overlaps, vision_s, compute_s, prediction_s, priced_stage.fetch_s
                )
                if memory is not None and entry.fetch_bytes > 0:
                    priced_stage.fetch_bytes_layer = entry.fetch_bytes
                    priced_stage.warm_time_s = entry.warm_time_s
                    priced_stage.cold_time_s = entry.cold_time_s
                    warm_fetch = (
                        sharded_fetch_makespan(
                            entry.fetch_bytes,
                            memory.home_split(profile.session_id),
                            entry.warm_time_s,
                            entry.cold_time_s,
                        )
                        * num_layers
                    )
                    cold_fetch = entry.cold_time_s(entry.fetch_bytes) * num_layers
                    priced_stage.solo_warm_s = _solo_latency(
                        is_vrex, overlaps, vision_s, compute_s, prediction_s, warm_fetch
                    )
                    priced_stage.solo_cold_s = _solo_latency(
                        is_vrex, overlaps, vision_s, compute_s, prediction_s, cold_fetch
                    )
                stages.append(priced_stage)
            return stages

        num_streams = len(profiles)
        frames = price(
            [plane.base.llm.model.tokens_per_frame] * num_streams,
            FRAME_STAGE,
            vision_each,
            frame_overlaps,
            vision_work=vision_cost,
        )
        questions = price(q_tokens, FRAME_STAGE, 0.0, frame_overlaps)
        generations = price([1] * num_streams, GENERATION_STAGE, 0.0, True)
        return [
            {FRAME_JOB: frame, QUESTION_JOB: question, GENERATION_JOB: generation}
            for frame, question, generation in zip(frames, questions, generations, strict=True)
        ]

    # ------------------------------------------------------------------ #
    # the reference engine (executable spec of the event mechanics)
    # ------------------------------------------------------------------ #
    def _run_reference(self, ctx: _RunContext) -> ScheduleResult:
        cfg = ctx.config
        system = ctx.system
        profiles = ctx.profiles
        traces = ctx.traces
        question_arrivals = ctx.question_arrivals
        answers = ctx.answers
        device = ctx.device
        is_vrex = ctx.is_vrex
        num_layers = ctx.num_layers
        memory = ctx.memory
        priced = ctx.priced
        admission_rule = cfg.admission != "backlog"
        num_streams = len(profiles)

        loop = EventLoop()
        dre = ResourceQueue("dre")
        link = PCIeLinkQueue(device.link)
        timesliced = cfg.compute == "timesliced"
        compute_server = (
            PreemptiveResource(
                loop,
                "compute",
                quantum_s=cfg.quantum_s,
                priority=PRIO_COMPLETE,
                record=False,
            )
            if timesliced
            else None
        )
        slots = [
            ReleasableResource(f"stream{stream}", record=False)
            for stream in range(num_streams)
        ]
        # time-sliced stages: the one stage core, by stream, and the job each holds
        stages = StageCore(is_vrex, num_streams)
        staged: list[_Job | None] = [None] * num_streams
        timeline = Timeline()
        rows: list[tuple] = []  # one per record, in RecordColumns.FIELDS order
        trajectory: list[tuple[float, tuple[float, ...]]] = []

        def note_occupancy() -> None:
            occupancy = memory.occupancy_snapshot()
            if not trajectory or trajectory[-1][1] != occupancy:
                trajectory.append((loop.now_s, occupancy))

        if memory is not None:
            note_occupancy()  # registration-time state at t=0

        def busy_sessions(excluding: int) -> Iterator[int]:
            """Sessions with a job in flight (their shards are not victims).

            Lazy: the memory plane only walks it when a promotion is planned.
            """
            return (
                profiles[stream].session_id
                for stream in range(num_streams)
                if stream != excluding and slots[stream].busy
            )

        def record(job: _Job, finish_s: float, dropped: bool) -> None:
            rows.append(
                (
                    job.stream,
                    profiles[job.stream].session_id,
                    _KIND_CODES[job.kind],
                    job.index,
                    job.arrival_s,
                    job.start_s,
                    finish_s,
                    dropped,
                    _ADMISSION_CODES[job.admission],
                    job.pcie_wait_s,
                    job.dre_wait_s,
                    job.compute_wait_s,
                )
            )

        def submit(job: _Job) -> None:
            slot = slots[job.stream]
            if (
                cfg.max_queue_depth is not None
                and slot.busy
                and slot.queue_depth >= cfg.max_queue_depth
            ):
                job.admission = BACKLOG_DROP
                record(job, job.arrival_s, dropped=True)
                return
            if admission_rule:
                job.admission = admission_decision(
                    ctx,
                    priced[job.stream][job.kind],
                    profiles[job.stream].session_id,
                    slot.queue_depth + (1 if slot.busy else 0),
                    compute_server.backlog_s() if compute_server is not None else 0.0,
                    busy_sessions(excluding=job.stream),
                )
                if job.admission == DEFER:
                    record(job, job.arrival_s, dropped=True)
                    return
                if job.admission == EVICT:
                    note_occupancy()
            slot.acquire(loop.now_s, lambda grant, job=job: begin(job, grant.start_s))

        def begin(job: _Job, start_s: float) -> None:
            job.start_s = start_s
            stage = priced[job.stream][job.kind]
            if not stage.active:
                finish(job, start_s)
                return
            loop.schedule(
                start_s + stage.vision_s,
                lambda job=job: issue(job),
                priority=PRIO_ISSUE,
                key=job.key,
            )

        def job_fetch_s(job: _Job) -> float:
            """Fetch time of one job at its session's *current* residency.

            Reads the split, commits the fetch (the session becomes
            most-recently-used and its cold shards promote back into their
            home banks), and prices the fan-out across banks plus the
            cold SSD stream.  Without a memory plane this is the priced
            stage fetch unchanged.
            """
            stage = priced[job.stream][job.kind]
            if memory is None or stage.fetch_bytes_layer <= 0:
                return stage.fetch_s
            session = profiles[job.stream].session_id
            split = memory.commit_fetch(
                session, protected=busy_sessions(excluding=job.stream)
            )
            note_occupancy()
            return (
                sharded_fetch_makespan(
                    stage.fetch_bytes_layer, split, stage.warm_time_s, stage.cold_time_s
                )
                * num_layers
            )

        def job_name(job: _Job) -> str:
            return f"s{profiles[job.stream].session_id}/{job.kind}{job.index}"

        def issue(job: _Job) -> None:
            stage = priced[job.stream][job.kind]
            fetch_s = job_fetch_s(job)
            name = job_name(job)
            if stage.vision_s > 0:
                timeline.add(name, f"vision:s{job.stream}", job.start_s, stage.vision_s)
            if timesliced:
                staged[job.stream] = job
                issue_stage(
                    job.stream,
                    job.key,
                    stage.overlaps,
                    stage.on_dre,
                    stage.compute_s,
                    stage.prediction_s,
                    fetch_s,
                )
                return
            timing = job.timing = contended_issue_timing(
                is_vrex=is_vrex,
                overlaps=stage.overlaps,
                on_dre=stage.on_dre,
                start_s=loop.now_s,
                compute_s=stage.compute_s,
                prediction_s=stage.prediction_s,
                fetch_s=fetch_s,
                dre_queue=dre,
            )
            job.dre_wait_s = timing.dre_wait_s
            if stage.compute_s > 0:
                timeline.add(name, f"compute:s{job.stream}", timing.start_s, stage.compute_s)
            if stage.on_dre and stage.prediction_s > 0:
                timeline.add(
                    name, "dre", timing.start_s + timing.dre_wait_s, stage.prediction_s
                )
            if stage.fetch_s > 0:
                loop.schedule(
                    timing.request_s,
                    lambda job=job: request_link(job),
                    priority=PRIO_LINK,
                    key=job.key,
                )
            else:
                resolve(job, None)

        def stage_resolved(stream: int) -> None:
            job = staged[stream]
            job.compute_wait_s = stages.compute_wait_s[stream]
            job.pcie_wait_s = stages.pcie_wait_s[stream]
            job.dre_wait_s = stages.dre_wait_s[stream]
            name = job_name(job)
            submit_s = stages.compute_submit_s[stream]
            if stages.compute_s[stream] > 0:
                # One span on the shared lane per job; the round-robin slices
                # of concurrent jobs interleave inside their spans.
                timeline.add(name, "compute", submit_s, stages.compute_finish_s[stream] - submit_s)
            prediction_s = stages.prediction_s[stream]
            if priced[stream][job.kind].on_dre and prediction_s > 0:
                dre_start_s = stages.prediction_end_s[stream] - prediction_s
                timeline.add(name, "dre", dre_start_s, prediction_s)
            if stages.fetch_s[stream] > 0:
                timeline.add(name, "pcie", stages.transfer_start_s[stream], stages.fetch_s[stream])
            schedule_finish(job, stages.finish_s[stream])

        issue_stage = stage_driver(stages, loop, compute_server, dre, link, stage_resolved)

        def request_link(job: _Job) -> None:
            transfer = link.enqueue(loop.now_s, job.timing.fetch_s)
            job.pcie_wait_s = transfer.wait_s
            timeline.add(job_name(job), "pcie", transfer.start_s, transfer.service_s)
            resolve(job, transfer)

        def resolve(job: _Job, transfer) -> None:
            latency, _, _ = contended_exposure(
                is_vrex=is_vrex,
                overlaps=priced[job.stream][job.kind].overlaps,
                timing=job.timing,
                transfer=transfer,
            )
            schedule_finish(job, job.timing.start_s + latency)

        def schedule_finish(job: _Job, finish_s: float) -> None:
            """Both compute policies end a job the same way: one completion event."""
            loop.schedule(
                finish_s,
                lambda: finish(job, finish_s),
                priority=PRIO_COMPLETE,
                key=job.key,
            )

        def finish(job: _Job, finish_s: float) -> None:
            record(job, finish_s, dropped=False)
            slots[job.stream].release(finish_s)
            if job.kind == QUESTION_JOB and answers[job.stream] > 0:
                chain = _Job(job.stream, GENERATION_JOB, 0, finish_s, job.key)
                chain.remaining = answers[job.stream] - 1
                submit(chain)
            elif job.kind == GENERATION_JOB and job.remaining > 0:
                chain = _Job(job.stream, GENERATION_JOB, job.index + 1, finish_s, job.key)
                chain.remaining = job.remaining - 1
                submit(chain)

        for stream, trace in enumerate(traces):
            key = (profiles[stream].session_id, stream)
            for frame_index, arrival in enumerate(trace):
                job = _Job(stream, FRAME_JOB, frame_index, float(arrival), key)
                loop.schedule(
                    float(arrival),
                    lambda job=job: submit(job),
                    priority=PRIO_ARRIVAL,
                    key=key,
                )
            at = question_arrivals[stream]
            if at is not None:
                job = _Job(stream, QUESTION_JOB, 0, float(at), key)
                loop.schedule(
                    float(at),
                    lambda job=job: submit(job),
                    priority=PRIO_ARRIVAL,
                    key=key,
                )
        loop.run()

        if loop._sanitize:
            # end-of-run drain: every slot acquire was released and the
            # preemptive server served every submitted job to completion
            for slot in slots:
                slot.assert_drained()
            if compute_server is not None:
                compute_server.assert_drained()

        return ScheduleResult(
            system=system.name,
            config=cfg,
            num_streams=num_streams,
            columns=RecordColumns.from_rows(rows, cfg.deadline_s),
            timeline=timeline,
            events_processed=loop.events_processed,
            oom=self.plane._batched_oom(system, profiles),
            memory=memory,
            bank_occupancy_trajectory=trajectory,
            energy_inputs=EnergyInputs(
                device=system.device,
                priced=priced,
                dre_busy_s=dre.busy_s(),
                link_busy_s=link.busy_s(),
            ),
        )
