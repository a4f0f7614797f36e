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

* every stream's frames/questions/generation tokens are **jobs** — dense
  ids of one :class:`repro.sim.jobtable.JobTable` — and a stream's jobs
  are serialized on its own pipeline slot (a frame holds the stream until
  its finish time emerges from the shared queues, later frames wait
  behind it); submit, admission, the slots, begin, finish and generation
  chaining are one lifecycle both engines drive
  (:func:`repro.sim.engine._job_lifecycle`);
* each job's demands are read once per stream and stage from the plane's
  demand table (:meth:`BatchLatencyModel._stream_demands`) — exactly the
  pricing the contended batched plane uses;
* ReSV prediction jobs serialize FCFS on the shared DRE and KV-fetch
  transfers on the shared PCIe link
  (:class:`repro.hw.memory.pcie.PCIeLinkQueue`), through the *same*
  :func:`repro.sim.batched.contended_issue` /
  :func:`repro.sim.batched.contended_latency` rule (private compute)
  and the same :class:`repro.sim.batched.StageCore` machine under the
  same :class:`repro.sim.batched.StageDriver` (time-sliced compute) as
  :meth:`BatchLatencyModel._contended_step` — so in the degenerate
  configuration (every stream's single frame arrives at its profile
  offset, no admission control) the scheduler reproduces the contended
  batched step *bit for bit* under private compute, and to one rounding
  step under time-sliced compute (its ``finish - arrival`` against the
  plane's ``vision + (finish - start)``);
* **admission control** drops frames when a stream's backlog exceeds
  ``max_queue_depth`` (upload throttling), or when the residency / energy
  policy's one rule (:func:`admission_decision`) defers them;
* every run logs a full :class:`repro.hw.event.Timeline` (per-stream
  compute lanes plus the shared ``dre`` and ``pcie`` resources) and
  records every job, from which :class:`ScheduleResult` reports exact
  per-stream and fleet sojourn-time percentiles and deadline-miss rates.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from repro.config import require_choice, require_number
from repro.hw.accelerator import VRexAccelerator
from repro.hw.event import EventLoop, PreemptiveResource, ResourceQueue, Timeline
from repro.hw.memory.pcie import PCIeLinkQueue
from repro.hw.memory.sharding import ShardedKVHierarchy, sharded_fetch_makespan
from repro.sim.batched import (
    DEFAULT_QUANTUM_S,
    MAX_Q_LEN,
    PRIO_ARRIVAL,
    PRIO_COMPLETE,
    PRIO_ISSUE,
    PRIO_LINK,
    BatchLatencyModel,
    StageCore,
    StageDriver,
    StreamProfile,
    _broadcast_per_stream,
    contended_issue,
    contended_latency,
    validate_compute_policy,
)
from repro.sim.energy import EnergyInputs
from repro.sim.jobtable import (
    ADM_DEFER,
    ADM_EVICT,
    ADMISSION_NAMES,
    KIND_GENERATION,
    KIND_NAMES,
    TL_COMPUTE,
    TL_DRE,
    TL_PCIE,
    TL_RECORD,
    TL_VISION,
    JobTable,
    RecordColumns,
)
from repro.sim.pipeline import FRAME_STAGE, GENERATION_STAGE, overlap_latency
from repro.sim.systems import SystemConfig

FRAME_JOB = "frame"
QUESTION_JOB = "question"
GENERATION_JOB = "generation"

#: public kind strings → the integer codes of the record columns
#: (:mod:`repro.sim.jobtable` owns the code → string tuples)
_KIND_CODES = {name: code for code, name in enumerate(KIND_NAMES)}

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


#: :class:`JobRecord`'s fields as record columns, in field order
_ROW_COLUMNS = (
    "stream", "session", "kind", "index", "arrival", "start", "finish",
    "dropped", "missed", "pcie_wait", "dre_wait", "compute_wait", "admission",
)  # fmt: skip


@dataclass(frozen=True, eq=False)
class RecordSequence(Sequence):
    """A run's :class:`JobRecord` rows, built from its record columns on access.

    Rows are built on access and never stored: each pass builds them
    again (4 096 per batch), ``reversed()``/``index()`` slice thirteen
    columns per row, and ``len`` or a slice (a sequence over the sliced
    columns) builds none.  Equality follows a list of rows: sequences
    compare their thirteen columns element-wise, a sequence and a
    ``list`` compare row by row (either operand order), and a NaN field
    never compares equal — not even in a sequence compared with itself.
    """

    columns: RecordColumns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return RecordSequence(self.columns.take(key))
        position = range(len(self))[key]  # negative indices, IndexError
        return next(self._build(position, position + 1))

    def __iter__(self) -> Iterator[JobRecord]:
        for start in range(0, len(self), 4096):  # build rows a batch at a time
            yield from self._build(start, start + 4096)

    def _build(self, start: int, stop: int) -> Iterator[JobRecord]:
        fields = [getattr(self.columns, name)[start:stop].tolist() for name in _ROW_COLUMNS]
        fields[2] = map(KIND_NAMES.__getitem__, fields[2])
        fields[12] = map(ADMISSION_NAMES.__getitem__, fields[12])
        return map(JobRecord, *fields)

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordSequence):
            a, b = self.columns, other.columns
            return all(np.array_equal(getattr(a, n), getattr(b, n)) for n in _ROW_COLUMNS)
        if isinstance(other, list):
            return len(self) == len(other) and list(self) == other
        return NotImplemented


def _summarize(
    labels: list[dict],
    columns: RecordColumns,
    rows: np.ndarray,
    bounds: Sequence[int],
    percentiles: Sequence[float],
) -> list[LatencySummary]:
    """Sojourn-time distribution of every group of records, in one pass.

    The one summariser behind every stream, device and fleet summary:
    group ``g`` is the records at positions ``rows[bounds[g]:bounds[g +
    1]]``, labelled by ``labels[g]`` (``scope``, and a stream's ids).
    Percentiles are ``np.percentile``'s ``linear`` rule vectorised over
    the groups: each value-sorted group is read at ``(n - 1) * q / 100``
    and blended with the next value as numpy's ``_lerp`` does (``a + d *
    g``, or ``b - d * (1 - g)`` once ``g >= 0.5``).

    **Float-order rule.**  ``np.mean`` is order-sensitive, so each group's
    mean (and max) reduces its served sojourns in *sorted-record order*:
    a group's ``rows`` ascend, over columns sorted by ``(finish, stream,
    index)``.  A mask or a stable group-by of the sorted columns keeps
    that order; re-sorting, or selecting one device's rows out of a
    fleet-wide merge, does not — a device's group is its own sorted
    columns.  Any refactor that keeps the value sequence keeps every
    figure bit for bit.
    """
    for q in percentiles:
        require_number("percentiles", q, maximum=100)
    served = ~columns.dropped[rows]
    served_rows = rows[served]
    # group g's served records are served_rows[starts[g]:starts[g + 1]]
    starts = np.concatenate(([0], np.cumsum(served)))[bounds]
    missed = np.concatenate(([0], np.cumsum(columns.missed[served_rows])))[starts]
    sojourns = columns.finish[served_rows] - columns.arrival[served_rows]
    counts = np.diff(starts)
    full = counts > 0
    first = starts[:-1][full]
    ordered = sojourns.copy()  # each group's sojourns, sorted by value in place
    means = []
    for start, stop in zip(first.tolist(), starts[1:][full].tolist()):
        means.append(sojourns[start:stop].mean())
        ordered[start:stop].sort()
    mean_ms, max_ms = np.full((2, len(counts)), np.nan)
    mean_ms[full] = np.array(means) * 1e3
    max_ms[full] = np.maximum.reduceat(sojourns, first) * 1e3

    n, first = counts[full, None], first[:, None]
    index = (n - 1) * (np.asarray(percentiles, dtype=float) / 100)
    above = index >= n - 1  # numpy reads the last value there ...
    lower = np.where(above, -1.0, np.floor(index))  # ... weighted from index -1
    gamma = index - lower
    a = ordered[first + np.where(above, n - 1, lower.astype(np.intp))]
    b = ordered[first + np.where(above, n - 1, lower.astype(np.intp) + 1)]
    value = np.where(gamma >= 0.5, b - (b - a) * (1 - gamma), a + (b - a) * gamma)
    last = ordered[first + n - 1]  # numpy: a group holding a NaN reads NaN
    pct_ms = np.full((len(counts), index.shape[1]), np.nan)
    pct_ms[full] = np.where(np.isnan(last), last, value) * 1e3

    keys = [f"p{q:g}" for q in percentiles]
    return [
        LatencySummary(
            **label,
            jobs=jobs,
            served=count,
            dropped=jobs - count,
            percentiles_ms=dict(zip(keys, pct)),
            mean_ms=mean,
            max_ms=peak,
            deadline_miss_rate=miss / count if count else 0.0,
            drop_rate=(jobs - count) / jobs if jobs else 0.0,
        )
        for label, jobs, count, miss, pct, mean, peak in zip(
            labels, np.diff(bounds).tolist(), counts.tolist(), np.diff(missed).tolist(),
            pct_ms.tolist(), mean_ms.tolist(), max_ms.tolist(),
        )  # fmt: skip
    ]


class RecordViews:
    """Record views and statistics over a ``columns`` attribute.

    :class:`~repro.sim.jobtable.RecordColumns` is the only stored form of
    a run's job records; :class:`ScheduleResult` and
    :class:`repro.sim.fleet.FleetResult` inherit every figure from here,
    computed on the columns by one grouped summariser (:func:`_summarize`
    and its float-order rule).  :attr:`records` is a
    :class:`RecordSequence`: rows are built on access, never stored.
    """

    columns: RecordColumns

    @property
    def records(self) -> RecordSequence:
        """The run's :class:`JobRecord` rows, sorted by (finish, stream, index)."""
        return RecordSequence(self.columns)

    def jobs(
        self, stream_index: int | None = None, kind: str | None = None
    ) -> list[JobRecord]:
        """Records filtered by stream and/or job kind (dropped included)."""
        return list(RecordSequence(self.columns.take(self._rows(stream_index, kind))))

    def _rows(self, stream_index: int | None, kind: str | None) -> np.ndarray:
        """Positions of the selected records (dropped included), ascending."""
        columns = self.columns
        selected = np.ones(len(columns), dtype=bool)
        if stream_index is not None:
            selected &= columns.stream == stream_index
        if kind is not None:
            selected &= columns.kind == _KIND_CODES[require_choice("kind", kind, KIND_NAMES)]
        return np.flatnonzero(selected)

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
        rows = self._rows(None, kind)
        return _summarize([{"scope": "fleet"}], self.columns, rows, [0, len(rows)], percentiles)[0]


class ScheduleResult(RecordViews):
    """Everything one scheduler run produced.

    Both engines hand over the run's sorted
    :class:`~repro.sim.jobtable.RecordColumns` — the store every statistic
    reads; dataclass rows are built on access — and the run's
    finalized :class:`~repro.sim.jobtable.JobTable` (numpy columns and the
    packed log :attr:`timeline` is built from on first access).  The
    engine-equivalence tests pin the two engines' columns equal, column
    by column.
    """

    def __init__(
        self,
        system: str,
        config: SchedulerConfig,
        num_streams: int,
        columns: RecordColumns,
        events_processed: int = 0,
        oom: bool = False,
        memory: ShardedKVHierarchy | None = None,
        bank_occupancy_trajectory: list[tuple[float, tuple[float, ...]]] | None = None,
        table: JobTable | None = None,
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
        self._table = table
        self._timesliced = timesliced

    @cached_property
    def timeline(self) -> Timeline:
        """The run's full resource :class:`~repro.hw.event.Timeline`."""
        return self._table.build_timeline(self._timesliced)

    def stream_summaries(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES, kind: str | None = None
    ) -> list[LatencySummary]:
        """One sojourn-time distribution summary per stream."""
        # group once: a stable sort by stream keeps each stream's rows in
        # sorted-record order (the float-order rule of ``_summarize``);
        # on 8- and 16-bit keys numpy's stable sort is a radix sort
        rows = self._rows(None, kind)
        streams = self.columns.stream[rows].astype(np.min_scalar_type(self.num_streams))
        order = np.argsort(streams, kind="stable")
        rows = rows[order]
        bounds = np.searchsorted(streams[order], np.arange(self.num_streams + 1)).tolist()
        ids = self.columns.session[rows].tolist()
        labels = [
            {"scope": f"stream {s}", "stream_index": s, "session_id": ids[lo] if lo < hi else None}
            for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        return _summarize(labels, self.columns, rows, bounds, percentiles)

    def energy(self, model=None):
        """Per-resource busy/idle energy of this run.

        Returns an :class:`repro.sim.energy.EnergyReport` priced from
        the run's residency accumulators and served-job demand totals
        over the run's own span.  Both engines retain the same inputs, so
        the report is bit-identical across them.
        """
        if self.energy_inputs is None:
            raise ValueError(
                "this ScheduleResult carries no energy accounting inputs"
            )
        from repro.sim.energy import schedule_energy

        return schedule_energy(self, self.energy_inputs, model=model)


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
        present = np.flatnonzero(lengths)
        starts = np.concatenate([[0], np.cumsum(lengths[present])[:-1]])

        def first_stream(bad: np.ndarray) -> int:
            """The stream holding the first flagged entry of ``flat``."""
            position = int(np.flatnonzero(bad)[0])
            return int(present[np.searchsorted(starts, position, "right") - 1])

        # NaN fails every comparison below, so it must be caught first
        finite = np.isfinite(flat)
        if not finite.all():
            raise ValueError(
                f"arrival trace of stream {first_stream(~finite)} contains a non-finite time"
            )
        negative = flat[starts] < 0  # nondecreasing below, so first times suffice
        if negative.any():
            raise ValueError(
                f"arrival trace of stream {int(present[np.flatnonzero(negative)[0]])} "
                "contains a negative time"
            )
        decreasing = np.zeros(flat.size, dtype=bool)
        decreasing[1:] = np.diff(flat) < 0
        decreasing[starts] = False  # stream boundaries are not steps
        if decreasing.any():
            raise ValueError(
                f"arrival trace of stream {first_stream(decreasing)} must be nondecreasing"
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
                if at is None:
                    continue
                name = f"question arrival of stream {stream}"
                if isinstance(at, bool) or not isinstance(at, numbers.Real):
                    raise ValueError(f"{name} must be a real number or None, got {at!r}")
                require_number(name, at, finite=True)
        if question_tokens is None:
            q_tokens: list[int | None] = [
                self.plane.base.streaming.question_tokens
            ] * num_streams
        else:
            q_tokens = _broadcast_per_stream(
                question_tokens,
                num_streams,
                "question_tokens",
                allow_none_entries=True,
                maximum=MAX_Q_LEN,
            )
        answers = self.plane._per_stream_counts(
            answer_tokens, 0, num_streams, "answer_tokens"
        )
        for stream, count in enumerate(answers):
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
                # the admission controller's no-queueing estimates: waits are
                # estimated separately from the backlog the job would join
                priced_stage.solo_s = vision_s + overlap_latency(
                    is_vrex, overlaps, compute_s, prediction_s, priced_stage.fetch_s
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
                    priced_stage.solo_warm_s = vision_s + overlap_latency(
                        is_vrex, overlaps, compute_s, prediction_s, warm_fetch
                    )
                    priced_stage.solo_cold_s = vision_s + overlap_latency(
                        is_vrex, overlaps, compute_s, prediction_s, cold_fetch
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
        from repro.sim.engine import _job_lifecycle  # deferred: the engine imports us

        cfg = ctx.config
        system = ctx.system
        profiles = ctx.profiles
        is_vrex = ctx.is_vrex
        num_layers = ctx.num_layers
        memory = ctx.memory
        priced = ctx.priced
        num_streams = len(profiles)

        loop = EventLoop()
        dre = ResourceQueue("dre")
        link = PCIeLinkQueue(ctx.device.link)
        timesliced = cfg.compute == "timesliced"
        compute_server = PreemptiveResource(
            loop, "compute", quantum_s=cfg.quantum_s, priority=PRIO_COMPLETE
        )
        session_ids = [profile.session_id for profile in profiles]
        table = JobTable(ctx.traces, ctx.question_arrivals, ctx.answers, session_ids)
        streams = table.streams
        kinds = table.kinds
        keys = [(session, stream) for stream, session in enumerate(session_ids)]
        start = table.start
        dre_wait = table.dre_wait
        pcie_wait = table.pcie_wait
        tl_pack = TL_RECORD.pack
        tl_extend = table.timeline_log.extend
        # private compute, per job: (start_s, prediction_end_s, request_s, fetch_s)
        timing: list[tuple[float, float, float, float] | None] = [None] * table.num_jobs
        # time-sliced stages: the one stage core, by stream, and the job each holds
        stages = StageCore(is_vrex, num_streams)
        staged = [-1] * num_streams

        def schedule_issue(job: int, t: float) -> None:
            loop.schedule(t, partial(issue, job), priority=PRIO_ISSUE, key=keys[streams[job]])

        submit, finish, resolved, fetch_split, close = _job_lifecycle(
            ctx, table, compute_server, stages, schedule_issue
        )

        def stage_of(job: int) -> _PricedStage:
            return priced[streams[job]][KIND_NAMES[kinds[job]]]

        def job_fetch_s(job: int) -> float:
            """Fetch time of one job at its session's *current* residency.

            Commits the fetch (the session becomes most-recently-used and
            its cold shards promote back into their home banks), and prices
            the fan-out across banks plus the cold SSD stream.  Without a
            memory plane this is the priced stage fetch unchanged.
            """
            stage = stage_of(job)
            if memory is None or stage.fetch_bytes_layer <= 0:
                return stage.fetch_s
            split = fetch_split(streams[job], loop.now_s)
            return (
                sharded_fetch_makespan(
                    stage.fetch_bytes_layer, split, stage.warm_time_s, stage.cold_time_s
                )
                * num_layers
            )

        def issue(job: int) -> None:
            stage = stage_of(job)
            stream = streams[job]
            fetch_s = job_fetch_s(job)
            if stage.vision_s > 0:
                tl_extend(tl_pack(job, TL_VISION, start[job], stage.vision_s))
            if timesliced:
                staged[stream] = job
                issue_stage(
                    stream,
                    keys[stream],
                    stage.overlaps,
                    stage.on_dre,
                    stage.compute_s,
                    stage.prediction_s,
                    fetch_s,
                )
                return
            start_s = served_s = loop.now_s
            if is_vrex and stage.on_dre and stage.prediction_s > 0:
                served_s = dre.enqueue(start_s, stage.prediction_s).start_s
            prediction_end_s, request_s = contended_issue(
                is_vrex, stage.overlaps, start_s, served_s, stage.compute_s, stage.prediction_s
            )
            timing[job] = (start_s, prediction_end_s, request_s, fetch_s)
            dre_wait[job] = served_s - start_s
            if stage.compute_s > 0:
                tl_extend(tl_pack(job, TL_COMPUTE, start_s, stage.compute_s))
            if stage.on_dre and stage.prediction_s > 0:
                tl_extend(tl_pack(job, TL_DRE, start_s + dre_wait[job], stage.prediction_s))
            if stage.fetch_s > 0:
                loop.schedule(
                    request_s, partial(request_link, job), priority=PRIO_LINK, key=keys[stream]
                )
            else:
                resolve(job, None)

        def stage_resolved(stream: int) -> None:
            job = staged[stream]
            schedule_finish(job, resolved(job, stream))

        issue_stage = StageDriver(stages, loop, compute_server, dre, link, stage_resolved).issue

        def request_link(job: int) -> None:
            transfer = link.enqueue(loop.now_s, timing[job][3])
            pcie_wait[job] = transfer.wait_s
            tl_extend(tl_pack(job, TL_PCIE, transfer.start_s, transfer.service_s))
            resolve(job, transfer.finish_s)

        def resolve(job: int, fetch_end_s: float | None) -> None:
            stage = stage_of(job)
            start_s, prediction_end_s, request_s, _ = timing[job]
            latency, _, _ = contended_latency(
                is_vrex, stage.overlaps, start_s, stage.compute_s, stage.prediction_s,
                prediction_end_s, request_s, fetch_end_s,
            )
            schedule_finish(job, start_s + latency)

        def schedule_finish(job: int, finish_s: float) -> None:
            """Both compute policies end a job the same way: one completion event."""
            loop.schedule(
                finish_s,
                partial(finish, job, finish_s),
                priority=PRIO_COMPLETE,
                key=keys[streams[job]],
            )

        # arrivals in the table's id order: per stream, its frames, then its question
        arrival = table.arrival
        for job in range(table.num_jobs):
            if kinds[job] != KIND_GENERATION:
                at = arrival[job]
                loop.schedule(
                    at, partial(submit, job, at), priority=PRIO_ARRIVAL, key=keys[streams[job]]
                )
        loop.run()

        if loop._sanitize:
            # end-of-run drain: the preemptive server served every job to completion
            compute_server.assert_drained()
        columns, trajectory = close(loop._trace)
        return ScheduleResult(
            system=system.name,
            config=cfg,
            num_streams=num_streams,
            columns=columns,
            events_processed=loop.events_processed,
            oom=self.plane._batched_oom(system, profiles),
            memory=memory,
            bank_occupancy_trajectory=trajectory,
            table=table,
            timesliced=timesliced,
            energy_inputs=EnergyInputs(
                device=system.device,
                priced=priced,
                dre_busy_s=dre.busy_s(),
                link_busy_s=link.busy_s(),
            ),
        )
