"""Multi-device fleet plane: session routing over a priced interconnect.

Every plane below this one prices exactly *one* accelerator.
:class:`FleetScheduler` runs M of them side by side — each device owns its
own compute server, DRE, PCIe link and memory banks (a fresh clone of the
plane's :class:`~repro.hw.memory.sharding.ShardedKVHierarchy` per device,
exactly as a single-device run would build) — joined by a priced
inter-device link (:class:`~repro.hw.interconnect.InterconnectLink`), with
a front-end router that *places* each session on a device as its first
job arrives and — when enabled — re-homes sessions mid-run by work
stealing.

**Routing policies.**  Every arrival is known before routing starts, so
the router sorts all jobs once by the schedulers' event key — arrival,
then ``(session_id, stream)``, then position in the stream (a same-time
question follows its frames) — walks them in that order, and routes each
session (session ids must be distinct) at its first arrival:

* ``round_robin`` — the k-th arriving session lands on device ``k % M``;
  placement depends only on the arrival order of sessions, never on the
  profile list order (permutation-invariance is property-tested);
* ``least_loaded`` — the device with the smallest
  :meth:`FleetDevice.backlog_s` estimate at decision time (the FCFS
  work-estimate analogue of the single-device admission controller's
  compute backlog);
* ``power_of_two`` — classic power-of-two-choices: two *distinct*
  candidate devices drawn from a seeded RNG, the less loaded wins (ties
  to the lower index, so the decision is deterministic given the seed);
* ``kv_residency`` — sessions stay on their **home** device (where their
  KV shards already live) unless its backlog exceeds
  ``migrate_backlog_s``; only then does the session move to the least
  loaded device.  Sessions without a home fall back to ``least_loaded``.

**Live backlog accounting.**  :class:`FleetDevice` is a job-level FCFS
work estimator: each routed job enters the device's virtual server at its
own (clamp-adjusted) arrival and drains at its estimated completion, so
:meth:`FleetDevice.backlog_s` tracks the *remaining* estimated work — the
fleet analogue of :meth:`~repro.hw.event.PreemptiveResource.backlog_s`,
which property-pins it in the single-server case.  Jobs the device-side
admission controller would shed (queue-depth drops, residency deferrals)
are predicted at routing time and their work is credited back instead of
accumulating forever.  Idleness and steal-victim backlogs read the
device's horizon alone; finished jobs retire lazily, only where pending
counts or queue contents are read.  (The previous estimator charged a
session's whole solo work at first arrival and never released any of it,
so ``least_loaded``/``power_of_two``/``kv_residency`` decisions drifted
from the true device load as a run progressed.)

**Work stealing.**  With ``work_stealing`` on, a device that drains its
estimated backlog pulls the deepest-queued session — the one with the
most unstarted estimated work — from the most-backlogged device, provided
that victim's backlog exceeds ``steal_backlog_s``.  The stolen session's
unstarted jobs re-home to the thief; its in-service job finishes where it
started.  Every steal ships the session's full shard footprint across the
interconnect (see below), and the stolen jobs cannot start on the thief
before the transfer lands.  Stealing is provably inert when there is
nowhere to steal from: one device has no distinct victim, a session
mid-transfer is never re-stolen, and symmetric backlogs never exceed a
strictly-positive threshold gap.

**Migration pricing.**  A session placed *off* its home device — at
placement or by a steal — must ship its whole shard
footprint — hot window, offloaded KV shards, HC-table signatures, the
exact bytes :meth:`BatchLatencyModel.session_shard_bytes` says
registration installs — across the interconnect, FCFS behind other
migrations (transfers keep ship order; a pinned transfer head-of-line
blocks later decisions).  The session's re-homed jobs buffer at the
router until the transfer lands: their arrivals are clamped to the
transfer finish time before the device ever sees them.  Fleet-level
percentiles still measure sojourns from the *original* upload times, so
migration delay is charged to the migrated session's latency, not hidden.

**M=1 guarantee.**  A single-device fleet over the free interconnect
routes every session to device 0 with no migration, no clamping, no RNG
draw and no work estimation — the one device run *is* a plain
:class:`~repro.sim.scheduler.ServingScheduler` run, bit for bit (records,
intervals, summaries, event count), under both engines and regardless of
the steal knobs (with one device there is never a distinct victim).  The
fleet equivalence suite pins it.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

import numpy as np

from repro.config import require_choice, require_number
from repro.devtools.sanitizer import sanitize_enabled
from repro.hw.interconnect import FREE_INTERCONNECT, InterconnectLink, InterconnectSpec
from repro.sim.batched import BatchLatencyModel, StreamProfile
from repro.sim.jobtable import KIND_FRAME, KIND_QUESTION, RecordColumns
from repro.sim.scheduler import (
    DEFAULT_PERCENTILES,
    FRAME_JOB,
    QUESTION_JOB,
    LatencySummary,
    RecordViews,
    ScheduleResult,
    SchedulerConfig,
    ServingScheduler,
    _summarize,
)
from repro.sim.systems import SystemConfig

#: Session-placement policies of the fleet router.
ROUTER_POLICIES = ("round_robin", "least_loaded", "power_of_two", "kv_residency")

#: :attr:`MigrationRecord.reason` values: shipped at first placement or by
#: a work steal.
MIGRATE_PLACEMENT = "placement"
MIGRATE_STEAL = "steal"
MIGRATION_REASONS = (MIGRATE_PLACEMENT, MIGRATE_STEAL)

def validate_router_policy(router: str) -> str:
    """Return ``router`` or raise for a policy the fleet lacks."""
    return require_choice("router policy", router, ROUTER_POLICIES)


@dataclass(frozen=True)
class FleetConfig:
    """Device count, routing policy and interconnect of one fleet.

    ``seed`` feeds the ``power_of_two`` candidate draws (the only random
    choice in the plane — every other policy is a deterministic function
    of the arrival order).  ``migrate_backlog_s`` is the ``kv_residency``
    policy's patience: a session leaves its home device only when the
    home backlog estimate exceeds it (``inf`` never migrates).

    ``work_stealing`` arms the reactive steal path: a device whose
    estimated backlog drains to zero pulls the deepest-queued session
    from the most-backlogged device, but only while that victim's backlog
    exceeds ``steal_backlog_s`` (raise it to damp stealing; ``inf``
    disables it as surely as ``work_stealing=False``).  Every steal pays
    the full shard transfer and stealing is structurally inert at
    ``num_devices == 1``.
    """

    num_devices: int = 1
    router: str = "round_robin"
    interconnect: InterconnectSpec = FREE_INTERCONNECT
    seed: int = 0
    migrate_backlog_s: float = math.inf
    work_stealing: bool = False
    steal_backlog_s: float = 0.0

    def __post_init__(self) -> None:
        require_number("num_devices", self.num_devices, 1, integer=True)
        validate_router_policy(self.router)
        require_number("seed", self.seed, integer=True)
        require_number("migrate_backlog_s", self.migrate_backlog_s)
        require_choice("work_stealing", self.work_stealing, (False, True))
        require_number("steal_backlog_s", self.steal_backlog_s)


@dataclass(frozen=True)
class MigrationRecord:
    """One session's shard footprint shipped between devices.

    ``reason`` says why (:data:`MIGRATION_REASONS`): placed off its home
    at first arrival, or pulled by an idle device's work steal.
    ``jobs_moved`` counts the queued job estimates that re-homed with the
    shards — zero for placement migrations, where the whole session moves
    before any job runs.
    """

    session_id: int
    stream_index: int
    src_device: int
    dst_device: int
    num_bytes: float
    decision_s: float
    start_s: float
    finish_s: float
    reason: str = MIGRATE_PLACEMENT
    jobs_moved: int = 0


class _EstimatedJob:
    """One routed job inside a device's virtual FCFS server."""

    __slots__ = ("session", "stream", "kind", "index", "work_s", "release_s", "start_s", "finish_s")

    def __init__(
        self,
        session: int,
        stream: int,
        kind: str,
        index: int,
        work_s: float,
        release_s: float,
        start_s: float,
    ):
        self.session = session
        self.stream = stream
        self.kind = kind
        self.index = index
        self.work_s = work_s
        #: earliest the job could start (arrival, clamped to any shard
        #: transfer still in flight when it was routed here)
        self.release_s = release_s
        self.start_s = start_s
        self.finish_s = start_s + work_s


class FleetDevice:
    """Router-visible load state of one device: a virtual FCFS server.

    The router cannot see inside a device's future schedule (the
    per-device runs happen after routing), so it simulates the device as
    a single FCFS server over the jobs it has routed there: each job
    enters at its release time (arrival, clamped to any in-flight shard
    transfer), runs for its estimated solo work, and *leaves* at its
    estimated completion.  :meth:`backlog_s` reads the unfinished
    remainder — the fleet analogue of
    :meth:`~repro.hw.event.PreemptiveResource.backlog_s` (remaining work
    in a work-conserving single server is discipline-invariant, which is
    exactly what the property suite pins).

    This is the fix for the stale-accounting defect: the old estimator
    charged a session's entire solo work at first arrival and never
    credited any of it back, so a device that dropped, deferred or simply
    finished its work looked permanently busy to the router.  Here work
    drains as estimated jobs complete, predicted admission sheds are
    never charged (see :meth:`FleetScheduler._predicted_shed`), and
    :meth:`remove_unstarted` hands a stolen session's queued work back —
    the three paths that keep ``backlog_s`` live.

    Jobs serve in routing order: a job released while an earlier-routed
    transfer-pinned job still waits queues behind it, mirroring the
    interconnect's no-overtake ship discipline.
    """

    __slots__ = ("index", "busy_until_s", "queue", "_pending_jobs")

    def __init__(self, index: int):
        self.index = index
        self.busy_until_s = 0.0
        #: unfinished estimated jobs, FIFO in routing order
        self.queue: deque[_EstimatedJob] = deque()
        self._pending_jobs: dict[int, int] = {}

    def advance(self, now_s: float) -> None:
        """Retire every estimated job that completes by ``now_s``."""
        queue = self.queue
        pending = self._pending_jobs
        while queue and queue[0].finish_s <= now_s:
            job = queue.popleft()
            remaining = pending[job.session] - 1
            if remaining:
                pending[job.session] = remaining
            else:
                del pending[job.session]

    def backlog_s(self, now_s: float) -> float:
        """Estimated unserved work queued on this device at ``now_s``."""
        self.advance(now_s)
        return max(0.0, self.busy_until_s - now_s)

    def add_job(
        self,
        session: int,
        stream: int,
        kind: str,
        index: int,
        release_s: float,
        work_s: float,
    ) -> None:
        """Route one job here; it joins the virtual server FCFS.

        Deliberately does *not* advance the clock: a transfer-pinned job
        releases in the future, and advancing to its release would
        prematurely retire other sessions' still-running jobs from the
        pending/steal bookkeeping.  Retirement stays lazy, driven by the
        query methods' actual ``now``.
        """
        start_s = max(self.busy_until_s, release_s)
        job = _EstimatedJob(session, stream, kind, index, work_s, release_s, start_s)
        self.busy_until_s = job.finish_s
        self.queue.append(job)
        self._pending_jobs[session] = self._pending_jobs.get(session, 0) + 1

    def pending_jobs(self, session: int) -> int:
        """Unfinished estimated jobs of ``session`` on this device."""
        return self._pending_jobs.get(session, 0)

    def unstarted_by_session(self, now_s: float) -> dict[int, float]:
        """Unstarted estimated work per session at ``now_s`` (movable mass)."""
        self.advance(now_s)
        totals: dict[int, float] = {}
        for job in self.queue:
            if job.start_s > now_s:
                totals[job.session] = totals.get(job.session, 0.0) + job.work_s
        return totals

    def remove_unstarted(self, session: int, now_s: float) -> list[_EstimatedJob]:
        """Hand back the session's unstarted jobs; compact the server.

        The in-service job (there is at most one: starts are
        nondecreasing in FIFO order) finishes where it is; every job
        behind the removed ones re-schedules at
        ``max(release, previous finish)``, so the credit is exact — the
        device's horizon contracts by precisely the removed work minus
        any idle gaps the removal opens.
        """
        self.advance(now_s)
        removed: list[_EstimatedJob] = []
        kept: deque[_EstimatedJob] = deque()
        finish_prev = now_s
        for job in self.queue:
            if job.session == session and job.start_s > now_s:
                removed.append(job)
                continue
            if job.start_s > now_s:
                job.start_s = max(job.release_s, finish_prev)
                job.finish_s = job.start_s + job.work_s
            finish_prev = job.finish_s
            kept.append(job)
        if removed:
            self.queue = kept
            self.busy_until_s = finish_prev
            remaining = self._pending_jobs[session] - len(removed)
            if remaining:
                self._pending_jobs[session] = remaining
            else:
                del self._pending_jobs[session]
        return removed


@dataclass
class DeviceRun:
    """One device's slice of the fleet and its completed schedule."""

    device: int
    #: global stream indices served by this device, in original list order
    stream_indices: list[int]
    #: the device's own :class:`ScheduleResult` (``None`` for an idle device)
    schedule: ScheduleResult | None
    #: the schedule's record columns in fleet terms — global stream
    #: indices, original frame indices, re-homed jobs' arrivals restored
    #: to the upload times (``None`` for an idle device)
    columns: RecordColumns | None = None

    @property
    def num_streams(self) -> int:
        return len(self.stream_indices)


@dataclass
class _RoutingPlan:
    """Everything the routing pass decided, per job."""

    devices: list[FleetDevice]
    link: InterconnectLink
    migrations: list[MigrationRecord]
    #: session id → final device (where its shards ended up)
    current: dict[int, int]
    #: per stream: device index per frame (-1 unrouted), and the shard
    #: transfer finish each frame's arrival clamps to (0.0 unclamped)
    frame_device: list[np.ndarray]
    frame_ready: list[np.ndarray]
    question_device: list[int]
    question_ready: list[float]
    #: streams with no jobs at all, placed for registration only
    idle_placement: dict[int, int]
    #: jobs the router predicted the device admission controller would
    #: shed (their work was credited back, never charged)
    predicted_sheds: int


class FleetResult(RecordViews):
    """Everything one fleet run produced.

    Per-device :class:`ScheduleResult`\\ s stay accessible verbatim under
    :attr:`devices`; the fleet-level record views and statistics
    (:attr:`records`, :meth:`fleet_summary`, :attr:`served`, … — the same
    :class:`~repro.sim.scheduler.RecordViews` a single scheduler run
    exposes) read :attr:`columns`, the devices' record columns merged
    with migrated sessions' sojourns measured from their *original*
    arrivals.  With one device :attr:`columns` *is* the device's own
    store — the M=1 bit-exactness guarantee.
    """

    def __init__(
        self,
        system: str,
        config: SchedulerConfig,
        fleet: FleetConfig,
        devices: list[DeviceRun],
        placement: dict[int, int],
        stream_devices: list[int],
        migrations: list[MigrationRecord],
        interconnect: InterconnectLink,
        predicted_sheds: int = 0,
    ):
        self.system = system
        self.config = config
        self.fleet = fleet
        self.devices = devices
        #: session id → device index holding its shards at run end (feed
        #: back as ``home_devices`` to keep sessions resident across runs)
        self.placement = placement
        #: global stream index → device index its session ended on
        self.stream_devices = stream_devices
        self.migrations = migrations
        self.interconnect = interconnect
        #: jobs the router predicted would be shed and credited back —
        #: compare against :attr:`dropped` to audit the estimator
        self.predicted_sheds = predicted_sheds
        #: every device's :attr:`DeviceRun.columns` as one sorted store
        #: (re-homed jobs' sojourns include their migration delay)
        self.columns = (
            devices[0].columns
            if len(devices) == 1
            else RecordColumns.merged(
                [run.columns for run in devices if run.schedule is not None]
            )
        )

    # ------------------------------------------------------------------ #
    # fleet-level views
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return self.fleet.num_devices

    @property
    def migration_count(self) -> int:
        """Shard transfers shipped, whatever the reason."""
        return len(self.migrations)

    @property
    def placement_migration_count(self) -> int:
        """Sessions placed off their home device at first arrival."""
        return sum(  # simlint: int-sum — a count
            1 for m in self.migrations if m.reason == MIGRATE_PLACEMENT
        )

    @property
    def steal_count(self) -> int:
        """Sessions pulled by an idle device's work steal."""
        return sum(  # simlint: int-sum — a count
            1 for m in self.migrations if m.reason == MIGRATE_STEAL
        )

    @property
    def rebalance_count(self) -> int:
        """Always 0: the fleet has no rebalancing sweeps.

        Kept only because the end-to-end harness reports it.
        """
        return 0

    @property
    def jobs_moved(self) -> int:
        """Queued job estimates re-homed by steals."""
        return sum(m.jobs_moved for m in self.migrations)  # simlint: int-sum — job counts

    @property
    def interconnect_bytes(self) -> float:
        """Total shard bytes the migrations moved across the link."""
        return self.interconnect.total_bytes

    @property
    def events_processed(self) -> int:
        return sum(  # simlint: int-sum — event counts
            run.schedule.events_processed
            for run in self.devices
            if run.schedule is not None
        )

    def device_summaries(
        self, percentiles: Sequence[float] = DEFAULT_PERCENTILES
    ) -> list[LatencySummary]:
        """One device-observed sojourn summary per device (idle → empty).

        Each is taken over the device's *own* sorted columns, not over a
        selection of the fleet-wide merge (the float-order rule of
        :func:`~repro.sim.scheduler._summarize`).
        """
        parts = [run.columns for run in self.devices if run.schedule is not None]
        sizes = [0 if run.schedule is None else len(run.columns) for run in self.devices]
        bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        columns = RecordColumns.concatenated(parts) if parts else self.columns
        labels = [{"scope": f"device {run.device}"} for run in self.devices]
        return _summarize(labels, columns, np.arange(bounds[-1]), bounds, percentiles)

    def energy(self):
        """Fleet-wide per-resource energy rollup.

        Every active device is priced over the *fleet* window (the last
        device's last job, or the interconnect's last transfer: a device
        idling after its last local job still burns static power), with
        rows prefixed ``d<i>:`` plus one row charging migration/steal
        transfers to the interconnect (active link power over its busy
        seconds plus per-byte switching energy).  With one device this
        delegates to the device report unchanged, preserving the M=1
        bit-exactness guarantee (the free interconnect contributes
        exactly nothing).  Devices that never received a session are not
        charged — the fleet prices the serving run, not the rack.
        """
        if len(self.devices) == 1 and self.devices[0].schedule is not None:
            return self.devices[0].schedule.energy()
        from repro.sim.energy import (
            ResourceEnergy,
            _window_s,
            merge_reports,
            schedule_energy,
        )

        runs = [run for run in self.devices if run.schedule is not None]
        window = self.interconnect.free_at_s  # transfers may outlast jobs
        for run in runs:
            span = _window_s(run.schedule)
            if span > window:
                window = span
        reports = [
            schedule_energy(
                run.schedule,
                run.schedule.energy_inputs,
                window_s=window,
                name_prefix=f"d{run.device}:",
            )
            for run in runs
        ]
        spec = self.interconnect.spec
        link_row = ResourceEnergy(
            name=f"interconnect:{spec.name}",
            busy_power_w=spec.active_power_w,
            busy_s=self.interconnect.busy_s(),
            window_s=window,
            busy_j=self.interconnect.transfer_energy_j(),
            idle_j=0.0,
        )
        report = merge_reports(
            reports, extra_rows=(link_row,), system=self.system, window_s=window
        )
        if sanitize_enabled():
            from repro.sim.energy import assert_conserved

            assert_conserved(report)
        return report


class FleetScheduler:
    """Routes sessions onto a fleet of M independent serving devices.

    Wraps one :class:`~repro.sim.scheduler.ServingScheduler` and builds
    each device's resources from its plane: every device prices like a
    single-device run over its sessions, and the router's solo estimates
    and every device run read that plane's one demand table.
    """

    def __init__(
        self,
        plane: BatchLatencyModel | None = None,
        config: SchedulerConfig | None = None,
        fleet: FleetConfig | None = None,
        engine: str = "array",
    ):
        self.fleet = fleet or FleetConfig()
        self.scheduler = ServingScheduler(plane, config, engine=engine)

    @property
    def plane(self) -> BatchLatencyModel:
        return self.scheduler.plane

    @property
    def config(self) -> SchedulerConfig:
        return self.scheduler.config

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
        home_devices: dict[int, int] | None = None,
    ) -> FleetResult:
        """Route every job, ship migrations, run each device, merge.

        ``home_devices`` maps session ids to the device already holding
        their shards (e.g. the previous run's :attr:`FleetResult.placement`);
        sessions without an entry are new — placing them anywhere is free.
        A session re-homed off its shard-holding device (at placement or
        by a steal) ships its shard bytes across the interconnect and its
        re-homed jobs' arrivals clamp to the transfer finish.
        """
        profiles, traces, q_arrivals, q_tokens, answers = (
            self.scheduler._validated_arguments(
                profiles, frame_arrivals, question_arrivals, question_tokens, answer_tokens
            )
        )
        num_streams = len(profiles)
        fleet = self.fleet
        num_devices = fleet.num_devices
        homes = self._validated_homes(home_devices, profiles)

        plan = self._route(system, profiles, traces, q_arrivals, answers, homes)

        # ---------------- per-device runs (original order) ------------- #
        runs: list[DeviceRun] = []
        if num_devices == 1 and not plan.migrations:
            schedule = self.scheduler.run(
                system,
                profiles,
                traces,
                question_arrivals=q_arrivals,
                question_tokens=q_tokens,
                answer_tokens=answers,
            )
            runs.append(
                DeviceRun(0, list(range(num_streams)), schedule, schedule.columns)
            )
        else:
            # per device: global stream → original indices of its frames
            members: list[dict[int, np.ndarray]] = [{} for _ in range(num_devices)]
            for s in range(num_streams):
                frame_dev = plan.frame_device[s]
                if frame_dev.size:
                    for d in np.unique(frame_dev):
                        members[int(d)][s] = np.nonzero(frame_dev == d)[0]
                qd = plan.question_device[s]
                if qd >= 0 and s not in members[qd]:
                    members[qd][s] = np.empty(0, dtype=np.intp)
            for s in sorted(plan.idle_placement):
                d = plan.idle_placement[s]
                if s not in members[d]:
                    members[d][s] = np.empty(0, dtype=np.intp)
            for device in plan.devices:
                by_stream = members[device.index]
                streams_d = sorted(by_stream)
                if not streams_d:
                    runs.append(DeviceRun(device.index, [], None))
                    continue
                frame_maps = []
                sub_traces = []
                sub_q: list[float | None] = []
                sub_answers: list[int] = []
                sub_qtok: list[int | None] = []
                for s in streams_d:
                    idxs = by_stream[s]
                    release = np.maximum(traces[s][idxs], plan.frame_ready[s][idxs])
                    # a predicted-shed frame stays where it was routed, and
                    # a steal can later hand the session's older queued
                    # frames back to that device, so release order is not
                    # always frame order: the device sees the frames as
                    # they are released (stable — the identity whenever
                    # the clamped arrivals are monotone)
                    order = np.argsort(release, kind="stable")
                    frame_maps.append(idxs[order])
                    sub_traces.append(release[order])
                    has_q = plan.question_device[s] == device.index
                    if has_q:
                        at = q_arrivals[s]
                        sub_q.append(max(float(at), plan.question_ready[s]))
                        sub_answers.append(answers[s])
                        sub_qtok.append(q_tokens[s])
                    else:
                        sub_q.append(None)
                        sub_answers.append(0)
                        sub_qtok.append(None)
                schedule = self.scheduler.run(
                    system,
                    [profiles[s] for s in streams_d],
                    sub_traces,
                    question_arrivals=sub_q,
                    question_tokens=sub_qtok,
                    answer_tokens=sub_answers,
                )
                columns = self._globalized_columns(
                    schedule.columns, streams_d, frame_maps, traces, q_arrivals
                )
                runs.append(DeviceRun(device.index, streams_d, schedule, columns))

        if sanitize_enabled():
            plan.link.assert_conserved()

        stream_devices = [
            plan.current[profiles[s].session_id] for s in range(num_streams)
        ]
        placement = {
            profiles[s].session_id: stream_devices[s] for s in range(num_streams)
        }
        return FleetResult(
            system=system.name,
            config=self.config,
            fleet=fleet,
            devices=runs,
            placement=placement,
            stream_devices=stream_devices,
            migrations=plan.migrations,
            interconnect=plan.link,
            predicted_sheds=plan.predicted_sheds,
        )

    # ------------------------------------------------------------------ #
    # the routing pass
    # ------------------------------------------------------------------ #
    def _route(
        self,
        system: SystemConfig,
        profiles: list[StreamProfile],
        traces: list[np.ndarray],
        q_arrivals: list[float | None],
        answers: list[int],
        homes: dict[int, int],
    ) -> _RoutingPlan:
        """Simulate the router: per-job placement and steals.

        One walk over every job, pre-sorted by the schedulers' event key
        ``(arrival, session_id, stream, position in the stream)``: each job
        routes (and feeds the device estimators) in turn.  Only idle-device
        wakeups, which run the steal check, wait on a heap; one runs before
        every job arriving strictly after it, so at one timestamp arrivals
        route first, then steals by device index — all deterministic.
        """
        fleet = self.fleet
        config = self.config
        num_streams = len(profiles)
        num_devices = fleet.num_devices
        stealing = fleet.work_stealing and num_devices > 1
        round_robin = fleet.router == "round_robin"
        need_estimates = num_devices > 1 and (not round_robin or stealing)
        rng = (
            np.random.default_rng(fleet.seed)
            if num_devices > 1 and fleet.router == "power_of_two"
            else None
        )
        # the admission mirror's constants, read once
        depth_cap = None if config.max_queue_depth is None else config.max_queue_depth + 1
        deadline_s = config.deadline_s if config.admission == "residency" else None
        predicted_shed = self._predicted_shed

        link = InterconnectLink(fleet.interconnect)
        devices = [FleetDevice(d) for d in range(num_devices)]
        migrations: list[MigrationRecord] = []
        sessions = [profile.session_id for profile in profiles]
        stream_of = {session: s for s, session in enumerate(sessions)}
        current: dict[int, int] = {}
        session_ready: dict[int, float] = {}
        last_move: dict[int, float] = {}
        rr_next = 0
        predicted_sheds = 0
        # the plan's per-job columns, Python lists until the walk ends
        frame_device = [[-1] * trace.size for trace in traces]
        frame_ready = [[0.0] * trace.size for trace in traces]
        question_device = [-1] * num_streams
        question_ready = [0.0] * num_streams

        # flat job columns, a question as index -1: its position is the
        # count of its stream's frames at or before it, so the sort, not
        # the column layout, puts a same-time question behind those frames
        asked = [s for s in range(num_streams) if q_arrivals[s] is not None]
        sizes = [trace.size for trace in traces]
        frame_stream = np.repeat(np.arange(num_streams), sizes)
        frame_index = np.concatenate([np.arange(size) for size in sizes])
        q_times = np.array([float(q_arrivals[s]) for s in asked])
        q_position = [
            int(np.searchsorted(traces[s], at, side="right"))
            for s, at in zip(asked, q_times.tolist(), strict=True)
        ]
        times = np.concatenate([q_times, *traces])
        stream = np.concatenate([np.asarray(asked, dtype=np.intp), frame_stream])
        index = np.concatenate([np.full(len(asked), -1), frame_index])
        position = np.concatenate([np.asarray(q_position, dtype=np.intp), frame_index])
        order = np.lexsort((position, stream, np.asarray(sessions)[stream], times))

        # each routed stream's estimated solo work per job, priced once per
        # run: questions and generation tokens are charged at the frame rate
        # — the router needs a consistent load ranking across devices, not
        # an exact latency; the per-device schedulers price exactly
        solo_s = [
            self.plane.frame_step(system, [profile]).streams[0].total_s
            if need_estimates and (size or at is not None)
            else 0.0
            for profile, size, at in zip(profiles, sizes, q_arrivals, strict=True)
        ]

        # idle-device wakeups: (time, device, seq)
        seq = count()
        heap: list[tuple[float, int, int]] = []

        def wake_idle(now_s: float) -> None:
            for dev in devices:
                if dev.busy_until_s <= now_s:  # backlog_s(now_s) <= 0.0
                    heappush(heap, (now_s, dev.index, next(seq)))

        def ship(
            s: int, src: int, dst: int, now_s: float, reason: str, jobs_moved: int = 0
        ) -> float:
            """Move stream ``s``'s session to ``dst``; returns when its shards land."""
            session = sessions[s]
            num_bytes = self.plane.session_shard_bytes(system, profiles[s]).total_bytes
            transfer = link.ship(
                now_s,
                num_bytes,
                session_id=session,
                src_device=src,
                dst_device=dst,
                not_before_s=session_ready.get(session, 0.0),
            )
            session_ready[session] = transfer.finish_s
            current[session] = dst
            last_move[session] = now_s
            migrations.append(
                MigrationRecord(
                    session_id=session,
                    stream_index=s,
                    src_device=src,
                    dst_device=dst,
                    num_bytes=num_bytes,
                    decision_s=now_s,
                    start_s=transfer.start_s,
                    finish_s=transfer.finish_s,
                    reason=reason,
                    jobs_moved=jobs_moved,
                )
            )
            return transfer.finish_s

        def try_steal(thief: FleetDevice, now_s: float) -> None:
            # idleness and backlogs read the horizon alone: retiring
            # finished jobs never moves it, and every read of pending
            # counts or queue contents retires them first
            if thief.busy_until_s > now_s:
                return  # stale wakeup: work landed since this was queued
            victim = None
            victim_backlog = 0.0
            for dev in devices:
                if dev is thief:
                    continue
                backlog = max(0.0, dev.busy_until_s - now_s)
                if victim is None or backlog > victim_backlog:
                    victim, victim_backlog = dev, backlog
            if victim is None or not victim_backlog > fleet.steal_backlog_s:
                return
            totals = victim.unstarted_by_session(now_s)
            best = None
            for session in sorted(totals):
                # a session mid-transfer is never re-stolen, and one move per
                # session per timestamp (no same-instant ping-pong over a
                # free interconnect)
                if session_ready.get(session, 0.0) > now_s:
                    continue
                if last_move.get(session, -math.inf) >= now_s:
                    continue
                if best is None or totals[session] > totals[best]:
                    best = session
            if best is None:
                return
            stolen = victim.remove_unstarted(best, now_s)
            ready = ship(
                stream_of[best], victim.index, thief.index, now_s, MIGRATE_STEAL, len(stolen)
            )
            for job in stolen:
                thief.add_job(best, job.stream, job.kind, job.index, ready, job.work_s)
                if job.kind == FRAME_JOB:
                    frame_device[job.stream][job.index] = thief.index
                    frame_ready[job.stream][job.index] = ready
                else:
                    question_device[job.stream] = thief.index
                    question_ready[job.stream] = ready
            for dev in (victim, thief):
                heappush(heap, (max(dev.busy_until_s, now_s), dev.index, next(seq)))
            wake_idle(now_s)

        for arrival, s, i in zip(
            times[order].tolist(), stream[order].tolist(), index[order].tolist(), strict=True
        ):
            while heap and heap[0][0] < arrival:
                now_s, d, _ = heappop(heap)
                try_steal(devices[d], now_s)
            session = sessions[s]
            d = current.get(session)
            if d is None:
                home = homes.get(session)
                if num_devices == 1:
                    d = 0
                else:
                    d = self._choose(fleet, devices, rng, rr_next, arrival, home)
                if round_robin:
                    rr_next += 1
                current[session] = d
                if home is not None and d != home:
                    ship(s, home, d, arrival, MIGRATE_PLACEMENT)
            ready = session_ready.get(session, 0.0)
            if i >= 0:
                frame_device[s][i] = d
                frame_ready[s][i] = ready
            else:
                question_device[s] = d
                question_ready[s] = ready
            if need_estimates:
                work = solo_s[s] if i >= 0 else solo_s[s] * (1 + answers[s])
                device = devices[d]
                if predicted_shed(device, session, work, arrival, depth_cap, deadline_s):
                    predicted_sheds += 1
                else:
                    release = arrival if ready <= arrival else ready
                    kind = FRAME_JOB if i >= 0 else QUESTION_JOB
                    device.add_job(session, s, kind, i, release, work)
                    if stealing:
                        heappush(heap, (device.busy_until_s, d, next(seq)))
                        wake_idle(arrival)
        while heap:
            now_s, d, _ = heappop(heap)
            try_steal(devices[d], now_s)

        # idle sessions only need a home for their registration; they
        # consume round-robin slots after every arriving session, exactly
        # as the one-shot router ordered them (first arrival = inf)
        idle_placement: dict[int, int] = {}
        idle_streams = sorted(
            (s for s in range(num_streams) if not sizes[s] and q_arrivals[s] is None),
            key=lambda s: (sessions[s], s),
        )
        for s in idle_streams:
            session = sessions[s]
            home = homes.get(session)
            if num_devices == 1:
                d = 0
            elif home is not None:
                d = home
            else:
                d = rr_next % num_devices
            if round_robin or home is None:
                rr_next += 1
            current[session] = d
            idle_placement[s] = d
        return _RoutingPlan(
            devices=devices,
            link=link,
            migrations=migrations,
            current=current,
            frame_device=[np.array(row, dtype=np.intp) for row in frame_device],
            frame_ready=[np.array(row, dtype=float) for row in frame_ready],
            question_device=question_device,
            question_ready=question_ready,
            idle_placement=idle_placement,
            predicted_sheds=predicted_sheds,
        )

    # ------------------------------------------------------------------ #
    # routing internals
    # ------------------------------------------------------------------ #
    def _validated_homes(
        self, home_devices: dict[int, int] | None, profiles: list[StreamProfile]
    ) -> dict[int, int]:
        """``home_devices``, checked against the fleet's distinct session ids."""
        session_ids = [profile.session_id for profile in profiles]
        sessions = set(session_ids)
        if len(sessions) != len(session_ids):
            duplicate = next(s for s in session_ids if session_ids.count(s) > 1)
            raise ValueError(
                "a fleet requires a distinct StreamProfile.session_id per stream "
                "(placement, homes and steals are keyed by session); "
                f"session id {duplicate} appears more than once"
            )
        if home_devices is None:
            return {}
        if not isinstance(home_devices, Mapping):
            raise ValueError(
                "home_devices must map session ids to device indices, "
                f"got {type(home_devices).__name__}"
            )
        num_devices = self.fleet.num_devices
        for session, device in home_devices.items():
            if session not in sessions:
                raise ValueError(
                    f"home_devices names session {session}, which is not in the fleet"
                )
            require_number(f"home_devices device of session {session}", device, integer=True)
            if device >= num_devices:
                raise ValueError(
                    f"home_devices places session {session} on device {device}; "
                    f"the fleet has {num_devices} device(s)"
                )
        return dict(home_devices)

    @staticmethod
    def _draw_candidates(rng, num_devices: int) -> tuple[int, int]:
        """Two *distinct* candidate devices for power-of-two, ordered.

        The second draw samples ``num_devices - 1`` values and skips over
        the first pick, so the pair is distinct by construction for any
        ``num_devices >= 2`` — at M=2 it is always ``(0, 1)``, which
        makes ``power_of_two`` decision-equivalent to ``least_loaded``
        there (the property suite pins this).  Returning the pair sorted
        lets the caller tie-break to the lower index deterministically.
        """
        first = int(rng.integers(num_devices))
        second = int(rng.integers(num_devices - 1))
        if second >= first:
            second += 1
        return min(first, second), max(first, second)

    def _choose(
        self,
        fleet: FleetConfig,
        devices: list[FleetDevice],
        rng,
        rr_next: int,
        t: float,
        home: int | None,
    ) -> int:
        router = fleet.router
        if router == "round_robin":
            return rr_next % len(devices)
        if router == "power_of_two":
            a, b = self._draw_candidates(rng, len(devices))
            return a if devices[a].backlog_s(t) <= devices[b].backlog_s(t) else b
        if router == "kv_residency" and home is not None:
            if devices[home].backlog_s(t) <= fleet.migrate_backlog_s:
                return home
        # least_loaded (and the kv_residency/homeless fallbacks)
        return min(devices, key=lambda d: (d.backlog_s(t), d.index)).index

    @staticmethod
    def _predicted_shed(
        device: FleetDevice,
        session: int,
        work_s: float,
        now_s: float,
        depth_cap: int | None,
        deadline_s: float | None,
    ) -> bool:
        """Mirror the device admission controller on the router's estimate.

        A job the device would shed never costs the device work, so
        charging it to the estimator is exactly the stale-backlog bug —
        the router predicts the shed and credits the work back instead.
        Queue-depth drops mirror the lifecycle's ``busy and depth >= max``
        (the session already has ``max_queue_depth + 1`` unfinished jobs
        here); residency deferrals mirror the deadline test coarsely,
        with the estimator's pending count standing in for the compute
        backlog.  ``depth_cap`` is ``max_queue_depth + 1`` (``None``
        unbounded); ``deadline_s`` is the deadline under residency
        admission (``None`` otherwise).  The per-device run still makes
        the real decision — :attr:`FleetResult.predicted_sheds` vs
        :attr:`FleetResult.dropped` audits the prediction.
        """
        device.advance(now_s)
        pending = device.pending_jobs(session)
        if depth_cap is not None and pending >= depth_cap:
            return True
        return deadline_s is not None and (pending + 1) * work_s > deadline_s

    # ------------------------------------------------------------------ #
    # record adjustment
    # ------------------------------------------------------------------ #
    @staticmethod
    def _globalized_columns(
        columns: RecordColumns,
        streams_d: list[int],
        frame_maps: list[np.ndarray],
        traces: list[np.ndarray],
        q_arrivals: list[float | None],
    ) -> RecordColumns:
        """A device's record columns in fleet terms, arrivals restored.

        A re-homed job buffered at the router until its session's shards
        landed; the device saw a clamped arrival (and, for a re-homed
        session's frames, a compacted local job index), but the user
        uploaded at the original times — fleet sojourns (and deadline
        misses, which :class:`RecordColumns` re-derives) are measured
        from those, with frame indices mapped back to the original trace
        positions.  Generation jobs chain off finish times and are never
        clamped.  Row order is untouched: the result stays in the
        device's own sorted order.
        """
        local = columns.stream
        frames = columns.kind == KIND_FRAME
        questions = columns.kind == KIND_QUESTION
        # position of (local stream, local frame index) in the flat maps
        sizes = [frame_map.size for frame_map in frame_maps]
        flat = (np.cumsum(sizes) - sizes)[local[frames]] + columns.index[frames]
        index = columns.index.copy()
        index[frames] = np.concatenate(frame_maps)[flat]
        arrival = columns.arrival.copy()
        arrival[frames] = np.concatenate(
            [traces[s][frame_map] for s, frame_map in zip(streams_d, frame_maps, strict=True)]
        )[flat]
        arrival[questions] = [
            float(q_arrivals[streams_d[stream]]) for stream in local[questions].tolist()
        ]
        return columns.replaced(
            stream=np.asarray(streams_d, dtype=np.int64)[local],
            index=index,
            arrival=arrival,
        )
