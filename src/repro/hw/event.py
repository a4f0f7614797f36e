"""A lightweight interval timeline used for overlap and bandwidth analysis.

The paper's Fig. 17 shows DRAM bandwidth usage of concurrent operations
(LLM compute, KV prediction, KV retrieval) across one decoder layer.  The
:class:`Timeline` records named tasks as ``(start, duration, bandwidth)``
intervals on named resources and can render a bandwidth-over-time trace or
check overlap properties — enough to reproduce the figure and to unit-test
the latency-hiding claims.

:class:`ResourceQueue` complements the timeline with a single-server FCFS
queue: the batched performance plane pushes concurrent streams' KV-fetch
transfers and DRE prediction jobs through one, so aligned arrivals expose
the queueing delay a shared PCIe link or DRE inflicts.

:class:`EventLoop` extends that substrate for the event-driven serving
scheduler's reference loop (:mod:`repro.sim.scheduler`): it fires
callbacks in deterministic ``(time, priority, key, insertion)`` order —
the tie-breaking that keeps a schedule a function of the fleet rather
than of the caller's list order.

:class:`PreemptiveResource` is the time-sliced compute server the
``compute="timesliced"`` serving mode contends on: a round-robin single
server with a configurable scheduling quantum.  Its state and transitions
are :class:`RoundRobinCore`, which the array engine calls directly: one
server under both engines, queued per decision rather than per quantum.

:class:`ArrayEventQueue` and :class:`IndexRing` are the array-backed
substrate of the fast scheduler engine (:mod:`repro.sim.engine`): the
queue stores events as ``(time, packed subkey, payload)`` with the whole
``(priority, key, seq)`` tie-break packed into one integer
(:func:`pack_subkey`), supports a vectorized bulk preload of statically
known events (arrival traces) consumed through a cursor, and keeps
dynamically pushed events in a binary heap merged against that lane in
one total event order.  The ring is an allocation-free multi-lane
FIFO over preallocated index arrays: pushes and pops move integer links
and allocate nothing, which is what keeps the per-event cost flat from 4
to 10k streams; the scheduler's stream pipeline slots are its lanes.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.config import require_number
from repro.devtools.sanitizer import (
    EVENT_ORDER,
    LANE_ORDER,
    RESOURCE_BALANCE,
    RING_DISCIPLINE,
    EventTrace,
    SanitizerError,
    sanitize_enabled,
)

#: Bit layout of the packed event subkey: ``priority`` (high bits) over
#: ``key rank`` over ``seq`` — comparing two packed subkeys as integers is
#: exactly the lexicographic ``(priority, key, insertion)`` comparison the
#: :class:`EventLoop` heap performs on tuples, provided ``seq`` stays below
#: ``2**SUBKEY_SEQ_BITS`` and the key rank below ``2**SUBKEY_RANK_BITS``.
SUBKEY_SEQ_BITS = 28
SUBKEY_RANK_BITS = 30
SUBKEY_RANK_SHIFT = SUBKEY_SEQ_BITS
SUBKEY_PRIO_SHIFT = SUBKEY_SEQ_BITS + SUBKEY_RANK_BITS
MAX_SUBKEY_SEQ = 1 << SUBKEY_SEQ_BITS
MAX_SUBKEY_RANK = 1 << SUBKEY_RANK_BITS

_INF = float("inf")


def pack_subkey(priority: int, key_rank: int, seq: int) -> int:
    """Pack ``(priority, key rank, seq)`` into one orderable integer.

    ``key_rank`` is the rank of the event's key in the sorted set of all
    keys a run can emit (the scheduler ranks ``(session_id, stream)``
    pairs once per run), so integer order on the packed value equals
    tuple order on ``(priority, key, seq)``.
    """
    if not 0 <= seq < MAX_SUBKEY_SEQ:
        raise ValueError(f"seq must lie in [0, {MAX_SUBKEY_SEQ}), got {seq}")
    if not 0 <= key_rank < MAX_SUBKEY_RANK:
        raise ValueError(f"key_rank must lie in [0, {MAX_SUBKEY_RANK}), got {key_rank}")
    if priority < 0:
        raise ValueError(f"priority must be non-negative, got {priority}")
    return (priority << SUBKEY_PRIO_SHIFT) | (key_rank << SUBKEY_RANK_SHIFT) | seq


def fcfs_arrival(name: str, last_s: float, arrival_s: float, trace=None) -> float:
    """A sanitized FCFS server's arrival-order check; returns the new last arrival."""
    if arrival_s < last_s:
        raise SanitizerError(
            RESOURCE_BALANCE,
            f"resource {name!r}: FCFS arrival order violated ({arrival_s} after {last_s})",
            trace,
        )
    return arrival_s


@dataclass(frozen=True)
class QueuedService:
    """One serviced request of a :class:`ResourceQueue`."""

    arrival_s: float
    start_s: float
    service_s: float

    @property
    def wait_s(self) -> float:
        """Queueing delay between arrival and service start."""
        return self.start_s - self.arrival_s

    @property
    def finish_s(self) -> float:
        return self.start_s + self.service_s


class ResourceQueue:
    """A first-come-first-served single-server queue.

    Requests must be enqueued in non-decreasing arrival order (the caller
    sorts streams by arrival offset); each request holds the resource
    exclusively for its service time.  Zero-service requests pass through
    without occupying the server.

    The queue keeps no per-request history: its state is the ``_free_at``
    float plus the O(1) busy accumulator, so each request costs a single
    max/add.  Callers consume the returned :class:`QueuedService`.
    """

    def __init__(self, name: str = "resource"):
        self.name = name
        self._free_at = 0.0
        self._busy_total_s = 0.0
        self._sanitize = sanitize_enabled()
        self._last_arrival = float("-inf")

    @property
    def free_at_s(self) -> float:
        """Time at which the server next becomes idle."""
        return self._free_at

    def enqueue(self, arrival_s: float, service_s: float) -> QueuedService:
        """Admit one request; returns its scheduled service interval."""
        if service_s < 0:
            raise ValueError("service_s must be non-negative")
        if self._sanitize:
            self._last_arrival = fcfs_arrival(self.name, self._last_arrival, arrival_s)
        if service_s == 0:
            return QueuedService(arrival_s, arrival_s, 0.0)
        start = max(arrival_s, self._free_at)
        request = QueuedService(arrival_s, start, service_s)
        self._free_at = request.finish_s
        self._busy_total_s += service_s
        return request

    def busy_s(self) -> float:
        """Total service time the resource has delivered, O(1).

        A running accumulator in ``enqueue`` (grant order), so it is exact
        — bit-identical to summing the returned services' ``service_s``
        in order.
        """
        return self._busy_total_s


class EventLoop:
    """A priority-queue event loop with deterministic tie-breaking.

    Events fire in ``(time_s, priority, key, insertion order)`` order:
    ``priority`` ranks event *kinds* at the same instant (completions
    before admissions, say) and ``key`` breaks remaining ties between
    peers (the scheduler uses ``(session_id, stream_index)`` so two
    streams whose requests land at the same instant are served in a
    fleet-determined order, never in list order).
    """

    def __init__(self):
        self._heap: list[tuple[float, int, tuple, int, Callable[[], None]]] = []
        self._seq = 0
        self.now_s = 0.0
        #: logical count: events fired plus those resolved in place
        #: (:meth:`fast_forward`)
        self.events_processed = 0
        self._until_s: float | None = None
        self._sanitize = sanitize_enabled()
        self._trace = EventTrace() if self._sanitize else None

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(
        self,
        time_s: float,
        callback: Callable[[], None],
        priority: int = 0,
        key: tuple = (),
    ) -> None:
        """Enqueue ``callback`` to fire at ``time_s`` (``inf`` is legal, NaN is not)."""
        if not time_s >= self.now_s:  # also False for NaN, which no comparison orders
            raise ValueError(
                f"cannot schedule an event at {time_s}, not at or after the current "
                f"time {self.now_s}"
            )
        heapq.heappush(self._heap, (time_s, priority, key, self._seq, callback))
        self._seq += 1

    def run(self, until_s: float | None = None) -> int:
        """Fire events in order; returns how many fired during this call.

        ``until_s`` stops the loop *after* the last event at or before that
        time (pending later events stay queued).
        """
        fired = 0
        self._until_s = until_s
        while self._heap:
            if until_s is not None and self._heap[0][0] > until_s:
                break
            time_s, _priority, _key, _seq, callback = heapq.heappop(self._heap)
            if self._sanitize:
                if time_s < self.now_s:
                    raise SanitizerError(
                        EVENT_ORDER,
                        f"event loop popped time {time_s} after {self.now_s} "
                        "(non-monotone pop order)",
                        self._trace,
                    )
                self._trace.note((time_s, _priority, _key, _seq))
            self.now_s = time_s
            callback()
            fired += 1
            self.events_processed += 1
        return fired

    def horizon_s(self) -> float:
        """Strict bound on the times at which only the firing event's owner acts.

        The earlier of the earliest queued event and the ``until_s`` of the
        running :meth:`run` (an empty heap is not an open horizon).  What
        falls *at* the bound is the queue's to order, so the owner schedules
        it.  Only meaningful inside a callback.
        """
        horizon = self._heap[0][0] if self._heap else _INF
        until_s = self._until_s
        if until_s is not None and until_s < horizon:
            return until_s
        return horizon

    def fast_forward(self, first_s: float, last_s: float, events: int) -> None:
        """Account ``events`` their owner resolved in place, all before
        :meth:`horizon_s`: the clock and the logical count move as if they had
        fired, and a sanitized loop keeps one compact trace entry for the run.
        """
        self.now_s = last_s
        self.events_processed += events
        if self._sanitize:
            self._trace.note((first_s, last_s, f"{events} slices fast-forwarded"))


class RoundRobinCore:
    """The round-robin time-sliced server as array state: no queue, no callbacks.

    ``work`` / ``served`` / ``first_start`` columns indexed by job id, the
    FIFO ``ready`` ring of ids, the ``running`` id (``-1`` when idle) and
    the busy-time accounting, advanced by the caller at slice boundaries.
    Both scheduler engines drive this one class — :class:`PreemptiveResource`
    from :class:`EventLoop` callbacks, :func:`repro.sim.engine.run_array`
    from its fused dispatch loop — and queue **one event per decision**:
    the slice end that :meth:`dispatch` or :meth:`slice_ended` returns.

    A run of quantum expiries that nothing outside the server can observe
    is resolved inside :meth:`slice_ended` with the float updates a
    slice-per-event schedule performs, in its order.  The step is scalar by
    specification: ``work - served <= quantum`` decides the completing
    slice and its length, so ``served`` after *k* slices must be *k*
    sequential ``+= quantum`` adds, not a closed form.
    """

    __slots__ = (
        "quantum_s", "work", "served", "first_start", "ready", "running",
        "busy_s", "completed_work_s", "submitted", "completed",
    )

    def __init__(self, quantum_s: float):
        self.quantum_s = quantum_s
        self.work: list[float] = []
        self.served: list[float] = []
        self.first_start: list[float | None] = []
        self.ready: deque[int] = deque()
        self.running = -1
        #: busy integral: service seconds granted so far, accumulated at
        #: slice ends (never rescanned — O(1) per poll)
        self.busy_s = 0.0
        #: sum of completed jobs' work (the grant side of busy-time conservation)
        self.completed_work_s = 0.0
        self.submitted = 0
        self.completed = 0

    def submit(self, work_s: float, started_s: float | None = None) -> int:
        """Queue a job of positive, finite ``work_s``; returns its id.

        The caller dispatches it if the server is idle (``running < 0``).
        A zero-work job passes ``started_s``: it is complete at that
        instant and never occupies the server.
        """
        index = len(self.work)
        self.work.append(work_s)
        self.served.append(0.0)
        self.first_start.append(started_s)
        self.submitted += 1
        if started_s is None:
            self.ready.append(index)
        else:
            self.completed += 1
        return index

    def dispatch(self, now: float) -> float:
        """Start the head of the ready ring at ``now``; returns its slice end."""
        index = self.running = self.ready.popleft()
        if self.first_start[index] is None:
            self.first_start[index] = now
        remaining = self.work[index] - self.served[index]
        return now + (self.quantum_s if self.quantum_s <= remaining else remaining)

    def slice_ended(self, now: float, horizon_s: float):
        """The running slice ended at ``now`` → ``(finished, now, next_end_s, skipped)``.

        On a job's last slice ``finished`` is its id and the next head (if
        any) already runs — dispatch precedes the caller's completion
        callback, which may therefore submit follow-up work — with
        ``next_end_s`` its slice end, or ``None`` if the server went idle.
        Otherwise ``finished`` is ``-1`` and the ring rotated.  While the
        new head is not on its last slice and its slice ends *strictly
        before* ``horizon_s`` — the earliest instant anything outside the
        server can act, so the ring is fixed until then — that expiry is
        taken here too: ``skipped`` counts them and ``now`` is the last
        one's time.  A slice ending at the horizon, and every last slice,
        is left for the caller to queue, which keeps tie order and
        completion callbacks where a slice-per-event schedule has them.
        """
        index = self.running
        work = self.work
        served = self.served
        ready = self.ready
        quantum = self.quantum_s
        remaining = work[index] - served[index]
        if remaining <= quantum:
            self.busy_s += remaining
            served[index] = work[index]  # exact: no accumulated float error
            self.completed += 1
            self.completed_work_s += work[index]
            if ready:
                return index, now, self.dispatch(now), 0
            self.running = -1
            return index, now, None, 0
        first_start = self.first_start
        busy = self.busy_s
        skipped = 0
        while True:
            busy += quantum
            served[index] += quantum
            ready.append(index)
            index = ready.popleft()
            if first_start[index] is None:
                first_start[index] = now
            remaining = work[index] - served[index]
            if remaining <= quantum:
                end = now + remaining
                break
            end = now + quantum
            if end >= horizon_s:
                break
            now = end
            skipped += 1
        self.busy_s = busy
        self.running = index
        return -1, now, end, skipped

    def backlog_s(self) -> float:
        """Unserved work in the system: the ready ring, then the running job.

        Progress inside the current slice is not counted (``served`` moves
        at slice ends): an exact function of the slices ended so far.
        """
        work = self.work
        served = self.served
        total = 0.0
        for index in self.ready:
            total += work[index] - served[index]
        if self.running >= 0:
            total += work[self.running] - served[self.running]
        return total

    def assert_drained(self, label: str, trace: EventTrace | None = None) -> None:
        """Sanitizer check: all submitted work was served to completion.

        Raises :class:`~repro.devtools.sanitizer.SanitizerError` if a job
        is still running or ready, a submitted job never completed, the
        slice-granted busy integral does not telescope to the completed
        jobs' work (up to float-accumulation slack), or some job's
        ``served`` is not its ``work`` exactly.
        """
        if self.running >= 0 or self.ready:
            problem = (
                f"not drained: running={'yes' if self.running >= 0 else 'no'}, "
                f"{len(self.ready)} job(s) still ready"
            )
        elif self.completed != self.submitted:
            problem = (
                f"{self.submitted} job(s) submitted but only {self.completed} "
                "completed with empty queues"
            )
        elif abs(self.busy_s - self.completed_work_s) > 1e-9 * max(self.completed_work_s, 1.0):
            problem = (
                f"busy-time conservation violated — granted {self.busy_s} s of "
                f"slices but completed {self.completed_work_s} s of work"
            )
        elif self.served != self.work:  # simlint: exact — assigned at completion
            index = next(i for i, w in enumerate(self.work) if self.served[i] != w)
            problem = (
                f"job {index} served {self.served[index]} of {self.work[index]} "
                "work with empty queues"
            )
        else:
            return
        raise SanitizerError(RESOURCE_BALANCE, f"{label}: {problem}", trace)


class PreemptiveJob:
    """One job of a :class:`PreemptiveResource` (round-robin time slices).

    ``served_s`` (moves at slice ends) and ``first_start_s`` (``None``
    until the first slice) read the server core's columns, the one copy.
    """

    __slots__ = ("key", "arrival_s", "work_s", "finish_s", "_callback", "_core", "_index")

    def __init__(self, core: RoundRobinCore, index: int, key: tuple, arrival_s: float, callback):
        self.key = key
        self.arrival_s = arrival_s
        self.work_s = core.work[index]
        self.finish_s: float | None = None
        self._callback = callback
        self._core = core
        self._index = index

    @property
    def served_s(self) -> float:
        return self._core.served[self._index]

    @property
    def first_start_s(self) -> float | None:
        return self._core.first_start[self._index]


class PreemptiveResource:
    """A round-robin time-sliced single server (preemptive compute).

    Models one shared compute engine (the LXE or GPU) that several streams'
    jobs contend on: jobs join a FIFO ready queue, the head job runs for
    ``min(quantum_s, remaining work)`` seconds, and an unfinished job
    requeues at the tail.  The server is work-conserving — it never idles
    while work is ready — so the instant a backlog drains is independent of
    the quantum; the quantum only redistributes *completion order* between
    jobs, converging to ideal processor sharing as ``quantum_s → 0`` and to
    non-preemptive FCFS as ``quantum_s → ∞``.

    This is the :class:`RoundRobinCore` bound to an :class:`EventLoop`: it
    keeps the jobs' keys and completion callbacks and schedules the core's
    slice ends at the resource's ``priority`` with the running job's
    ``key``, so schedules stay deterministic functions of the submitted job
    set.  The loop queues **one event per decision** — a completion, or a
    quantum expiry something else could interleave with; the expiries in
    between are resolved inside the core and only counted, so
    ``loop.events_processed`` stays the per-quantum logical count.
    Zero-work jobs complete immediately without occupying the server.
    Completion callbacks run *after* the next job has been dispatched, so a
    callback may submit follow-up work without double-dispatching the
    server.  The ``jobs`` history is kept only with ``record=True``.
    """

    def __init__(
        self,
        loop: EventLoop,
        name: str = "compute",
        quantum_s: float = 1e-3,
        priority: int = 0,
        record: bool = False,
    ):
        require_number("quantum_s", quantum_s, exclusive=True)
        self.loop = loop
        self.name = name
        self.quantum_s = float(quantum_s)
        self._priority = priority
        self.record = record
        self._sanitize = sanitize_enabled()
        self._core = RoundRobinCore(self.quantum_s)
        #: jobs running or ready, by core id
        self._inflight: dict[int, PreemptiveJob] = {}
        self.jobs: list[PreemptiveJob] = []

    def submit(
        self, work_s: float, callback: Callable[[PreemptiveJob], None] | None = None, key: tuple = ()
    ) -> PreemptiveJob:
        """Admit a job at the loop's current time; ``callback(job)`` on completion."""
        # one comparison rejects negative, inf and nan work: ``remaining <=
        # quantum`` is never true of the last two, so either rotates forever
        if not 0.0 <= work_s < _INF:
            raise ValueError(f"work_s must be finite and non-negative, got {work_s}")
        work_s = float(work_s)
        core = self._core
        now = self.loop.now_s
        instant = work_s == 0.0  # simlint: exact — zero-work sentinel, no arithmetic behind it
        index = core.submit(work_s, now if instant else None)
        job = PreemptiveJob(core, index, key, now, callback)
        if self.record:
            self.jobs.append(job)
        if instant:
            job.finish_s = now
            if callback is not None:
                callback(job)
            return job
        self._inflight[index] = job
        if core.running < 0:
            self.loop.schedule(
                core.dispatch(now), self._slice_ended, priority=self._priority, key=key
            )
        return job

    def busy_s(self) -> float:
        """Total service time delivered so far (the slice-granted integral).

        An accumulator, O(1) per poll, so routers and admission policies
        may read it per decision.  It equals the per-job rescan
        ``sum(job.served_s)`` up to float re-association (slices accumulate
        in grant order, the rescan in submission order); the property suite
        pins the two together.
        """
        return self._core.busy_s

    def backlog_s(self) -> float:
        """Unserved work in the system — the compute backlog a newly admitted
        stream would join (:meth:`RoundRobinCore.backlog_s`)."""
        return self._core.backlog_s()

    def assert_drained(self) -> None:
        """Sanitizer check: :meth:`RoundRobinCore.assert_drained`, plus a causal
        ``arrival <= first_start <= finish`` on every retained job."""
        self._core.assert_drained(f"preemptive resource {self.name!r}")
        for job in self.jobs:
            if not (job.arrival_s <= job.first_start_s <= job.finish_s):
                raise SanitizerError(
                    RESOURCE_BALANCE,
                    f"preemptive resource {self.name!r}: job {job.key!r} has "
                    f"non-causal times (arrival={job.arrival_s}, "
                    f"first_start={job.first_start_s}, finish={job.finish_s})",
                )

    def _slice_ended(self) -> None:
        # The horizon is read as the slice event fires, never at dispatch:
        # a callback may submit and only then schedule its own next event.
        # Here everything earlier is queued and nothing else runs before the
        # loop's next pop, so the core's state needs no advance-on-read.
        loop = self.loop
        core = self._core
        fired_s = loop.now_s
        finished, now, next_end_s, skipped = core.slice_ended(fired_s, loop.horizon_s())
        if skipped:
            loop.fast_forward(fired_s + self.quantum_s, now, skipped)
        if next_end_s is not None:
            loop.schedule(
                next_end_s,
                self._slice_ended,
                priority=self._priority,
                key=self._inflight[core.running].key,
            )
        if finished >= 0:
            job = self._inflight.pop(finished)
            job.finish_s = now
            if job._callback is not None:
                job._callback(job)


class ArrayEventQueue:
    """A deterministic event queue over ``(time, packed subkey, payload)``.

    The array-backed replacement for :class:`EventLoop`'s heap of
    ``(time, priority, key, seq, callback)`` tuples: the whole tie-break
    is one integer (:func:`pack_subkey`), the payload is caller-defined
    (the scheduler engine packs an event-type code and a job id into one
    int and dispatches through an ``if/elif`` table instead of per-event
    closures), and events whose times are known up front — the arrival
    traces — are bulk-loaded once with a vectorized sort
    (:meth:`preload`) and consumed through a cursor, never entering the
    dynamic structure at all.

    Dynamically pushed events live in a binary heap of ``(time, subkey,
    payload)`` tuples (the ``"heap"`` policy, the only one), merged at
    pop time against the static lane in the one total order ``(time,
    subkey)``.  The scheduler engine constructs the queue for its static
    lane and fuses the heap into its dispatch loop (``heappush`` /
    ``heappop`` on ``_entries`` directly); the class itself is the
    reference semantics the property tests pin against
    :class:`EventLoop`.
    """

    POLICIES = ("heap",)

    __slots__ = (
        "policy",
        "_entries",
        "_lane_t",
        "_lane_sub",
        "_lane_payload",
        "_lane_pos",
        "popped",
        "_sanitize",
        "_trace",
        "_last",
    )

    def __init__(self, policy: str = "heap"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {self.POLICIES}")
        self.policy = policy
        #: heapified ascending ``(t, sub, payload)`` tuples
        self._entries: list = []
        self._lane_t: list[float] = []
        self._lane_sub: list[int] = []
        self._lane_payload: list[int] = []
        self._lane_pos = 0
        #: events popped over the queue's lifetime
        self.popped = 0
        self._sanitize = sanitize_enabled()
        self._trace = EventTrace() if self._sanitize else None
        self._last = (float("-inf"), -(1 << 62))

    def __len__(self) -> int:
        return len(self._entries) + len(self._lane_t) - self._lane_pos

    # ------------------------------------------------------------------ #
    # static lane
    # ------------------------------------------------------------------ #
    def preload(self, times_s, subs, payloads) -> None:
        """Bulk-load statically known events with one vectorized sort.

        ``times_s``, ``subs`` and ``payloads`` are parallel arrays; the
        events are sorted by ``(time, subkey)`` (``np.lexsort``) and
        consumed through a cursor that merges against dynamically pushed
        events at pop time, so preloaded events never pay per-event
        insertion.  May only be called while the lane is empty.
        """
        if self._lane_pos < len(self._lane_t):
            raise ValueError("preload requires an exhausted static lane")
        times_s = np.asarray(times_s, dtype=float)
        subs = np.asarray(subs, dtype=np.int64)
        payloads = np.asarray(payloads, dtype=np.int64)
        if not times_s.shape == subs.shape == payloads.shape:
            raise ValueError("times_s, subs and payloads must have matching shapes")
        order = np.lexsort((subs, times_s))
        self._lane_t = times_s[order].tolist()
        self._lane_sub = subs[order].tolist()
        self._lane_payload = payloads[order].tolist()
        self._lane_pos = 0

    def push(self, time_s: float, sub: int, payload: int = 0) -> None:
        """Enqueue one event; ``sub`` is a :func:`pack_subkey` value."""
        heapq.heappush(self._entries, (time_s, sub, payload))

    # ------------------------------------------------------------------ #
    # merged view (the static lane wins exact ties)
    # ------------------------------------------------------------------ #
    def pop(self) -> tuple[float, int, int]:
        """Remove and return the next ``(time, subkey, payload)``."""
        entries = self._entries
        lane_pos = self._lane_pos
        if lane_pos < len(self._lane_t):
            lane_t = self._lane_t[lane_pos]
            lane_sub = self._lane_sub[lane_pos]
            if not entries or (lane_t, lane_sub) <= entries[0][:2]:
                self._lane_pos = lane_pos + 1
                self.popped += 1
                if self._sanitize:
                    self._check_order(lane_t, lane_sub, static=True)
                return (lane_t, lane_sub, self._lane_payload[lane_pos])
        if not entries:
            raise IndexError("pop from an empty ArrayEventQueue")
        self.popped += 1
        entry = heapq.heappop(entries)
        if self._sanitize:
            self._check_order(entry[0], entry[1], static=False)
        return entry

    def _check_order(self, time_s: float, sub: int, static: bool) -> None:
        """Assert the merged pop stream is monotone in ``(time, subkey)``.

        A static-lane pop out of order means the lane/dynamic merge broke
        (``lane-order``); a dynamic pop out of order means the structure
        itself violated the total order (``event-order``).
        """
        if (time_s, sub) < self._last:
            lane = "static lane" if static else "dynamic structure"
            raise SanitizerError(
                LANE_ORDER if static else EVENT_ORDER,
                f"ArrayEventQueue[{self.policy}] popped ({time_s}, {sub}) from "
                f"the {lane} after {self._last} (non-monotone pop order)",
                self._trace,
            )
        self._last = (time_s, sub)
        self._trace.note((time_s, sub, "static" if static else "dynamic"))


class IndexRing:
    """An allocation-free multi-lane FIFO over preallocated index arrays.

    The scheduler's stream pipeline slots (one lane per stream, in the
    job lifecycle both engines drive): each lane is a linked list
    threaded through one shared ``next`` array, so a push or pop moves
    two integers and allocates nothing.  An index may be re-pushed after it was popped; pushing an
    index that is still queued corrupts the lane — callers own that
    invariant, exactly as they own not double-releasing a resource.
    """

    __slots__ = ("_next", "_head", "_tail", "_depth", "_sanitize", "_queued")

    def __init__(self, capacity: int, lanes: int = 1):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        if lanes < 1:
            raise ValueError(f"lanes must be at least 1, got {lanes}")
        self._next = [-1] * capacity
        self._head = [-1] * lanes
        self._tail = [-1] * lanes
        self._depth = [0] * lanes
        self._sanitize = sanitize_enabled()
        #: lane an index is queued on, or -1 (sanitized rings only)
        self._queued = [-1] * capacity if self._sanitize else None

    def push(self, lane: int, index: int) -> None:
        """Append ``index`` at the tail of ``lane``."""
        if self._sanitize:
            if not 0 <= lane < len(self._head):
                raise SanitizerError(
                    RING_DISCIPLINE,
                    f"IndexRing push to lane {lane} of {len(self._head)}",
                )
            if not 0 <= index < len(self._next):
                raise SanitizerError(
                    RING_DISCIPLINE,
                    f"IndexRing push of index {index} with capacity {len(self._next)}",
                )
            if self._queued[index] >= 0:
                raise SanitizerError(
                    RING_DISCIPLINE,
                    f"IndexRing double push: index {index} is still queued on "
                    f"lane {self._queued[index]} (would corrupt the linked list)",
                )
            self._queued[index] = lane
        tail = self._tail[lane]
        if tail < 0:
            self._head[lane] = index
        else:
            self._next[tail] = index
        self._tail[lane] = index
        self._next[index] = -1
        self._depth[lane] += 1

    def pop(self, lane: int) -> int:
        """Remove and return the head index of ``lane``."""
        index = self._head[lane]
        if index < 0:
            raise IndexError(f"pop from empty lane {lane}")
        nxt = self._next[index]
        self._head[lane] = nxt
        if nxt < 0:
            self._tail[lane] = -1
        self._depth[lane] -= 1
        if self._sanitize:
            self._queued[index] = -1
        return index


@dataclass(frozen=True)
class TimelineTask:
    """One interval of activity on a resource."""

    name: str
    resource: str
    start_s: float
    duration_s: float
    bandwidth_gbps: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class Timeline:
    """A collection of tasks on shared resources."""

    tasks: list[TimelineTask] = field(default_factory=list)

    def add(
        self,
        name: str,
        resource: str,
        start_s: float,
        duration_s: float,
        bandwidth_gbps: float = 0.0,
    ) -> TimelineTask:
        """Record a task and return it."""
        task = TimelineTask(name, resource, start_s, duration_s, bandwidth_gbps)
        self.tasks.append(task)
        return task

    @property
    def makespan_s(self) -> float:
        """End time of the latest task."""
        if not self.tasks:
            return 0.0
        return max(task.end_s for task in self.tasks)

    def tasks_on(self, resource: str) -> list[TimelineTask]:
        """All tasks bound to one resource, ordered by start time."""
        return sorted(
            (t for t in self.tasks if t.resource == resource), key=lambda t: t.start_s
        )

    def busy_time_s(self, resource: str) -> float:
        """Union length of the busy intervals of a resource."""
        intervals = sorted(
            ((t.start_s, t.end_s) for t in self.tasks if t.resource == resource)
        )
        busy = 0.0
        current_start = current_end = None
        for start, end in intervals:
            if current_end is None or start > current_end:
                if current_end is not None:
                    busy += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            busy += current_end - current_start
        return busy

    def overlap_s(self, name_a: str, name_b: str) -> float:
        """Total time during which two named tasks run concurrently."""
        total = 0.0
        tasks_a = [t for t in self.tasks if t.name == name_a]
        tasks_b = [t for t in self.tasks if t.name == name_b]
        for a in tasks_a:
            for b in tasks_b:
                total += max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
        return total

    def per_task_trace(self, resolution: int = 200) -> dict[str, np.ndarray]:
        """Bandwidth trace per task name (for stacked reporting)."""
        makespan = self.makespan_s
        times = np.linspace(0.0, makespan, resolution) if makespan > 0 else np.zeros(resolution)
        traces: dict[str, np.ndarray] = {"time_s": times}
        for task in self.tasks:
            series = traces.setdefault(task.name, np.zeros(resolution))
            if task.bandwidth_gbps <= 0 or task.duration_s <= 0:
                continue
            mask = (times >= task.start_s) & (times < task.end_s)
            series[mask] += task.bandwidth_gbps
        return traces
