"""The scheduler's job lifecycle, and its struct-of-arrays fast engine.

:func:`_job_lifecycle` owns everything both engines do the same way,
written once over the run's :class:`~repro.sim.jobtable.JobTable` ids: it
builds the table; it runs submit (depth bound, admission, the stream's
pipeline slot), shed, begin, finish (record, release, chain the next
generation job) and the time-sliced stage bookkeeping; it commits and
prices a job's sharded fetch at the session's live residency, once per
distinct split of each priced row; and it assembles the run's
:class:`~repro.sim.scheduler.ScheduleResult` with its energy inputs.  Each
engine keeps only its event substrate and its own end-of-run server drain.
The reference loop (``ServingScheduler._run_reference``,
:mod:`repro.sim.scheduler`) drives the lifecycle from
:class:`~repro.hw.event.EventLoop` callbacks over ``ResourceQueue`` /
``PCIeLinkQueue`` / ``PreemptiveResource``; :func:`run_array`, built for
1k–10k-stream fleets, replaces every per-event closure and server object
with integers moving through preallocated structures:

* events live in an :class:`~repro.hw.event.ArrayEventQueue` as
  ``(time, packed subkey, payload)`` — the whole ``(priority, key, seq)``
  tie-break is one integer (:func:`~repro.hw.event.pack_subkey`), and the
  payload packs a job id and an event-type code (``job << 3 | code``)
  dispatched through an ``if/elif`` table instead of per-event closures;
  the statically known arrival events are bulk-sorted once
  (:meth:`~repro.hw.event.ArrayEventQueue.preload`) and consumed through
  a cursor, never touching the dynamic structure;
* stream pipeline slots (the lifecycle's) are lanes of one
  :class:`~repro.hw.event.IndexRing` — a push or pop moves two integers;
* the time-sliced compute server is the :class:`~repro.hw.event.RoundRobinCore`
  that ``PreemptiveResource`` wraps, called directly: one ``C_SLICE`` heap
  entry per decision, the quantum expiries in between only counted;
* likewise a link request known at its issue event — every private one,
  and a time-sliced V-Rex stage's (the prediction's end) — is granted
  there, counted but never queued, when no link event is queued and no
  later request can precede it (:func:`_in_place_link_delays`): on V-Rex,
  every grant;
* the shared DRE and PCIe link are each a single ``free_at`` float (the
  whole mutable state of a work-conserving FCFS server);
* a job's demands are row ``b = stream * 3 + kind`` of the run's one
  :class:`~repro.sim.scheduler.StageTable`, whose column lists the engine
  binds once and indexes per event — the same table the reference loop,
  the lifecycle, the interval view and the energy post-pass read;

**Bit-exactness contract.**  The engine replays the reference loop's
float operations in the identical order: DRE/link starts are
``max(arrival, free_at)``, issue and exposure inline ``contended_issue`` /
``contended_latency``'s exact expressions (:mod:`repro.sim.batched`), the
time-sliced stages are the reference loop's own
:class:`~repro.sim.batched.StageCore` (driven from heap codes instead of
:class:`~repro.hw.event.EventLoop` callbacks), the server under them is
the reference loop's own core (so both skip the same quantum expiries),
and an in-place link grant performs the reference loop's float operations
in its order, at a point no other grant can come between.  Events keep the
reference loop's ``(time, priority, key)`` order; a ``seq`` only breaks ties
within one stream, which never holds two events of one priority at one
time, so an engine that queues fewer events (and so consumes fewer ``seq``
values) pops the same order — both engines produce the same records, the
same intervals and the same (logical) event counts.  (A time-sliced stage
granted in place whose compute ends first resolves at its request, where
the reference loop's link event is: one uncounted ``C_RESOLVE``.)  The
lifecycle consumes no ``seq`` itself: it asks its engine to schedule a
job's issue event.  The engine-equivalence tests pin this on random fleets.

``seq`` arithmetic uses raw integer adds against per-stream packed bases,
so a run that could queue ``2**28`` events (the
:data:`~repro.hw.event.SUBKEY_SEQ_BITS` budget) is rejected before it
starts.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.devtools.sanitizer import (
    RESOURCE_BALANCE,
    EventTrace,
    SanitizerError,
    sanitize_enabled,
)
from repro.hw.event import (
    MAX_SUBKEY_SEQ,
    ArrayEventQueue,
    IndexRing,
    RoundRobinCore,
    fcfs_arrival,
    pack_subkey,
)
from repro.hw.memory.sharding import sharded_fetch_makespan
from repro.sim.batched import (
    PRIO_ARRIVAL,
    PRIO_COMPLETE,
    PRIO_ISSUE,
    PRIO_LINK,
    TS_COMPUTE,
    TS_DRE,
    TS_FINISH,
    TS_LINK,
    TS_PREDICT,
    StageCore,
)
from repro.sim.jobtable import ADM_BACKLOG, ADM_DEFER, ADM_EVICT, JobTable
from repro.sim.energy import EnergyInputs
from repro.sim.scheduler import (
    DEFER,
    EVICT,
    ScheduleResult,
    _RunContext,
    admission_decision,
)

#: Event-type codes packed into the low payload bits (``payload >> 3`` is
#: the job id; ``C_SLICE`` carries none — the server core knows who runs).
C_ISSUE, C_LINK, C_FINISH, C_SLICE, C_TSLINK, C_RESOLVE = 0, 1, 2, 3, 4, 5


def _job_lifecycle(ctx: _RunContext, server, stage_core: StageCore, schedule_issue):
    """The one job lifecycle of a run, over its :class:`JobTable`'s job ids.

    Builds the run's table.  A submitted job passes the depth bound and the
    admission rule, then takes its stream's pipeline slot — lane ``s`` of
    one :class:`~repro.hw.event.IndexRing` plus a busy flag — or queues on
    it.  It begins once the slot is its own: an inactive stage finishes at
    once, an active one is handed to the engine's one hook,
    ``schedule_issue(job, t)``, at the end of its vision time.  Finishing
    records it, passes the slot to the next queued job and chains the next
    generation job by id.  ``server`` (anything with ``backlog_s()``) is the
    compute backlog admission reads; ``stage_core`` is the engine's
    time-sliced stage core.  A job's demands are row ``b = stream * 3 +
    kind`` of the run's :class:`~repro.sim.scheduler.StageTable`.

    Returns ``(table, submit, finish, resolved, sharded_fetch_s, close)``:
    ``resolved(job, s)`` takes time-sliced stage ``s``'s outcome for ``job``
    (its three waits and its intervals' sources) and returns the finish time
    the engine schedules; ``sharded_fetch_s(s, b, t)`` commits stream
    ``s``'s fetch on the memory plane (the session becomes most recently
    used, its cold shards promote home) and returns row ``b``'s fetch at
    that residency, re-priced only when the row's split moved (equal
    fractions price equal fetches: steady state in memory-bound runs);
    ``close(trace, events, dre_busy_s, link_busy_s)`` checks the slots
    drained and returns the run's :class:`ScheduleResult`, with its
    :class:`~repro.sim.energy.EnergyInputs` from the engine's shared-server
    busy seconds.  ``close`` also drops ``begin``, the one reference cycle
    the closures form (submit → begin → finish → submit), so a finished
    run is freed by refcount, never by the cyclic collector.
    """
    cfg = ctx.config
    stages = ctx.stages
    memory = ctx.memory
    answers = ctx.answers
    num_layers = ctx.num_layers
    max_depth = cfg.max_queue_depth
    admission_rule = cfg.admission != "backlog"
    sanitize = sanitize_enabled()
    session_ids = [profile.session_id for profile in ctx.profiles]
    num_streams = len(session_ids)
    timesliced = cfg.compute == "timesliced"
    table = JobTable(ctx.traces, ctx.question_arrivals, answers, session_ids, timesliced, stages)

    streams = table.streams
    kinds = table.kinds
    gen_base = table.gen_base
    arrival = table.arrival
    start = table.start
    finish_at = table.finish
    dropped = table.dropped
    admission = table.admission
    compute_wait = table.compute_wait
    pcie_wait = table.pcie_wait
    dre_wait = table.dre_wait
    record = table.records.append
    st_active = stages.active
    st_vision = stages.vision_s
    st_demand = stages.demand
    # per row: the split its last sharded fetch saw, and that fetch's price
    st_split: list = [None] * len(st_demand)
    st_fetch_sharded = [0.0] * len(st_demand)

    # stream pipeline slots: lane s of one ring, whose internals the
    # closures inline (a push or pop is two list stores); busy flags
    # replace holders
    ring = IndexRing(table.num_jobs, max(1, num_streams))
    ring_next = ring._next
    ring_head = ring._head
    ring_tail = ring._tail
    ring_depth = ring._depth
    slot_busy = bytearray(num_streams)
    track_busy = memory is not None
    busy: set[int] = set()  # sessions with a job in flight: never eviction victims

    trajectory: list[tuple[float, tuple[float, ...]]] = []
    noted_version = -1

    def note_occupancy(t: float) -> None:
        nonlocal noted_version
        version = memory.occupancy_version
        if version == noted_version:
            return  # no occupancy mutation since the last poll
        noted_version = version
        occupancy = memory.occupancy_snapshot()
        if not trajectory or trajectory[-1][1] != occupancy:
            trajectory.append((t, occupancy))

    if memory is not None:
        note_occupancy(0.0)  # registration-time state

    def shed(job: int, t: float, code: int) -> None:
        """Record a job dropped at admission (it arrives and ends at ``t``)."""
        if sanitize:
            table.san_record(job)
        start[job] = t
        finish_at[job] = t
        dropped[job] = True
        admission[job] = code
        record(job)

    def submit(job: int, t: float) -> None:
        if sanitize:
            table.san_submit(job)
        s = streams[job]
        held = slot_busy[s]
        if held and max_depth is not None and ring_depth[s] >= max_depth:
            shed(job, t, ADM_BACKLOG)
            return
        if admission_rule:
            decision = admission_decision(
                ctx,
                stages,
                s * 3 + kinds[job],
                session_ids[s],
                ring_depth[s] + (1 if held else 0),
                server.backlog_s(),
                busy,
            )
            if decision == DEFER:
                shed(job, t, ADM_DEFER)
                return
            if decision == EVICT:
                admission[job] = ADM_EVICT
                note_occupancy(t)
        if held:
            tail = ring_tail[s]
            if tail < 0:
                ring_head[s] = job
            else:
                ring_next[tail] = job
            ring_tail[s] = job
            ring_next[job] = -1
            ring_depth[s] += 1
        else:
            slot_busy[s] = 1
            if track_busy:
                busy.add(session_ids[s])
            begin(job, t)

    def release(s: int, t: float) -> None:
        head = ring_head[s]
        if head >= 0:
            nxt = ring_next[head]
            ring_head[s] = nxt
            if nxt < 0:
                ring_tail[s] = -1
            ring_depth[s] -= 1
            begin(head, t)
        else:
            slot_busy[s] = 0
            if track_busy:
                busy.discard(session_ids[s])

    def begin(job: int, t: float) -> None:
        if sanitize:
            table.san_begin(job)
        start[job] = t
        b = streams[job] * 3 + kinds[job]
        if not st_active[b]:
            finish(job, t)
            return
        schedule_issue(job, t + st_vision[b])

    def finish(job: int, t: float) -> None:
        if sanitize:
            table.san_record(job)
        finish_at[job] = t
        record(job)
        s = streams[job]
        release(s, t)
        kind = kinds[job]
        if kind == 1:  # question → first generation token
            if answers[s] > 0:
                chained = gen_base[s]
                arrival[chained] = t
                submit(chained, t)
        elif kind == 2 and job - gen_base[s] < answers[s] - 1:
            chained = job + 1
            arrival[chained] = t
            submit(chained, t)

    def resolved(job: int, s: int) -> float:
        compute_wait[job] = stage_core.compute_wait_s[s]
        pcie_wait[job] = stage_core.pcie_wait_s[s]
        dre_wait[job] = stage_core.dre_wait_s[s]
        # the intervals' sources (one compute span per job on the shared lane)
        table.compute_submit.append(stage_core.compute_submit_s[s])
        table.compute_finish.append(stage_core.compute_finish_s[s])
        table.prediction_end.append(stage_core.prediction_end_s[s])
        table.transfer_start.append(stage_core.transfer_start_s[s])
        table.fetch_s.append(stage_core.fetch_s[s])
        table.stage_log.append(job << 1 | 1)
        return stage_core.finish_s[s]

    def sharded_fetch_s(s: int, b: int, t: float) -> float:
        split = memory.commit_fetch(session_ids[s], protected=busy)
        note_occupancy(t)
        if split != st_split[b]:
            st_split[b] = split
            demand = st_demand[b]
            warm, cold = demand.warm_time_s, demand.cold_time_s
            makespan = sharded_fetch_makespan(demand.fetch_bytes, split, warm, cold)
            st_fetch_sharded[b] = makespan * num_layers
        return st_fetch_sharded[b]

    def close(
        trace: EventTrace | None, events: int, dre_busy_s: float, link_busy_s: float
    ) -> ScheduleResult:
        nonlocal begin
        if sanitize and (any(slot_busy) or any(ring_depth)):
            # end-of-run drain: no slot still held, no job still queued
            undrained = [s for s in range(num_streams) if slot_busy[s] or ring_depth[s]]
            raise SanitizerError(
                RESOURCE_BALANCE,
                f"run ended with undrained stream slots {undrained} "
                f"(acquires not balanced by releases)",
                trace,
            )
        begin = None
        columns = table.finalize(cfg.deadline_s)
        return ScheduleResult(
            system=ctx.system.name, config=cfg, num_streams=num_streams, columns=columns,
            events_processed=events, oom=ctx.plane._batched_oom(ctx.system, ctx.profiles),
            memory=memory, bank_occupancy_trajectory=trajectory, table=table,
            energy_inputs=EnergyInputs(ctx.system.device, stages, dre_busy_s, link_busy_s),
        )  # fmt: skip

    return table, submit, finish, resolved, sharded_fetch_s, close


def _in_place_link_delays(is_vrex: bool, timesliced: bool, stages) -> tuple[float, float]:
    """``(dre, direct)``: the least issue-to-link-request delays of a run.

    A later request comes no earlier than the FCFS DRE's ``free_at`` plus
    ``dre`` (V-Rex stages granted on the DRE) or than its issue, at or after
    ``now``, plus ``direct`` (every other fetching stage; a serial one
    requests at ``(issue + prediction) + compute``, never below the issue
    plus the larger term after rounding), so a request below both precedes
    it.  (The DRE bound blocks a job granted on the DRE only when rounding
    absorbs ``dre`` into ``free_at``: then a later request could tie it.)
    A time-sliced GPU stage requests the link when the shared server ends
    its work, which no delay bounds: ``-inf`` grants nothing in place.
    """
    if timesliced and not is_vrex:
        return float("-inf"), float("-inf")
    dre = direct = float("inf")
    rows = zip(
        stages.active, stages.fetch_s, stages.demand, stages.on_dre, stages.overlaps,
        stages.prediction_s, stages.compute_s,
    )  # fmt: skip
    for active, fetch_s, demand, on_dre, overlaps, prediction_s, compute_s in rows:
        if not active or (fetch_s <= 0.0 and demand is None):
            continue  # never requests the link (a sharded fetch prices its bytes)
        if is_vrex and on_dre and prediction_s > 0.0:
            dre = min(dre, prediction_s)
        elif is_vrex or overlaps:
            direct = min(direct, prediction_s)
        else:
            direct = min(direct, max(prediction_s, compute_s))
    return dre, direct


def run_array(ctx: _RunContext) -> ScheduleResult:
    """Simulate one validated run on the array engine."""
    cfg = ctx.config
    profiles = ctx.profiles
    num_streams = len(profiles)
    traces = ctx.traces
    question_arrivals = ctx.question_arrivals
    is_vrex = ctx.is_vrex
    stages = ctx.stages
    timesliced = cfg.compute == "timesliced"
    quantum = cfg.quantum_s
    sanitize = sanitize_enabled()

    # preemptive compute server (timesliced mode): the shared core, plus
    # per server-job id its owning job and what it computes
    # (``job << 1 | kind``, kind 0 = prediction, 1 = compute)
    server = RoundRobinCore(quantum)
    server_owner: list[int] = []
    stage_core = StageCore(is_vrex, num_streams)

    def schedule_issue(job: int, t: float) -> None:
        """The lifecycle's one hook: queue ``job``'s issue event at ``t``."""
        nonlocal seq
        heappush(entries, (t, base_issue[streams[job]] + seq, (job << 3) | C_ISSUE))
        seq += 1

    table, submit, finish, resolved, sharded_fetch_s, close = _job_lifecycle(
        ctx, server, stage_core, schedule_issue
    )
    num_jobs = table.num_jobs
    streams = table.streams
    kinds = table.kinds
    j_start = table.start
    j_pcie = table.pcie_wait
    j_dre = table.dre_wait

    # the stage table's columns, b = stream * 3 + kind
    st_on_dre = stages.on_dre
    st_overlaps = stages.overlaps
    st_vision = stages.vision_s
    st_compute = stages.compute_s
    st_pred = stages.prediction_s
    st_fetch = stages.fetch_s
    st_demand = stages.demand

    # packed subkey bases: rank of (session_id, stream) in the run's sorted
    # key set makes integer subkey order == the EventLoop's tuple order
    session_ids = [profile.session_id for profile in profiles]
    keys = sorted((session_ids[s], s) for s in range(num_streams))
    rank_of = {key: rank for rank, key in enumerate(keys)}
    base_complete = [0] * num_streams
    base_arrival = [0] * num_streams
    base_issue = [0] * num_streams
    base_link = [0] * num_streams
    for s in range(num_streams):
        rank = rank_of[(session_ids[s], s)]
        base_complete[s] = pack_subkey(PRIO_COMPLETE, rank, 0)
        base_arrival[s] = pack_subkey(PRIO_ARRIVAL, rank, 0)
        base_issue[s] = pack_subkey(PRIO_ISSUE, rank, 0)
        base_link[s] = pack_subkey(PRIO_LINK, rank, 0)

    # arrival lane: the reference loop schedules per stream its frames then
    # its question, consuming seqs 0..A-1; dynamic events continue at A
    queue = ArrayEventQueue("heap")
    lane_t_parts = []
    lane_sub_parts = []
    lane_job_parts = []
    seq = 0
    for s in range(num_streams):
        frames = len(traces[s])
        if frames:
            lane_t_parts.append(np.asarray(traces[s], dtype=float))
            lane_sub_parts.append(
                base_arrival[s] + np.arange(seq, seq + frames, dtype=np.int64)
            )
            first = table.frame_base[s]
            lane_job_parts.append(
                (np.arange(first, first + frames, dtype=np.int64) << 3) | C_ISSUE
            )
            seq += frames
        if question_arrivals[s] is not None:
            lane_t_parts.append(np.array([float(question_arrivals[s])]))
            lane_sub_parts.append(np.array([base_arrival[s] + seq], dtype=np.int64))
            lane_job_parts.append(
                np.array([table.question_id[s] << 3], dtype=np.int64)
            )
            seq += 1
    if lane_t_parts:
        queue.preload(
            np.concatenate(lane_t_parts),
            np.concatenate(lane_sub_parts),
            np.concatenate(lane_job_parts),
        )
    entries = queue._entries
    # the queue's own sanitizer: its pop-order check and event trace
    check_order = queue._check_order
    trace = queue._trace
    lane_t = queue._lane_t
    lane_sub = queue._lane_sub
    lane_job = queue._lane_payload
    lane_i = 0
    lane_n = len(lane_t)
    # a queued event's seq is added raw to a packed base: refuse a run that
    # could carry into the rank bits.  It queues at most the lane and 3 per
    # job (issue, link, finish); time-sliced compute adds 2 dispatches and 2
    # part slices per job, and a slice per quantum of priced work
    bound = lane_n + 3 * num_jobs
    if timesliced:
        work = (np.asarray(st_pred) + np.asarray(st_compute))[table.stream * 3 + table.kind]
        bound += 4 * num_jobs + int(np.ceil(work.sum() / quantum))
    if bound > MAX_SUBKEY_SEQ:
        raise ValueError(
            f"run may queue {bound} events, beyond the array engine's budget of "
            f"{MAX_SUBKEY_SEQ} per run; split it into smaller runs"
        )

    # per-job private-compute link timing (also the intervals' sources)
    if not timesliced:
        j_fetch = table.fetch_s
        j_request = table.request
        j_transfer = table.transfer_start
    dre_delay, direct_delay = _in_place_link_delays(is_vrex, timesliced, stages)
    link_name = ctx.device.link.config.name
    link_last = float("-inf")  # sanitizer: the last link request granted
    links_queued = 0
    stage_log = table.stage_log.append if timesliced else None

    # shared FCFS servers: their whole mutable state is one float each,
    # plus a busy-seconds accumulator feeding the energy plane (added in
    # grant order, matching ResourceQueue._busy_total_s bit for bit)
    dre_free = 0.0
    link_free = 0.0
    dre_busy = 0.0
    link_busy = 0.0

    now = 0.0
    events = 0

    # ------------------------------------------------------------------ #
    # preemptive server: the core's transitions, one heap entry per
    # decision, keyed by the running job's stream like the reference loop
    # ------------------------------------------------------------------ #
    def server_submit(job: int, kind_flag: int, work_s: float) -> None:
        nonlocal seq
        server_owner.append((job << 1) | kind_flag)
        server.submit(work_s)
        if server.running < 0:  # idle, so the ring holds only this job
            heappush(
                entries,
                (server.dispatch(now), base_complete[streams[job]] + seq, C_SLICE),
            )
            seq += 1

    # ------------------------------------------------------------------ #
    # time-sliced stages: the stage core, by stream, driven from the heap
    # codes (the DRE is granted at C_ISSUE, the link at C_TSLINK); the
    # other decisions are applied here, in bit order
    # ------------------------------------------------------------------ #
    ts_issued = stage_core.issued
    ts_prediction_done = stage_core.prediction_done
    ts_compute_done = stage_core.compute_done
    ts_link_granted = stage_core.link_granted
    ts_compute = stage_core.compute_s
    ts_prediction = stage_core.prediction_s
    ts_fetch = stage_core.fetch_s
    ts_request = stage_core.request_s

    def ts_apply(job: int, s: int, decision: int) -> None:
        nonlocal seq, links_queued
        if decision == TS_FINISH:  # always alone: the stage asks for nothing more
            heappush(entries, (resolved(job, s), base_complete[s] + seq, (job << 3) | C_FINISH))
            seq += 1
            return
        if decision & TS_PREDICT:
            server_submit(job, 0, ts_prediction[s])
        elif decision & TS_COMPUTE:
            server_submit(job, 1, ts_compute[s])
        if decision & TS_LINK:
            links_queued += 1
            heappush(entries, (ts_request[s], base_link[s] + seq, (job << 3) | C_TSLINK))
            seq += 1

    def ts_grant_link(s: int, request: float) -> int:
        """Grant stage ``s``'s link request, made at ``request``; returns the stage's decision."""
        nonlocal link_free, link_busy, link_last
        if sanitize:
            link_last = fcfs_arrival(link_name, link_last, request, trace)
        fetch = ts_fetch[s]
        transfer_start = request if request >= link_free else link_free
        link_free = transfer_start + fetch
        link_busy += fetch
        return ts_link_granted(s, transfer_start)

    # ------------------------------------------------------------------ #
    # private link grant: inline PCIeLinkQueue.enqueue + contended_latency
    # ------------------------------------------------------------------ #
    def grant_link(job: int, s: int, b: int, start: float, request: float, fetch: float) -> None:
        """Grant the link request ``job`` makes at ``request`` (its stage issued at ``start``)."""
        nonlocal link_free, link_busy, link_last, seq
        if sanitize:
            link_last = fcfs_arrival(link_name, link_last, request, trace)
        if fetch == 0.0:  # simlint: exact — zero-byte sentinel, set literally
            transfer_start = request
            fetch_end = request
        else:
            transfer_start = request if request >= link_free else link_free
            fetch_end = transfer_start + fetch
            link_free = fetch_end
            link_busy += fetch
        j_pcie[job] = transfer_start - request
        j_transfer[job] = transfer_start
        compute_s = st_compute[b]
        if is_vrex:
            hidden = fetch_end - start
            latency = compute_s if compute_s >= hidden else hidden
        elif st_overlaps[b]:
            fetch_effective = fetch_end - request
            latency = st_pred[b] + (compute_s if compute_s >= fetch_effective else fetch_effective)
        else:
            latency = st_pred[b] + compute_s + (fetch_end - request)
        heappush(entries, (start + latency, base_complete[s] + seq, (job << 3) | C_FINISH))
        seq += 1

    # ------------------------------------------------------------------ #
    # dispatch loop
    # ------------------------------------------------------------------ #
    server_slice_ended = server.slice_ended
    inf = float("inf")
    while True:
        if lane_i < lane_n:
            if entries:
                top = entries[0]
                next_t = top[0]
                this_t = lane_t[lane_i]
                if next_t < this_t or (
                    next_t == this_t and top[1] < lane_sub[lane_i]
                ):
                    heappop(entries)
                    now = next_t
                    payload = top[2]
                    if sanitize:
                        check_order(next_t, top[1], False)
                else:
                    now = this_t
                    events += 1
                    if sanitize:
                        check_order(this_t, lane_sub[lane_i], True)
                    submit(lane_job[lane_i] >> 3, now)
                    lane_i += 1
                    continue
            else:
                now = lane_t[lane_i]
                events += 1
                if sanitize:
                    check_order(now, lane_sub[lane_i], True)
                submit(lane_job[lane_i] >> 3, now)
                lane_i += 1
                continue
        elif entries:
            top = heappop(entries)
            now = top[0]
            payload = top[2]
            if sanitize:
                check_order(now, top[1], False)
        else:
            break
        events += 1
        code = payload & 7
        job = payload >> 3

        if code == C_ISSUE:
            s = streams[job]
            b = s * 3 + kinds[job]
            # per-job fetch at the session's current residency
            if st_demand[b] is None:
                fetch = st_fetch[b]
            else:
                fetch = sharded_fetch_s(s, b, now)
            compute_s = st_compute[b]
            prediction_s = st_pred[b]
            if timesliced:
                stage_log(job << 1)
                decision = ts_issued(
                    s, now, st_overlaps[b], st_on_dre[b], compute_s, prediction_s, fetch
                )
                if decision & TS_DRE:
                    served_at = now if now >= dre_free else dre_free
                    dre_free = served_at + prediction_s
                    dre_busy += prediction_s
                    decision = ts_prediction_done(s, now, dre_free, served_at - now)
                if decision & TS_LINK and not links_queued:
                    request = ts_request[s]
                    if request < now + direct_delay and request < dre_free + dre_delay:
                        # a V-Rex request is the prediction's end, known here: grant
                        # it now, as one processed event, after the compute's submit
                        ts_apply(job, s, decision ^ TS_LINK)
                        events += 1
                        if sanitize:
                            trace.note((request, base_link[s], f"job {job} link granted in place"))
                        if ts_grant_link(s, request):  # no compute: done, resolved at the request
                            heappush(entries, (request, base_link[s] + seq, (job << 3) | C_RESOLVE))
                            seq += 1
                        continue
                ts_apply(job, s, decision)
                continue
            # private compute: the DRE grant, then inline contended_issue
            # (on V-Rex the request is the prediction's end)
            if is_vrex:
                if st_on_dre[b] and prediction_s > 0.0:
                    served_at = now if now >= dre_free else dre_free
                    j_dre[job] = served_at - now
                    request = served_at + prediction_s
                    dre_free = request
                    dre_busy += prediction_s
                else:
                    request = now + prediction_s
            elif st_overlaps[b]:
                request = now + prediction_s
            else:
                request = now + prediction_s + compute_s
            if st_fetch[b] > 0.0:
                j_request[job] = request
                j_fetch[job] = fetch
                if links_queued or request >= now + direct_delay or request >= dre_free + dre_delay:
                    links_queued += 1
                    heappush(entries, (request, base_link[s] + seq, (job << 3) | C_LINK))
                    seq += 1
                else:
                    # no later request can precede this one: grant it here,
                    # as one processed event
                    events += 1
                    if sanitize:
                        trace.note((request, base_link[s], f"job {job} link granted in place"))
                    grant_link(job, s, b, now, request, fetch)
            else:
                # inline contended_latency with no transfer
                if is_vrex:
                    hidden = request - now
                    latency = compute_s if compute_s >= hidden else hidden
                else:
                    latency = prediction_s + compute_s
                finish_s = now + latency
                heappush(
                    entries,
                    (finish_s, base_complete[s] + seq, (job << 3) | C_FINISH),
                )
                seq += 1

        elif code == C_LINK:
            links_queued -= 1
            s = streams[job]
            b = s * 3 + kinds[job]
            grant_link(job, s, b, j_start[job] + st_vision[b], now, j_fetch[job])

        elif code == C_FINISH:
            finish(job, now)

        elif code == C_SLICE:
            # the ring is fixed until the next queued event or arrival, so
            # the core may take the quantum expiries strictly before it
            horizon = entries[0][0] if entries else inf
            if lane_i < lane_n and lane_t[lane_i] < horizon:
                horizon = lane_t[lane_i]
            finished, last, next_end, skipped = server_slice_ended(now, horizon)
            if next_end is not None:
                s = streams[server_owner[server.running] >> 1]
                heappush(entries, (next_end, base_complete[s] + seq, C_SLICE))
                seq += 1
            if finished >= 0:
                tag = server_owner[finished]
                owner = tag >> 1
                s = streams[owner]
                if tag & 1:
                    decision = ts_compute_done(s, now)
                else:
                    decision = ts_prediction_done(s, now, now)
                if decision == TS_FINISH and ts_fetch[s] > 0.0 and ts_request[s] >= now:
                    # granted in place, its compute ended first (or with it):
                    # resolve it at its request, the reference loop's link event
                    heappush(entries, (ts_request[s], base_link[s] + seq, (owner << 3) | C_RESOLVE))
                    seq += 1
                elif decision:
                    ts_apply(owner, s, decision)
            elif skipped:
                events += skipped
                if sanitize:
                    trace.note((now + quantum, last, f"{skipped} slices fast-forwarded"))

        elif code == C_TSLINK:  # timesliced link grant
            links_queued -= 1
            s = streams[job]
            decision = ts_grant_link(s, now)
            if decision:
                ts_apply(job, s, decision)

        else:  # C_RESOLVE: a stage granted in place, resolved at its request
            events -= 1  # counted as the link event at its grant
            ts_apply(job, streams[job], TS_FINISH)

    if sanitize:
        # end-of-run drain: the preemptive server's work served and conserved
        server.assert_drained("array engine's preemptive server", trace)
    queue._lane_pos = lane_i
    return close(trace, events, dre_busy, link_busy)
