"""The scheduler's job lifecycle, and its struct-of-arrays fast engine.

:func:`_job_lifecycle` is the one job lifecycle of the serving scheduler —
submit (depth bound, admission, the stream's pipeline slot), shed, begin,
finish (record, release, chain the next generation job) and the
time-sliced stage bookkeeping — written once over the run's
:class:`~repro.sim.jobtable.JobTable` ids.  Both engines drive it; each
keeps only its event substrate.  The reference loop
(``ServingScheduler._run_reference``, :mod:`repro.sim.scheduler`) drives
it from :class:`~repro.hw.event.EventLoop` callbacks over
``ResourceQueue`` / ``PCIeLinkQueue`` / ``PreemptiveResource``;
:func:`run_array`, built for 1k–10k-stream fleets, replaces every
per-event closure and server object with integers moving through
preallocated structures:

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
* the shared DRE and PCIe link are each a single ``free_at`` float (the
  whole mutable state of a work-conserving FCFS server);
* a stage's sharded fetch is priced once per distinct residency split:
  ``C_ISSUE`` keeps the stage's last split and its makespan and reuses it
  while the split is value-equal — steady state in memory-bound runs,
  whose splits rarely move between a stage's fetches.

**Bit-exactness contract.**  The engine replays the reference loop's
float operations in the identical order: DRE/link starts are
``max(arrival, free_at)``, issue and exposure inline ``contended_issue`` /
``contended_latency``'s exact expressions (:mod:`repro.sim.batched`), the
time-sliced stages are the reference loop's own
:class:`~repro.sim.batched.StageCore` (driven from heap codes instead of
:class:`~repro.hw.event.EventLoop` callbacks), the server under them is
the reference loop's own core (so both skip the same quantum expiries),
and every queued event's ``seq`` is consumed at the same point the
reference loop's ``EventLoop.schedule`` would consume it — so both
engines produce the same event order, the same records, the same
timelines and the same (logical) event counts.  The lifecycle consumes
no ``seq`` itself: it asks its engine to schedule a job's issue event.
The engine-equivalence tests pin this on random fleets.

``seq`` arithmetic uses raw integer adds against per-stream packed bases;
a single run is limited to ``2**28`` scheduled events (the
:data:`~repro.hw.event.SUBKEY_SEQ_BITS` budget), vastly beyond any
practical run.
"""

from __future__ import annotations

from heapq import heappop, heappush

import numpy as np

from repro.devtools.sanitizer import (
    EVENT_ORDER,
    LANE_ORDER,
    RESOURCE_BALANCE,
    EventTrace,
    SanitizerError,
    sanitize_enabled,
)
from repro.hw.event import ArrayEventQueue, IndexRing, RoundRobinCore, pack_subkey
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
from repro.sim.jobtable import (
    ADM_BACKLOG,
    ADM_DEFER,
    ADM_EVICT,
    KIND_NAMES,
    JobTable,
    TL_COMPUTE,
    TL_DRE,
    TL_PCIE,
    TL_RECORD,
    TL_VISION,
)
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
C_ISSUE, C_LINK, C_FINISH, C_SLICE, C_TSLINK = 0, 1, 2, 3, 4


def _job_lifecycle(ctx: _RunContext, table: JobTable, server, stages: StageCore, schedule_issue):
    """The one job lifecycle of a run, over ``table``'s job ids.

    A submitted job passes the depth bound and the admission rule, then
    takes its stream's pipeline slot — lane ``s`` of one
    :class:`~repro.hw.event.IndexRing` plus a busy flag — or queues on it.
    It begins once the slot is its own: an inactive stage finishes at
    once, an active one is handed to the engine's one hook,
    ``schedule_issue(job, t)``, at the end of its vision time.  Finishing
    records it, passes the slot to the next queued job and chains the next
    generation job by id.  ``server`` (anything with ``backlog_s()``) is the
    compute backlog admission reads; ``stages`` is the engine's
    time-sliced stage core.

    Returns ``(submit, finish, resolved, fetch_split, close)``:
    ``resolved(job, s)`` takes stage ``s``'s outcome for ``job`` (its three
    waits, its compute/DRE/PCIe log entries) and returns the finish time
    the engine schedules; ``fetch_split(s, t)`` commits stream ``s``'s
    fetch on the memory plane and returns its residency split;
    ``close(trace)`` checks the slots drained and returns the run's
    ``(columns, occupancy trajectory)``.  ``close`` also drops ``begin``,
    the one reference cycle the closures form (submit → begin → finish →
    submit), so a finished run is freed by refcount, never by the cyclic
    collector.
    """
    cfg = ctx.config
    priced = ctx.priced
    memory = ctx.memory
    answers = ctx.answers
    max_depth = cfg.max_queue_depth
    admission_rule = cfg.admission != "backlog"
    sanitize = sanitize_enabled()
    session_ids = [profile.session_id for profile in ctx.profiles]
    num_streams = len(session_ids)

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
    tl_pack = TL_RECORD.pack
    tl_extend = table.timeline_log.extend
    # per-(stream, kind) stage columns, b = stream * 3 + kind
    stage_list = [stage_map[kind] for stage_map in priced for kind in KIND_NAMES]
    st_active = [stage.active for stage in stage_list]
    st_vision = [stage.vision_s for stage in stage_list]
    st_on_dre = [stage.on_dre for stage in stage_list]

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
                priced[s][KIND_NAMES[kinds[job]]],
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
        compute_wait[job] = stages.compute_wait_s[s]
        pcie_wait[job] = stages.pcie_wait_s[s]
        dre_wait[job] = stages.dre_wait_s[s]
        if stages.compute_s[s] > 0.0:
            # one span on the shared lane per job; the round-robin slices of
            # concurrent jobs interleave inside their spans
            submit_s = stages.compute_submit_s[s]
            tl_extend(tl_pack(job, TL_COMPUTE, submit_s, stages.compute_finish_s[s] - submit_s))
        prediction_s = stages.prediction_s[s]
        if st_on_dre[s * 3 + kinds[job]] and prediction_s > 0.0:
            tl_extend(tl_pack(job, TL_DRE, stages.prediction_end_s[s] - prediction_s, prediction_s))
        if stages.fetch_s[s] > 0.0:
            tl_extend(tl_pack(job, TL_PCIE, stages.transfer_start_s[s], stages.fetch_s[s]))
        return stages.finish_s[s]

    def fetch_split(s: int, t: float):
        split = memory.commit_fetch(session_ids[s], protected=busy)
        note_occupancy(t)
        return split

    def close(trace: EventTrace | None):
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
        return table.finalize(cfg.deadline_s), trajectory

    return submit, finish, resolved, fetch_split, close


def run_array(ctx: _RunContext) -> ScheduleResult:
    """Simulate one validated run on the array engine."""
    cfg = ctx.config
    profiles = ctx.profiles
    num_streams = len(profiles)
    traces = ctx.traces
    question_arrivals = ctx.question_arrivals
    memory = ctx.memory
    is_vrex = ctx.is_vrex
    num_layers = ctx.num_layers
    priced = ctx.priced
    timesliced = cfg.compute == "timesliced"
    quantum = cfg.quantum_s

    # sanitizer state: the engine inlines its queue internals, so the order
    # checks are inlined here too (one predictable branch per event when
    # disabled)
    sanitize = sanitize_enabled()
    trace = EventTrace() if sanitize else None
    san_last = (float("-inf"), -(1 << 62))

    session_ids = [profile.session_id for profile in profiles]
    table = JobTable(traces, question_arrivals, ctx.answers, session_ids)
    num_jobs = table.num_jobs

    streams = table.streams
    kinds = table.kinds
    j_start = table.start
    j_pcie = table.pcie_wait
    j_dre = table.dre_wait

    # flattened per-(stream, kind) stage columns, b = stream * 3 + kind
    st_on_dre: list = []
    st_overlaps: list = []
    st_vision: list = []
    st_compute: list = []
    st_pred: list = []
    st_fetch: list = []
    st_fbytes: list = []
    st_warm: list = []
    st_cold: list = []
    for stage_map in priced:
        for kind_name in KIND_NAMES:
            stage = stage_map[kind_name]
            st_on_dre.append(stage.on_dre)
            st_overlaps.append(stage.overlaps)
            st_vision.append(stage.vision_s)
            st_compute.append(stage.compute_s)
            st_pred.append(stage.prediction_s)
            st_fetch.append(stage.fetch_s)
            st_fbytes.append(stage.fetch_bytes_layer)
            st_warm.append(stage.warm_time_s)
            st_cold.append(stage.cold_time_s)
    # per stage: the split its last sharded fetch saw, and that fetch's price
    st_split: list = [None] * len(st_fbytes)
    st_fetch_sharded = [0.0] * len(st_fbytes)

    # packed subkey bases: rank of (session_id, stream) in the run's sorted
    # key set makes integer subkey order == the EventLoop's tuple order
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
    lane_t = queue._lane_t
    lane_sub = queue._lane_sub
    lane_job = queue._lane_payload
    lane_i = 0
    lane_n = len(lane_t)

    # per-job private-compute link timing
    j_fetch = [0.0] * num_jobs
    j_tstart = [0.0] * num_jobs  # private stage start
    j_request = [0.0] * num_jobs  # private link-request time

    # preemptive compute server (timesliced mode): the shared core, plus
    # per server-job id its owning job and what it computes
    # (``job << 1 | kind``, kind 0 = prediction, 1 = compute)
    server = RoundRobinCore(quantum)
    server_owner: list[int] = []

    # shared FCFS servers: their whole mutable state is one float each,
    # plus a busy-seconds accumulator feeding the energy plane (added in
    # grant order, matching ResourceQueue._busy_total_s bit for bit)
    dre_free = 0.0
    link_free = 0.0
    dre_busy = 0.0
    link_busy = 0.0

    tl_pack = TL_RECORD.pack
    tl_extend = table.timeline_log.extend
    now = 0.0
    events = 0

    def san_pop(t: float, sub: int, static: bool) -> None:
        """Sanitizer: the merged pop stream must be monotone in (t, sub)."""
        nonlocal san_last
        if (t, sub) < san_last:
            raise SanitizerError(
                LANE_ORDER if static else EVENT_ORDER,
                f"array engine popped ({t}, {sub}) from the "
                f"{'static lane' if static else 'heap'} after {san_last} "
                f"(non-monotone pop order)",
                trace,
            )
        san_last = (t, sub)
        trace.note((t, sub, "lane" if static else "heap"))

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
    stages = StageCore(is_vrex, num_streams)
    ts_issued = stages.issued
    ts_prediction_done = stages.prediction_done
    ts_compute_done = stages.compute_done
    ts_link_granted = stages.link_granted
    ts_compute = stages.compute_s
    ts_prediction = stages.prediction_s
    ts_fetch = stages.fetch_s

    def ts_apply(job: int, s: int, decision: int) -> None:
        nonlocal seq
        if decision == TS_FINISH:  # always alone: the stage asks for nothing more
            heappush(entries, (resolved(job, s), base_complete[s] + seq, (job << 3) | C_FINISH))
            seq += 1
            return
        if decision & TS_PREDICT:
            server_submit(job, 0, ts_prediction[s])
        elif decision & TS_COMPUTE:
            server_submit(job, 1, ts_compute[s])
        if decision & TS_LINK:
            heappush(entries, (stages.request_s[s], base_link[s] + seq, (job << 3) | C_TSLINK))
            seq += 1

    # ------------------------------------------------------------------ #
    # the job lifecycle; its one hook queues a job's issue event
    # ------------------------------------------------------------------ #
    def schedule_issue(job: int, t: float) -> None:
        nonlocal seq
        heappush(entries, (t, base_issue[streams[job]] + seq, (job << 3) | C_ISSUE))
        seq += 1

    submit, finish, resolved, fetch_split, close = _job_lifecycle(
        ctx, table, server, stages, schedule_issue
    )

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
                        san_pop(next_t, top[1], False)
                else:
                    now = this_t
                    events += 1
                    if sanitize:
                        san_pop(this_t, lane_sub[lane_i], True)
                    submit(lane_job[lane_i] >> 3, now)
                    lane_i += 1
                    continue
            else:
                now = lane_t[lane_i]
                events += 1
                if sanitize:
                    san_pop(now, lane_sub[lane_i], True)
                submit(lane_job[lane_i] >> 3, now)
                lane_i += 1
                continue
        elif entries:
            top = heappop(entries)
            now = top[0]
            payload = top[2]
            if sanitize:
                san_pop(now, top[1], False)
        else:
            break
        events += 1
        code = payload & 7
        job = payload >> 3

        if code == C_ISSUE:
            s = streams[job]
            b = s * 3 + kinds[job]
            # per-job fetch at the session's current residency, re-priced
            # only when the split moved (equal fractions price equal fetches)
            if memory is not None and st_fbytes[b] > 0.0:
                split = fetch_split(s, now)
                if split != st_split[b]:
                    st_split[b] = split
                    st_fetch_sharded[b] = (
                        sharded_fetch_makespan(st_fbytes[b], split, st_warm[b], st_cold[b])
                        * num_layers
                    )
                fetch = st_fetch_sharded[b]
            else:
                fetch = st_fetch[b]
            vision_s = st_vision[b]
            compute_s = st_compute[b]
            prediction_s = st_pred[b]
            if timesliced:
                if vision_s > 0.0:
                    tl_extend(tl_pack(job, TL_VISION, j_start[job], vision_s))
                decision = ts_issued(
                    s, now, st_overlaps[b], st_on_dre[b], compute_s, prediction_s, fetch
                )
                if decision & TS_DRE:
                    served_at = now if now >= dre_free else dre_free
                    dre_free = served_at + prediction_s
                    dre_busy += prediction_s
                    decision = ts_prediction_done(s, now, dre_free, served_at - now)
                ts_apply(job, s, decision)
                continue
            # private compute: the DRE grant, then inline contended_issue
            if is_vrex:
                if st_on_dre[b] and prediction_s > 0.0:
                    served_at = now if now >= dre_free else dre_free
                    dre_wait = served_at - now
                    pend = served_at + prediction_s
                    dre_free = pend
                    dre_busy += prediction_s
                    j_dre[job] = dre_wait
                else:
                    pend = now + prediction_s
                    dre_wait = 0.0
                request = pend
            elif st_overlaps[b]:
                pend = now + prediction_s
                request = pend
                dre_wait = 0.0
            else:
                pend = now + prediction_s
                request = now + prediction_s + compute_s
                dre_wait = 0.0
            if vision_s > 0.0:
                tl_extend(tl_pack(job, TL_VISION, j_start[job], vision_s))
            if compute_s > 0.0:
                tl_extend(tl_pack(job, TL_COMPUTE, now, compute_s))
            if st_on_dre[b] and prediction_s > 0.0:
                tl_extend(tl_pack(job, TL_DRE, now + dre_wait, prediction_s))
            if st_fetch[b] > 0.0:
                j_tstart[job] = now
                j_request[job] = request
                j_fetch[job] = fetch
                heappush(entries, (request, base_link[s] + seq, (job << 3) | C_LINK))
                seq += 1
            else:
                # inline contended_latency with no transfer
                if is_vrex:
                    hidden = pend - now
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
            # private link grant: inline PCIeLinkQueue.enqueue + contended_latency
            fetch = j_fetch[job]
            if fetch == 0.0:  # simlint: exact — zero-byte sentinel, set literally
                transfer_start = now
                fetch_end = now
            else:
                transfer_start = now if now >= link_free else link_free
                fetch_end = transfer_start + fetch
                link_free = fetch_end
                link_busy += fetch
            j_pcie[job] = transfer_start - now
            tl_extend(tl_pack(job, TL_PCIE, transfer_start, fetch))
            s = streams[job]
            b = s * 3 + kinds[job]
            start = j_tstart[job]
            compute_s = st_compute[b]
            if is_vrex:
                hidden = fetch_end - start
                latency = compute_s if compute_s >= hidden else hidden
            elif st_overlaps[b]:
                fetch_effective = fetch_end - j_request[job]
                latency = st_pred[b] + (
                    compute_s if compute_s >= fetch_effective else fetch_effective
                )
            else:
                latency = st_pred[b] + compute_s + (fetch_end - j_request[job])
            finish_s = start + latency
            heappush(
                entries, (finish_s, base_complete[s] + seq, (job << 3) | C_FINISH)
            )
            seq += 1

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
                if decision:
                    ts_apply(owner, s, decision)
            elif skipped:
                events += skipped
                if sanitize:
                    trace.note((now + quantum, last, f"{skipped} slices fast-forwarded"))

        else:  # C_TSLINK: timesliced link grant
            s = streams[job]
            fetch = ts_fetch[s]
            transfer_start = now if now >= link_free else link_free
            link_free = transfer_start + fetch
            link_busy += fetch
            decision = ts_link_granted(s, transfer_start)
            if decision:
                ts_apply(job, s, decision)

    if sanitize:
        # end-of-run drain: the preemptive server's work served and conserved
        server.assert_drained("array engine's preemptive server", trace)
    queue._lane_pos = lane_i
    columns, trajectory = close(trace)
    return ScheduleResult(
        system=ctx.system.name,
        config=cfg,
        num_streams=num_streams,
        events_processed=events,
        oom=ctx.plane._batched_oom(ctx.system, profiles),
        memory=memory,
        bank_occupancy_trajectory=trajectory,
        columns=columns,
        table=table,
        timesliced=timesliced,
        energy_inputs=EnergyInputs(
            device=ctx.system.device,
            priced=priced,
            dre_busy_s=dre_busy,
            link_busy_s=link_busy,
        ),
    )
