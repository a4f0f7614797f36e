"""Struct-of-arrays job bookkeeping of a scheduler run.

Both scheduler engines (:mod:`repro.sim.scheduler`'s reference loop and
:mod:`repro.sim.engine`'s array engine) name a unit of work by a dense
integer id into one :class:`JobTable` and drive one job lifecycle over
those ids (:func:`repro.sim.engine._job_lifecycle`).  There is no job
object, no record row and no per-interval timeline object:

* :class:`JobTable` — static per-job numpy columns (stream, kind, index,
  session) built once per run with every potential job pre-enumerated
  (frames and questions from the traces, generation jobs from the answer
  budgets), per-job outcome buffers the lifecycle fills by id, the ids in
  record order, and a timeline log of packed ``(job, resource code,
  start, duration)`` records; finalizing drops the per-job buffers and
  freezes the log as a numpy array, so a finished run keeps columns only;
* :class:`RecordColumns` — a finished record set as sorted numpy columns:
  the one store behind every result (either engine's, or a fleet's
  merge), on which percentile/miss/drop statistics are computed directly
  and from which ``JobRecord`` rows are built *on access* (a view).

Bit-compatibility contract: both engines record jobs in the same order
and every record set sorts by ``(finish_s, stream_index, job_index)``
with a *stable* sort (``np.lexsort``), so ties keep that order; the
deadline-miss flag is derived in one place (:class:`RecordColumns`) as
``finish - arrival > deadline`` on served jobs.
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

from repro.devtools.sanitizer import JOB_STATE, SanitizerError, sanitize_enabled
from repro.hw.event import Timeline

#: Integer job-kind codes; ``KIND_NAMES[code]`` is the public kind string
#: (:data:`repro.sim.scheduler.FRAME_JOB` etc.).
KIND_FRAME, KIND_QUESTION, KIND_GENERATION = 0, 1, 2
KIND_NAMES = ("frame", "question", "generation")

#: Integer admission-outcome codes; ``ADMISSION_NAMES[code]`` is the public
#: admission string (:data:`repro.sim.scheduler.ADMIT` etc.).
ADM_ADMIT, ADM_EVICT, ADM_BACKLOG, ADM_DEFER = 0, 1, 2, 3
ADMISSION_NAMES = ("admit", "evict", "backlog", "defer")

#: Timeline resource codes of the packed log.
TL_VISION, TL_COMPUTE, TL_DRE, TL_PCIE = 0, 1, 2, 3
#: One packed timeline log record, ``(job, resource code, start, duration)``,
#: and the numpy dtype a finished run's log is frozen as.
TL_RECORD = struct.Struct("<qbdd")
TL_DTYPE = np.dtype([("job", "<i8"), ("code", "i1"), ("start", "<f8"), ("duration", "<f8")])

#: Sanitizer job lifecycle states (``JobTable._job_state`` values).
ST_PENDING, ST_SUBMITTED, ST_BEGUN, ST_RECORDED = 0, 1, 2, 3
STATE_NAMES = ("pending", "submitted", "begun", "recorded")


class JobTable:
    """Preallocated per-job columns of one scheduler run.

    Every job the run *could* produce is enumerated up front in the
    engines' arrival scheduling order — per stream: its frames, then its
    question, then its potential generation chain — so job ids are dense
    integers and the outcome columns can be preallocated to the exact
    worst case.  Generation jobs only materialize if their question
    finishes; unrecorded ids simply never enter the record columns.
    """

    def __init__(self, traces, question_arrivals, answers, session_ids):
        self._sanitize = sanitize_enabled()
        num_streams = len(session_ids)
        self.num_streams = num_streams
        # fully vectorized layout: per stream its frames, then its question,
        # then its potential generation chain — built with repeat/cumsum
        # instead of per-stream array allocations (the dominant setup cost
        # at 1k+ streams)
        frames = np.array([len(trace) for trace in traces], dtype=np.int64)
        has_question = np.array(
            [at is not None for at in question_arrivals], dtype=bool
        )
        chained = np.where(
            has_question, np.asarray(answers, dtype=np.int64), 0
        )
        counts = frames + np.where(has_question, 1 + chained, 0)
        starts = np.zeros(num_streams, dtype=np.int64)
        if num_streams:
            starts[1:] = np.cumsum(counts)[:-1]
        num_jobs = int(counts.sum()) if num_streams else 0
        self.num_jobs = num_jobs
        self.frame_base = starts.tolist()
        question_id = np.where(has_question, starts + frames, -1)
        self.question_id = question_id.tolist()
        self.gen_base = np.where(
            has_question & (chained > 0), question_id + 1, -1
        ).tolist()
        stream_col = np.repeat(np.arange(num_streams, dtype=np.int64), counts)
        pos = np.arange(num_jobs, dtype=np.int64) - np.repeat(starts, counts)
        frames_rep = np.repeat(frames, counts)
        kind = np.where(
            pos == frames_rep,
            KIND_QUESTION,
            np.where(pos > frames_rep, KIND_GENERATION, KIND_FRAME),
        )
        index = np.where(
            pos > frames_rep, pos - frames_rep - 1, np.where(pos == frames_rep, 0, pos)
        )
        arrival = np.full(num_jobs, np.nan)
        if num_jobs:
            frame_mask = pos < frames_rep
            if frames.any():
                arrival[frame_mask] = np.concatenate(
                    [np.asarray(trace, dtype=float) for trace in traces if len(trace)]
                )
            question_pos = question_id[has_question]
            if question_pos.size:
                arrival[question_pos] = [
                    float(at) for at in question_arrivals if at is not None
                ]
        empty = np.zeros(0, dtype=np.int64)
        self.stream = stream_col
        self.kind = kind if num_jobs else empty
        self.index = index if num_jobs else empty
        self.session = (
            np.asarray(session_ids, dtype=np.int64)[stream_col] if num_jobs else empty
        )
        #: arrival times (generation entries, NaN until then, filled at run
        #: time when their chain materializes)
        self.arrival = array("d", arrival.tobytes())

        #: stream and kind as lists, for the engines' per-event reads
        self.streams = self.stream.tolist()
        self.kinds = self.kind.tolist()

        # per-job outcome buffers, written by the run's job lifecycle; a job
        # is recorded at most once, so finalize gathers them in record order
        n = self.num_jobs
        self.start, self.finish, self.pcie_wait, self.dre_wait, self.compute_wait = (
            array("d", bytes(8 * n)) for _ in range(5)
        )
        self.dropped = bytearray(n)
        self.admission = bytearray(n)
        #: recorded job ids, in record order
        self.records = array("q")

        #: timeline log: one packed :data:`TL_RECORD` per interval, in the order
        #: both engines append them (a :data:`TL_DTYPE` array once finalized)
        self.timeline_log = bytearray()

        #: sanitizer-only per-job lifecycle state (``ST_*`` codes)
        self._job_state = bytearray(n) if self._sanitize else None

    # ------------------------------------------------------------------ #
    # sanitizer state machine
    # ------------------------------------------------------------------ #
    def _san_transition(self, job: int, to_state: int, legal_from: tuple) -> None:
        if not 0 <= job < self.num_jobs:
            raise SanitizerError(
                JOB_STATE, f"job id {job} outside table of {self.num_jobs} jobs"
            )
        state = self._job_state[job]
        if state not in legal_from:
            raise SanitizerError(
                JOB_STATE,
                f"job {job} ({KIND_NAMES[self.kind[job]]} of stream "
                f"{self.stream[job]}) moved {STATE_NAMES[state]} -> "
                f"{STATE_NAMES[to_state]}; legal from "
                f"{'/'.join(STATE_NAMES[s] for s in legal_from)} only",
            )
        self._job_state[job] = to_state

    def san_submit(self, job: int) -> None:
        """Sanitizer hook: ``job`` entered the system (pending -> submitted)."""
        self._san_transition(job, ST_SUBMITTED, (ST_PENDING,))

    def san_begin(self, job: int) -> None:
        """Sanitizer hook: ``job`` started service (submitted -> begun)."""
        self._san_transition(job, ST_BEGUN, (ST_SUBMITTED,))

    def san_record(self, job: int) -> None:
        """Sanitizer hook: ``job`` was recorded (begun, or submitted if dropped)."""
        self._san_transition(job, ST_RECORDED, (ST_SUBMITTED, ST_BEGUN))

    # ------------------------------------------------------------------ #
    def finalize(self, deadline_s: float | None) -> "RecordColumns":
        """Gather the recorded jobs' columns into sorted :class:`RecordColumns`."""
        job = np.frombuffer(self.records, dtype=np.int64)
        arrival, start, finish, pcie, dre, cwait = (
            np.frombuffer(column, dtype=float)[job]
            for column in (
                self.arrival, self.start, self.finish,
                self.pcie_wait, self.dre_wait, self.compute_wait,
            )
        )  # fmt: skip
        dropped = np.frombuffer(self.dropped, dtype=bool)[job]
        admission = np.frombuffer(self.admission, dtype=np.int8)[job].astype(np.int64)
        # the run is over: freeze the log (a view, so its buffer can no
        # longer grow) and drop the per-job run state
        self.timeline_log = np.frombuffer(self.timeline_log, dtype=TL_DTYPE)
        del self.arrival, self.start, self.finish, self.pcie_wait, self.dre_wait, self.compute_wait
        del self.dropped, self.admission, self.records, self.streams, self.kinds, self._job_state
        if self._sanitize and len(job):
            self._san_check_columns(
                job, arrival, start, finish, dropped, admission, pcie, dre, cwait
            )
        # stable: ties keep the record order
        order = np.lexsort((self.index[job], self.stream[job], finish))
        job = job[order]
        return RecordColumns(
            stream=self.stream[job],
            session=self.session[job],
            kind=self.kind[job],
            index=self.index[job],
            arrival=arrival[order],
            start=start[order],
            finish=finish[order],
            dropped=dropped[order],
            admission=admission[order],
            pcie_wait=pcie[order],
            dre_wait=dre[order],
            compute_wait=cwait[order],
            deadline_s=deadline_s,
        )

    def _san_check_columns(
        self, job, arrival, start, finish, dropped, admission, pcie, dre, cwait
    ) -> None:
        """Sanitizer pass over the filled record columns at finalize time.

        Every record must describe a legal lifecycle: a valid, unique job
        id; causal ``arrival <= start <= finish``; non-negative resource
        waits (compute wait tolerates the tiny negative float residue of
        ``finish - submit - work``); and backlog/defer admission outcomes
        always marked dropped.
        """
        if (job < 0).any() or (job >= self.num_jobs).any():
            bad = job[(job < 0) | (job >= self.num_jobs)][0]
            raise SanitizerError(
                JOB_STATE, f"recorded job id {bad} outside table of {self.num_jobs} jobs"
            )
        uniques, counts = np.unique(job, return_counts=True)
        if (counts > 1).any():
            dup = int(uniques[counts > 1][0])
            raise SanitizerError(JOB_STATE, f"job {dup} recorded more than once")
        live = ~dropped
        if (start[live] < arrival[live]).any() or (finish[live] < start[live]).any():
            bad = int(job[live][(start[live] < arrival[live]) | (finish[live] < start[live])][0])
            raise SanitizerError(
                JOB_STATE,
                f"job {bad} has non-causal record times "
                f"(arrival <= start <= finish violated)",
            )
        if (pcie < 0).any() or (dre < 0).any():
            raise SanitizerError(
                JOB_STATE, "negative pcie/dre wait recorded (acausal service)"
            )
        # compute wait is finish - submit - work; float non-associativity can
        # leave a ~1 ulp negative residue, anything larger is a real bug
        slack = 1e-9 * np.maximum(1.0, np.abs(finish))
        if (cwait < -slack).any():
            bad = int(job[cwait < -slack][0])
            raise SanitizerError(
                JOB_STATE, f"job {bad} has negative compute wait {cwait[cwait < -slack][0]}"
            )
        undropped_rejects = ((admission == ADM_BACKLOG) | (admission == ADM_DEFER)) & live
        if undropped_rejects.any():
            bad = int(job[undropped_rejects][0])
            raise SanitizerError(
                JOB_STATE,
                f"job {bad} admitted as "
                f"{ADMISSION_NAMES[int(admission[undropped_rejects.argmax()])]} "
                f"but not marked dropped",
            )

    def build_timeline(self, timesliced: bool, prefix="", stream=None, index=None) -> Timeline:
        """Materialize the finalized log as a full :class:`Timeline`.

        Tasks name jobs by the per-job ``stream`` and ``index`` columns
        (the table's own by default); ``prefix`` leads every resource.
        """
        timeline = Timeline()
        add = timeline.add
        stream = self.stream if stream is None else stream
        index = self.index if index is None else index
        session, kind = self.session, self.kind
        for job, code, start, duration in self.timeline_log.tolist():
            name = f"s{session[job]}/{KIND_NAMES[kind[job]]}{index[job]}"
            if code == TL_VISION:
                resource = f"vision:s{stream[job]}"
            elif code == TL_COMPUTE:
                resource = "compute" if timesliced else f"compute:s{stream[job]}"
            elif code == TL_DRE:
                resource = "dre"
            else:
                resource = "pcie"
            add(name, prefix + resource, start, duration)
        return timeline


class RecordColumns:
    """One run's job records as sorted parallel numpy columns.

    The only stored representation of a run's records: either engine's
    :class:`JobTable` finalizes into one, and a fleet merges its devices'
    columns into one.
    ``JobRecord`` rows are built from it on access, never stored.
    """

    #: the stored columns (``missed`` is derived from them and ``deadline_s``)
    FIELDS = (
        "stream",
        "session",
        "kind",
        "index",
        "arrival",
        "start",
        "finish",
        "dropped",
        "admission",
        "pcie_wait",
        "dre_wait",
        "compute_wait",
    )

    __slots__ = (*FIELDS, "missed", "deadline_s")

    def __init__(self, *, deadline_s: float | None, **columns):
        if columns.keys() != set(self.FIELDS):
            raise TypeError(
                f"expected exactly the columns {self.FIELDS}, got {sorted(columns)}"
            )
        for name in self.FIELDS:
            setattr(self, name, columns[name])
        self.deadline_s = deadline_s
        if deadline_s is None:
            self.missed = np.zeros(len(self.finish), dtype=bool)
        else:
            self.missed = ~self.dropped & ((self.finish - self.arrival) > deadline_s)

    def __len__(self) -> int:
        return len(self.finish)

    def replaced(self, **columns) -> "RecordColumns":
        """A copy with some columns swapped (``missed`` is recomputed)."""
        kept = {name: getattr(self, name) for name in self.FIELDS}
        return RecordColumns(deadline_s=self.deadline_s, **{**kept, **columns})

    def take(self, rows) -> "RecordColumns":
        """The records at ``rows`` (a slice or a position array), in that order."""
        return self.replaced(**{name: getattr(self, name)[rows] for name in self.FIELDS})

    @classmethod
    def concatenated(cls, parts: "list[RecordColumns]") -> "RecordColumns":
        """``parts`` end to end, each keeping its own record order."""
        columns = {name: np.concatenate([getattr(p, name) for p in parts]) for name in cls.FIELDS}
        return cls(deadline_s=parts[0].deadline_s, **columns)

    @classmethod
    def merged(cls, parts: "list[RecordColumns]") -> "RecordColumns":
        """``parts`` concatenated in order and re-sorted as one run.

        The stable ``(finish, stream, index)`` sort every record set uses
        (module docstring), so ties keep the order of ``parts``.
        """
        whole = cls.concatenated(parts)
        return whole.take(np.lexsort((whole.index, whole.stream, whole.finish)))

    def sojourn_s(self):
        """Per-record arrival-to-finish latency column."""
        return self.finish - self.arrival
