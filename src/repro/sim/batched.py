"""Contention-aware batched performance plane.

:class:`repro.sim.pipeline.LatencyModel` prices a batch as ``batch x`` one
homogeneous stream: every stream shares one :class:`MeasuredRetrieval`, the
policy's published retrieval ratio, and the shared PCIe link and DRE are
assumed to merge all streams' demands into one perfectly-batched transfer.
The serving deployment the paper targets is N *heterogeneous* users whose
functional-plane sessions (:class:`repro.model.serving.SessionBatch`)
measured different WiCSum sort fractions, cluster occupancies, cache
lengths and retrieval ratios — and whose frame arrivals may collide on the
shared link.

:class:`BatchLatencyModel` consumes per-stream :class:`StreamProfile` rows
(built from :class:`repro.model.streaming.SessionReport` via
:func:`profiles_from_reports`) and prices a serving step in two modes,
chosen per call (every step method takes ``contention`` and ``compute``):

* **batched / no contention** (``contention=False``) — per-stream demands
  are aggregated at the kernel-cost level (weights read once, fixed
  selection overheads and link/SSD latencies paid once) and priced exactly
  like one batched step.  For N identical streams this reproduces
  ``LatencyModel`` at ``batch=N`` to floating-point accuracy; it is the
  upper bound of perfect cross-stream batching.
* **contention** (default) — every stream issues its own prediction and
  fetch work.  KV-fetch transfers queue FCFS on the shared PCIe link
  (:class:`repro.hw.memory.pcie.PCIeLinkQueue`, with each stream's link
  efficiency derived from its measured cluster occupancy) and ReSV
  prediction jobs serialize on the shared DRE (HCU+WTU).  Aligned frame
  arrivals therefore expose queueing delay that staggered arrivals avoid.
  The contended mode prices dense compute under one of two policies:

  * ``compute="private"`` — dense LLM compute and the vision tower are
    private to each stream (N free engines): the optimistic floor of a
    single-accelerator deployment, since cross-stream compute interference
    costs nothing;
  * ``compute="timesliced"`` — every stream's dense compute (and, on GPU
    systems, its prediction kernels) contends on **one** shared
    round-robin server (:class:`repro.hw.event.PreemptiveResource`) with a
    configurable scheduling ``quantum_s``, converging to ideal processor
    sharing as the quantum shrinks.  This closes the bracket the private
    policy leaves open: for every fleet the private-compute makespan is a
    verified lower bound of the time-sliced one, and the aggregated mode's
    per-resource busy times (batched compute, merged fetch) floor the
    time-sliced makespan from below — so the two cheap analytic modes
    bracket the shared-compute schedule from below while remaining exact
    in their own regimes.

  Both policies are one step (:meth:`BatchLatencyModel._contended_step`)
  around two scheduling cores: plain-float FCFS passes over the DRE and
  the link, each stream resolved by the one scalar rule
  (:func:`contended_issue` / :func:`contended_latency`), or an
  :class:`~repro.hw.event.EventLoop` replay of the :class:`StageCore`, the
  one time-sliced stage machine, through :class:`StageDriver`.  Each
  driver owns its DRE and link grants: the scheduler's reference loop
  calls the same rule and machine, and its array engine inlines the rule
  and drives the same machine from its heap codes.

Orthogonally to the contention/compute axes, passing a
:class:`repro.hw.memory.sharding.ShardedKVHierarchy` as ``memory`` turns
on the **memory-aware step mode**: every step partitions the fleet's
offloaded KV shards (and HC tables) cluster-wise across the hierarchy's
banks and prices each stream's fetch as a parallel fan-out over the banks
holding its warm shards plus an SSD stream for the demoted remainder.
With one unbounded bank every session is fully warm in one channel and
the contended/timesliced results reproduce the memory-less plane bit for
bit; with bounded banks the fleet becomes memory-bound and residency —
not just queueing — shapes the schedule.  The serving scheduler threads
the *same* demand assembly through its event loop, re-pricing each job at
its session's current residency.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from operator import add

import numpy as np

from repro.config import require_choice, require_number
from repro.devtools.sanitizer import PRICE_TABLE, SanitizerError, sanitize_enabled
from repro.hw.accelerator import VRexAccelerator
from repro.hw.compute import KernelCost
from repro.hw.event import (
    EventLoop,
    PreemptiveResource,
    ResourceQueue,
    fcfs_arrival,
)
from repro.hw.memory.pcie import PCIeLinkQueue
from repro.hw.memory.sharding import ShardedKVHierarchy, sharded_fetch_makespan
from repro.sim.pipeline import (
    FRAME_STAGE,
    GENERATION_STAGE,
    MAX_KV_LEN,
    MAX_Q_LEN,
    LatencyModel,
    MeasuredRetrieval,
    _DemandEntry,
    overlap_rules,
)
from repro.sim.systems import SystemConfig

#: Event priorities shared by the serving scheduler and the batched plane's
#: event-driven replays, so both produce bit-identical schedules at equal
#: times: completions release resources before new arrivals are admitted,
#: phase-1 issues (DRE/compute submissions) precede phase-2 link requests.
PRIO_COMPLETE = 0
PRIO_ARRIVAL = 1
PRIO_ISSUE = 2
PRIO_LINK = 3

#: Compute-contention policies of the contended mode.
COMPUTE_POLICIES = ("private", "timesliced")

#: Default round-robin scheduling quantum of the time-sliced compute server.
DEFAULT_QUANTUM_S = 1e-3

#: Bytes of one packed HC-table signature (one ``uint64`` word per cluster
#: per KV head per layer) — the footprint the sharded memory plane charges
#: for a session's hash-cluster tables alongside its offloaded KV shards.
HC_SIGNATURE_BYTES = 8


def validate_compute_policy(compute: str) -> str:
    """Return ``compute`` or raise for a policy the planes don't implement."""
    return require_choice("compute policy", compute, COMPUTE_POLICIES)


@dataclass(frozen=True)
class SessionShardBytes:
    """One session's shard footprint as the memory plane registers it.

    ``hot_bytes`` live in device DRAM, ``offloaded_bytes`` are the KV
    shards spread across the banks, ``hc_table_bytes`` the packed
    HC-table signatures riding along (ReSV systems only).  ``total_bytes``
    is what a cross-device session migration must ship.
    """

    hot_bytes: float
    offloaded_bytes: float
    hc_table_bytes: float
    num_clusters: int

    @property
    def total_bytes(self) -> float:
        return self.hot_bytes + self.offloaded_bytes + self.hc_table_bytes


# ---------------------------------------------------------------------- #
# per-stream calibration
# ---------------------------------------------------------------------- #
@dataclass
class StreamProfile:
    """Per-stream calibration of the batched performance plane.

    ``frame_ratio`` / ``generation_ratio`` override the policy's published
    retrieval ratios with the stream's measured ones (``None`` keeps the
    policy value); ``measured`` carries the stream's WiCSum sort fraction
    and cluster occupancy; ``arrival_offset_s`` is the stream's frame
    arrival phase relative to the serving tick (0 for aligned arrivals).
    """

    kv_len: int
    measured: MeasuredRetrieval = field(default_factory=MeasuredRetrieval)
    frame_ratio: float | None = None
    generation_ratio: float | None = None
    arrival_offset_s: float = 0.0
    session_id: int = 0

    def __post_init__(self) -> None:
        require_number("kv_len", self.kv_len, integer=True, maximum=MAX_KV_LEN)
        if self.kv_len // self.measured.avg_tokens_per_cluster > MAX_KV_LEN:
            raise ValueError(
                f"kv_len // measured.avg_tokens_per_cluster (the cluster count) must be at "
                f"most {MAX_KV_LEN}, got {self.kv_len} // {self.measured.avg_tokens_per_cluster}"
            )
        require_number("session_id", self.session_id, integer=True)
        require_number("arrival_offset_s", self.arrival_offset_s, finite=True)
        for name in ("frame_ratio", "generation_ratio"):
            ratio = getattr(self, name)
            if ratio is not None:
                require_number(name, ratio, maximum=1)

    def ratio_override(self, stage: str) -> float | None:
        """Measured retrieval-ratio override for a stage (``None`` = policy)."""
        return self.frame_ratio if stage == FRAME_STAGE else self.generation_ratio

    @classmethod
    def from_session_report(
        cls, report, arrival_offset_s: float = 0.0, kv_len: int | None = None
    ) -> "StreamProfile":
        """Calibrate one stream from a functional-plane session report.

        Mirrors :meth:`MeasuredRetrieval.from_session_report`: measured
        values are adopted only where the session genuinely produced data
        (a stream that never prefilled a frame keeps the policy's frame
        ratio).  ``kv_len`` can project a toy functional cache onto a
        production cache length while keeping the measured statistics.
        """
        did_frame_work = report.frames_processed > 0 or report.questions_asked > 0
        return cls(
            kv_len=report.cache_tokens if kv_len is None else kv_len,
            measured=MeasuredRetrieval.from_session_report(report),
            frame_ratio=report.frame_retrieval_ratio if did_frame_work else None,
            generation_ratio=report.generation_retrieval_ratio
            if report.tokens_generated > 0
            else None,
            arrival_offset_s=arrival_offset_s,
            session_id=report.session_id,
        )


def _broadcast_per_stream(
    value,
    num_streams: int,
    name: str,
    allow_none_entries: bool = False,
    maximum: int | None = None,
) -> list[int | None]:
    """Broadcast a scalar count or validate a per-stream list of counts.

    The one boundary check of the plane's and the scheduler's per-stream
    counts: each is a non-negative ``int`` or ``np.integer``, never a
    ``bool`` (zero is a count of zero), at most ``maximum`` when given,
    or — list entries only, where ``allow_none_entries`` — ``None`` for a
    stream that skips the step.
    """
    scalar = isinstance(value, (int, np.integer)) or not isinstance(value, Iterable)
    entries = [value] if scalar else list(value)
    if not scalar and len(entries) != num_streams:
        raise ValueError(
            f"expected one {name} entry per stream ({num_streams}), got {len(entries)}"
        )
    counts: list[int | None] = []
    for stream, entry in enumerate(entries):
        if entry is None and allow_none_entries and not scalar:
            counts.append(None)
            continue
        where = name if scalar else f"{name} of stream {stream}"
        if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)) or entry < 0:
            raise ValueError(f"{where} must be a non-negative integer, got {entry!r}")
        if maximum is not None and entry > maximum:
            raise ValueError(f"{where} must be at most {maximum}, got {entry!r}")
        counts.append(int(entry))
    return counts * num_streams if scalar else counts


def aligned_arrivals(num_streams: int) -> list[float]:
    """All streams' frames arrive at the same instant (worst-case collision)."""
    require_number("num_streams", num_streams, 1, integer=True)
    return [0.0] * num_streams


def staggered_arrivals(num_streams: int, spacing_s: float) -> list[float]:
    """Frame arrivals spread ``spacing_s`` apart (admission-controlled phase)."""
    require_number("num_streams", num_streams, 1, integer=True)
    require_number("spacing_s", spacing_s, finite=True)
    return [index * spacing_s for index in range(num_streams)]


def profiles_from_reports(
    reports,
    arrival_offsets: Sequence[float] | None = None,
    kv_lens: Sequence[int] | None = None,
) -> list[StreamProfile]:
    """Build one :class:`StreamProfile` per session report.

    ``arrival_offsets`` defaults to aligned arrivals; ``kv_lens`` optionally
    projects each stream onto a production cache length (the functional
    plane runs a toy model whose caches are a few hundred tokens).
    """
    reports = list(reports)
    if not reports:
        return []
    if arrival_offsets is None:
        arrival_offsets = aligned_arrivals(len(reports))
    if len(arrival_offsets) != len(reports):
        raise ValueError(
            f"expected one arrival offset per report ({len(reports)}), got {len(arrival_offsets)}"
        )
    if kv_lens is not None and len(kv_lens) != len(reports):
        raise ValueError(f"expected one kv_len per report ({len(reports)}), got {len(kv_lens)}")
    return [
        StreamProfile.from_session_report(
            report,
            arrival_offset_s=offset,
            kv_len=None if kv_lens is None else int(kv_lens[index]),
        )
        for index, (report, offset) in enumerate(zip(reports, arrival_offsets, strict=True))
    ]


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
@dataclass
class StreamStepResult:
    """One stream's share of a batched pipeline step.

    ``total_s`` is measured from the stream's own arrival; the breakdown
    mirrors :class:`repro.sim.pipeline.StepResult` plus the queueing waits
    (``pcie_wait`` / ``dre_wait``) the shared resources inflicted.
    """

    session_id: int
    kv_len: int
    arrival_offset_s: float
    total_s: float
    breakdown: dict[str, float] = field(default_factory=dict)
    fetch_bytes: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    @property
    def exposed_fetch_s(self) -> float:
        """KV-fetch time not hidden behind compute (includes link waits)."""
        return self.breakdown.get("kv_fetch", 0.0)

    @property
    def pcie_wait_s(self) -> float:
        return self.breakdown.get("pcie_wait", 0.0)

    @property
    def compute_wait_s(self) -> float:
        """Shared-compute queueing and preemption gaps (timesliced mode)."""
        return self.breakdown.get("compute_wait", 0.0)


#: Breakdown keys every row of a contended step carries and the fleet sums
#: (timesliced rows add ``compute_wait``, their fleet total ``compute_busy``).
_CONTENDED_KEYS = (
    "vision",
    "llm_compute",
    "kv_prediction",
    "kv_fetch",
    "kv_prediction_raw",
    "kv_fetch_raw",
    "pcie_wait",
    "dre_wait",
)


def _inactive_stream_row(profile: StreamProfile) -> StreamStepResult:
    """Zero-demand placeholder row for a stream that skips the step."""
    return StreamStepResult(
        session_id=profile.session_id,
        kv_len=profile.kv_len,
        arrival_offset_s=profile.arrival_offset_s,
        total_s=0.0,
        breakdown=dict.fromkeys(_CONTENDED_KEYS + ("compute_wait",), 0.0),
    )


@dataclass
class BatchStepResult:
    """Fleet-level result of one batched pipeline step."""

    system: str
    stage: str
    contention: bool
    total_s: float
    streams: list[StreamStepResult] = field(default_factory=list)
    breakdown: dict[str, float] = field(default_factory=dict)
    oom: bool = False
    #: compute-contention policy of a contended step ("private"|"timesliced")
    compute: str = "private"
    #: per-bank warm occupancy of the memory-aware mode (None without one)
    bank_occupancy_bytes: tuple[float, ...] | None = None

    @property
    def batch(self) -> int:
        return len(self.streams)

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    @property
    def fps(self) -> float:
        """Serving throughput: streams completed per second of makespan."""
        if self.total_s <= 0 or self.oom:
            return 0.0
        return self.batch / self.total_s

    @property
    def mean_exposed_fetch_s(self) -> float:
        if not self.streams:
            return 0.0
        total = reduce(add, (stream.exposed_fetch_s for stream in self.streams), 0.0)
        return total / len(self.streams)


@dataclass
class StreamScenarioEstimate:
    """Per-stream end-to-end scenario estimate at the current fleet mix."""

    session_id: int
    kv_len: int
    frames: int
    answer_tokens: int
    vision_s: float
    prefill_s: float
    generation_s: float

    @property
    def total_s(self) -> float:
        return self.vision_s + self.prefill_s + self.generation_s


# ---------------------------------------------------------------------- #
# internal per-stream demand assembly
# ---------------------------------------------------------------------- #
#: Entries the demand table holds before it is cleared and refilled (checked
#: on a miss only): ~0.7 KB each, so a long-lived plane pricing ever-new
#: cache lengths stays within a few tens of MB.
_DEMAND_TABLE_ENTRIES = 1 << 16


def _fetch_layer_s(
    entry: _DemandEntry, memory: ShardedKVHierarchy | None, session_id: int
) -> float:
    """One stream's per-layer fetch service at its session's live residency.

    Without a memory plane it is the entry's single-channel fetch; with one,
    the fetch fans out over the banks holding the session's warm shards
    while the demoted remainder streams from the SSD tier (a fully-warm
    single-bank split reproduces the single-channel price bit for bit).
    """
    if memory is not None and entry.fetch_bytes > 0:
        return sharded_fetch_makespan(
            entry.fetch_bytes,
            memory.fetch_split(session_id),
            entry.warm_time_s,
            entry.cold_time_s,
        )
    return entry.fetch_service_s


def contended_issue(
    is_vrex: bool,
    overlaps: bool,
    start_s: float,
    served_s: float,
    compute_s: float,
    prediction_s: float,
) -> tuple[float, float]:
    """Phase 1 of one stream's private-compute contended step.

    ``start_s`` is when the stream's LLM phase begins (arrival plus
    vision); the DRE is requested at that instant, so granting streams in
    nondecreasing ``start_s`` order IS the DRE's FCFS order.  ``served_s``
    is when the driver's DRE started the prediction (``start_s`` when the
    prediction is not on the DRE).  Returns ``(prediction_end_s,
    request_s)``: the prediction's end and when the stream requests the
    shared PCIe link.
    """
    if is_vrex:
        # Prediction runs on the shared DRE; the fetch it unlocks requests
        # the link when the prediction completes.
        prediction_end = served_s + prediction_s
        return prediction_end, prediction_end
    # GPU: prediction kernels compete with the LLM kernels for the same SMs
    # (serial per stream); the prefetch overlaps compute but must win the
    # shared link first.
    prediction_end = start_s + prediction_s
    if overlaps:
        return prediction_end, prediction_end
    # FlexGen-style serial load-then-compute prefill requests the link only
    # after its compute finishes.
    return prediction_end, start_s + prediction_s + compute_s


def contended_latency(
    is_vrex: bool,
    overlaps: bool,
    start_s: float,
    compute_s: float,
    prediction_s: float,
    prediction_end_s: float,
    request_s: float,
    fetch_end_s: float | None,
) -> tuple[float, float, float]:
    """Phase 3 of one stream's private-compute contended step: the overlap rules.

    ``fetch_end_s`` is when the stream's transfer left the shared link
    (``None`` when it fetched nothing).  Returns ``(latency_s,
    exposed_prediction_s, exposed_fetch_s)``, the latency measured from
    ``start_s``.  The plane's step and the scheduler's reference loop both
    call it, each with its own DRE and link grants, so the two agree to
    the last bit.
    """
    if is_vrex:
        # Prediction and fetch (with their waits) overlap this stream's own
        # compute (Fig. 5 iii); only the excess beyond compute is exposed.
        hidden_end = fetch_end_s if fetch_end_s is not None else prediction_end_s
        hidden = hidden_end - start_s
        prediction_effective = prediction_end_s - start_s
        latency = max(compute_s, hidden)
        exposed_prediction = max(0.0, min(prediction_effective, hidden - compute_s))
        exposed_fetch = max(0.0, hidden - compute_s - exposed_prediction)
    elif overlaps:
        fetch_effective = fetch_end_s - request_s if fetch_end_s is not None else 0.0
        latency = prediction_s + max(compute_s, fetch_effective)
        exposed_prediction = prediction_s
        exposed_fetch = max(0.0, fetch_effective - compute_s)
    else:
        exposed_fetch = fetch_end_s - request_s if fetch_end_s is not None else 0.0
        latency = prediction_s + compute_s + exposed_fetch
        exposed_prediction = prediction_s
    return latency, exposed_prediction, exposed_fetch


#: Decisions a :class:`StageCore` transition hands its driver: bits the
#: driver applies in ascending order.
TS_DRE = 1  # grant the DRE the prediction now, then report prediction_done
TS_PREDICT = 2  # serve the prediction on the shared server -> prediction_done
TS_COMPUTE = 4  # serve the compute on the shared server -> compute_done
TS_LINK = 8  # request the link at request_s[i] -> link_granted
TS_FINISH = 16  # the stage is resolved and ends at finish_s[i] (never with another bit)


class StageCore:
    """The time-sliced stage machine as array state: no queue, no callbacks.

    A *stage* is one stream's job after vision — ReSV prediction, the KV
    fetch on the shared link and the dense compute on the shared
    round-robin server — sequenced per system class:

    * **V-Rex** — the prediction runs on the shared DRE (in place when it
      is not on the DRE) while the compute runs on the shared LXE from the
      start; the fetch it unlocks requests the link at the prediction's end;
    * **overlapping GPU** — the prediction kernels occupy the shared GPU
      first; at their end the prefetch requests the link while the compute
      joins the server;
    * **serial (FlexGen)** — prediction, then compute, both on the shared
      GPU; the link is requested only when the compute ends.

    A stage finishes at ``max(compute finish, chain end)``, the chain being
    the transfer (or, with nothing to fetch, the prediction — the compute on
    serial systems).  The transitions fill the three waits; :meth:`resolved`
    adds the latency and exposures — the time-sliced analogue of the
    :func:`contended_issue` / :func:`contended_latency` pair.

    Columns are indexed by a caller-chosen stage id: a stream, whose
    pipeline slot keeps at most one stage in flight.  The four transitions
    return the next decisions as ``TS_*`` bits; the drivers own the DRE and
    link FCFS grants and the server, apply the bits in ascending order and
    report back what they granted.  Two drivers consume the core:
    :class:`StageDriver` on an :class:`EventLoop` (the plane's time-sliced
    step and the scheduler's reference loop) and the array engine's heap
    codes.  (``TS_COMPUTE`` before ``TS_LINK`` is a convention: a server
    slice and a link request differ in priority, so their seqs never tie.)
    """

    __slots__ = (
        "is_vrex",
        # what each stage does ...
        "serial", "compute_s", "prediction_s", "fetch_s",
        # ... when (-1.0 marks a pending compute finish or chain end) ...
        "start_s", "compute_submit_s", "compute_finish_s", "prediction_end_s",
        "request_s", "transfer_start_s", "chain_end_s", "finish_s",
        # ... and what it waited for
        "dre_wait_s", "compute_wait_s", "pcie_wait_s",
    )

    def __init__(self, is_vrex: bool, capacity: int):
        self.is_vrex = is_vrex
        # a stage's transitions write each column before its reads
        for column in self.__slots__[1:]:
            setattr(self, column, [0.0] * capacity)

    def issued(
        self, i: int, now: float, overlaps: bool, on_dre: bool,
        compute_s: float, prediction_s: float, fetch_s: float,
    ) -> int:
        """Stage ``i`` starts at ``now`` (its job's arrival plus vision)."""
        self.serial[i] = not (self.is_vrex or overlaps)
        self.compute_s[i] = compute_s
        self.prediction_s[i] = prediction_s
        self.fetch_s[i] = fetch_s
        self.start_s[i] = now
        self.compute_finish_s[i] = -1.0
        self.chain_end_s[i] = -1.0
        self.pcie_wait_s[i] = 0.0
        if self.is_vrex:
            if on_dre and prediction_s > 0.0:
                return TS_DRE
            return self.prediction_done(i, now, now + prediction_s)
        if prediction_s > 0.0:
            return TS_PREDICT
        return self.prediction_done(i, now, now)

    def prediction_done(
        self, i: int, now: float, end_s: float, dre_wait_s: float = 0.0
    ) -> int:
        """Stage ``i``'s prediction ends at ``end_s``; its compute is submitted at ``now``.

        On V-Rex this is reported at the start, ``end_s`` being when the DRE
        (or the in-place prediction) will be done.
        """
        self.prediction_end_s[i] = end_s
        self.dre_wait_s[i] = dre_wait_s
        self.compute_submit_s[i] = now
        decision = 0
        if not self.serial[i]:
            if self.fetch_s[i] > 0.0:
                self.request_s[i] = end_s
                decision = TS_LINK
            else:
                self.chain_end_s[i] = end_s
        if self.compute_s[i] > 0.0:
            return decision | TS_COMPUTE
        return decision | self.compute_done(i, now)

    def compute_done(self, i: int, now: float) -> int:
        """Stage ``i``'s compute finished at ``now``."""
        self.compute_finish_s[i] = now
        compute_s = self.compute_s[i]
        # queueing plus preemption gaps on the shared server
        self.compute_wait_s[i] = (
            now - self.compute_submit_s[i] - compute_s if compute_s > 0.0 else 0.0
        )
        chain_end = self.chain_end_s[i]
        if self.serial[i]:
            if self.fetch_s[i] > 0.0:
                self.request_s[i] = now
                return TS_LINK
            chain_end = self.chain_end_s[i] = now
        if chain_end < 0.0:
            return 0
        self.finish_s[i] = now if now >= chain_end else chain_end
        return TS_FINISH

    def link_granted(self, i: int, start_s: float) -> int:
        """Stage ``i``'s transfer holds the link from ``start_s``."""
        self.transfer_start_s[i] = start_s
        self.pcie_wait_s[i] = start_s - self.request_s[i]
        chain_end = self.chain_end_s[i] = start_s + self.fetch_s[i]
        compute_finish = self.compute_finish_s[i]
        if compute_finish < 0.0:
            return 0
        self.finish_s[i] = compute_finish if compute_finish >= chain_end else chain_end
        return TS_FINISH

    def resolved(self, i: int) -> tuple[float, float, float, float, float]:
        """``(latency_s, compute_wait_s, pcie_wait_s, exposed_prediction_s,
        exposed_fetch_s)`` of resolved stage ``i``.

        The latency is measured from ``start_s``.  Exposed spans include
        shared-server and link queueing, the way the contended plane charges
        a PCIe wait to the fetch that suffers it.
        """
        start = self.start_s[i]
        compute_finish = self.compute_finish_s[i]
        chain_end = self.chain_end_s[i]
        prediction_span = self.prediction_end_s[i] - start
        if self.is_vrex:
            # prediction and fetch hide behind this stream's own compute
            busy = compute_finish - start
            hidden = chain_end - start
            exposed_prediction = max(0.0, min(prediction_span, hidden - busy))
            exposed_fetch = max(0.0, hidden - busy - exposed_prediction)
        else:
            exposed_prediction = prediction_span
            fetched = self.fetch_s[i] > 0.0
            exposed_fetch = max(0.0, chain_end - compute_finish) if fetched else 0.0
        return (
            self.finish_s[i] - start,
            self.compute_wait_s[i],
            self.pcie_wait_s[i],
            exposed_prediction,
            exposed_fetch,
        )


class StageDriver:
    """Drives a :class:`StageCore` with :class:`EventLoop` events.

    :meth:`issue` starts stage ``i`` at the loop's current time, so call it
    from the stage's issue event.  The driver grants the DRE and the link
    FCFS through ``dre`` and ``link``, serves work on ``server`` (a
    :class:`PreemptiveResource` on ``loop``) and requests the link at
    ``PRIO_LINK``, everything keyed by ``key``.  ``on_finish(i)`` runs once
    stage ``i`` is resolved; its ``finish_s`` may lie in the future.  A
    class, not self-calling closures, so a finished replay on a server that
    keeps no job records is freed by refcount, not by the cyclic collector.
    """

    __slots__ = ("core", "loop", "server", "dre", "link", "on_finish")

    def __init__(
        self, core: StageCore, loop: EventLoop, server: PreemptiveResource,
        dre: ResourceQueue, link: PCIeLinkQueue, on_finish=None,
    ):
        self.core, self.loop, self.server = core, loop, server
        self.dre, self.link, self.on_finish = dre, link, on_finish

    def issue(self, i, key, overlaps, on_dre, compute_s, prediction_s, fetch_s) -> None:
        now = self.loop.now_s
        decision = self.core.issued(i, now, overlaps, on_dre, compute_s, prediction_s, fetch_s)
        self.apply(i, key, decision)

    def apply(self, i: int, key: tuple, decision: int) -> None:
        core, loop = self.core, self.loop
        if decision & TS_DRE:
            now = loop.now_s
            served = self.dre.enqueue(now, core.prediction_s[i])
            decision = core.prediction_done(i, now, served.finish_s, served.wait_s)
        if decision & TS_PREDICT:
            self.server.submit(
                core.prediction_s[i],
                lambda job: self.apply(i, key, core.prediction_done(i, job.finish_s, job.finish_s)),
                key=key,
            )
        elif decision & TS_COMPUTE:
            self.server.submit(
                core.compute_s[i],
                lambda job: self.apply(i, key, core.compute_done(i, job.finish_s)),
                key=key,
            )
        if decision & TS_LINK:
            link = self.link
            loop.schedule(
                core.request_s[i],
                lambda: self.apply(
                    i,
                    key,
                    core.link_granted(i, link.enqueue(loop.now_s, core.fetch_s[i]).start_s),
                ),
                priority=PRIO_LINK,
                key=key,
            )
        if decision & TS_FINISH and self.on_finish is not None:
            self.on_finish(i)


class BatchLatencyModel:
    """Prices whole fleets of heterogeneous streams on one system.

    Wraps a (optionally calibrated) :class:`LatencyModel`; the wrapped
    model's workload, streaming defaults and device cache are reused, its
    global ``measured`` calibration is superseded by each stream's profile.
    Every step takes its ``contention`` mode and ``compute`` policy per
    call; the plane itself holds only the time-slicing ``quantum_s`` and
    the ``memory`` template.
    """

    def __init__(
        self,
        base: LatencyModel | None = None,
        quantum_s: float = DEFAULT_QUANTUM_S,
        memory: ShardedKVHierarchy | None = None,
    ):
        self.base = base or LatencyModel()
        self.quantum_s = float(require_number("quantum_s", quantum_s, exclusive=True))
        #: bank configuration of the memory-aware mode (``None`` prices
        #: fetches on the classic single-channel offload target).  The
        #: instance is a *template*: every step/run partitions the fleet's
        #: shards into a fresh hierarchy with the same bank layout, so
        #: repeated runs stay deterministic.
        self.memory = memory
        #: the demand table: per system, the residency-independent demands
        #: keyed by the profile *values* they were derived from
        self._demands: dict[SystemConfig, dict[tuple, _DemandEntry]] = {}
        self._num_demands = 0
        self._sanitize = sanitize_enabled()

    # ------------------------------------------------------------------ #
    # public steps
    # ------------------------------------------------------------------ #
    def frame_step(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        contention: bool = True,
        compute: str = "private",
    ) -> BatchStepResult:
        """One serving tick: every stream prefills one incoming frame."""
        q_len = self.base.llm.model.tokens_per_frame
        return self._batched_step(
            system,
            profiles,
            q_lens=[q_len] * len(profiles),
            stage=FRAME_STAGE,
            include_vision=True,
            contention=contention,
            compute=compute,
        )

    def question_step(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        question_tokens: int | Sequence[int | None] | None = None,
        contention: bool = True,
        compute: str = "private",
    ) -> BatchStepResult:
        """Question prefill; per-stream token counts, ``None`` skips a stream."""
        if question_tokens is None:
            q_lens: list[int | None] = [self.base.streaming.question_tokens] * len(profiles)
        else:
            q_lens = _broadcast_per_stream(
                question_tokens,
                len(profiles),
                "question_tokens",
                allow_none_entries=True,
                maximum=MAX_Q_LEN,
            )
        return self._batched_step(
            system,
            profiles,
            q_lens=q_lens,
            stage=FRAME_STAGE,
            include_vision=False,
            contention=contention,
            compute=compute,
        )

    def generation_step(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        contention: bool = True,
        compute: str = "private",
    ) -> BatchStepResult:
        """Time per output token while every stream decodes concurrently."""
        return self._batched_step(
            system,
            profiles,
            q_lens=[1] * len(profiles),
            stage=GENERATION_STAGE,
            include_vision=False,
            contention=contention,
            compute=compute,
        )

    def scenario_estimates(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        frames: int | Sequence[int] | None = None,
        answer_tokens: int | Sequence[int] | None = None,
        contention: bool = True,
        compute: str = "private",
    ) -> list[StreamScenarioEstimate]:
        """Per-stream end-to-end estimates at the current fleet composition.

        Prices one frame, question and generation step for the fleet and
        scales each stream's share by its own frame/answer counts (explicit
        zeros are honoured).  The fleet mix is held constant across the
        scenario — an approximation that is exact for the steady state the
        sweep figures report.
        """
        frames_per_stream = self._per_stream_counts(
            frames, self.base.streaming.frames_per_query, len(profiles), "frames"
        )
        answers_per_stream = self._per_stream_counts(
            answer_tokens, self.base.streaming.answer_tokens, len(profiles), "answer_tokens"
        )
        frame = self.frame_step(system, profiles, contention=contention, compute=compute)
        question = self.question_step(system, profiles, contention=contention, compute=compute)
        generation = self.generation_step(system, profiles, contention=contention, compute=compute)
        estimates = []
        for index, profile in enumerate(profiles):
            frame_row = frame.streams[index]
            vision_each = frame_row.breakdown.get("vision", 0.0)
            estimates.append(
                StreamScenarioEstimate(
                    session_id=profile.session_id,
                    kv_len=profile.kv_len,
                    frames=frames_per_stream[index],
                    answer_tokens=answers_per_stream[index],
                    vision_s=vision_each * frames_per_stream[index],
                    prefill_s=(frame_row.total_s - vision_each) * frames_per_stream[index]
                    + question.streams[index].total_s,
                    generation_s=generation.streams[index].total_s
                    * answers_per_stream[index],
                )
            )
        return estimates

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _per_stream_counts(value, default: int, num_streams: int, name: str) -> list[int]:
        if value is None:
            return [default] * num_streams
        return _broadcast_per_stream(value, num_streams, name)

    def session_shard_bytes(
        self, system: SystemConfig, profile: StreamProfile
    ) -> SessionShardBytes:
        """One session's shard footprint: the bytes registration installs.

        The same byte math :meth:`_memory_for` registers with the bank
        hierarchy, exposed for callers that price moving a whole session —
        the fleet plane charges a cross-device migration exactly these
        bytes on the interconnect.
        """
        base = self.base
        kv_bytes = base.llm.kv_cache_bytes(profile.kv_len, 1) * system.kv_bytes_scale
        if system.kv_offloaded:
            hot = min(kv_bytes, system.kv_device_budget_bytes)
        else:
            hot = kv_bytes
        num_clusters = max(
            int(profile.kv_len // base._avg_tokens_per_cluster(system, profile.measured)),
            1,
        )
        hc_bytes = (
            num_clusters
            * base.llm.model.num_kv_heads
            * base.llm.model.num_layers
            * HC_SIGNATURE_BYTES
            if system.policy.prediction == "resv"
            else 0.0
        )
        return SessionShardBytes(
            hot_bytes=hot,
            offloaded_bytes=max(kv_bytes - hot, 0.0),
            hc_table_bytes=hc_bytes,
            num_clusters=num_clusters,
        )

    def _memory_for(
        self, system: SystemConfig, profiles: Sequence[StreamProfile]
    ) -> ShardedKVHierarchy | None:
        """Partition one fleet's shards into a fresh bank hierarchy.

        Sessions register in *session-id* order (never list order), each
        with its device-resident hot window, its offloaded KV bytes split
        cluster-wise across the banks, and — on ReSV systems — its packed
        HC-table signatures riding along with the shards.
        """
        if self.memory is None:
            return None
        session_ids = [profile.session_id for profile in profiles]
        if len(set(session_ids)) != len(session_ids):
            duplicate = next(s for s in session_ids if session_ids.count(s) > 1)
            raise ValueError(
                "memory-aware pricing requires a distinct StreamProfile."
                f"session_id per stream (shards are keyed by session); "
                f"session id {duplicate} appears more than once"
            )
        memory = self.memory.clone_empty()
        ordered = sorted(profiles, key=lambda p: p.session_id)
        for profile in ordered:
            shards = self.session_shard_bytes(system, profile)
            memory.register(
                profile.session_id,
                offloaded_bytes=shards.offloaded_bytes,
                hot_bytes=shards.hot_bytes,
                num_clusters=shards.num_clusters,
                hc_table_bytes=shards.hc_table_bytes,
            )
        return memory

    def _stream_demands(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        q_lens: Sequence[int | None],
        stage: str,
        memory: ShardedKVHierarchy | None,
    ) -> list[tuple[_DemandEntry | None, float]]:
        """Per stream: its demand-table entry and per-layer fetch service.

        The entry is ``None`` for a stream that skips the step.  Its key is
        read from the profile at every call and never stored on it, so a
        profile edited in place simply looks up another entry.  Hits are
        served in one pass; the call's misses are then derived in one column
        pass per group of keys that differ only in ``kv_len``.  Only the
        fetch service depends on the memory plane (:func:`_fetch_layer_s`).
        """
        table = self._demands.get(system)
        if table is None:
            table = self._demands[system] = {}
        demands: list[tuple[_DemandEntry | None, float] | None] = []
        # misses keyed by every key field but kv_len: kv_len -> the slots it fills
        misses: dict[tuple, dict[int, list[int]]] = {}
        for profile, q_len in zip(profiles, q_lens, strict=True):
            if q_len is None or q_len <= 0:
                demands.append((None, 0.0))
                continue
            measured = profile.measured
            key = (
                profile.kv_len,
                q_len,
                stage,
                profile.ratio_override(stage),
                measured.sort_fraction,
                measured.avg_tokens_per_cluster,
            )
            entry = table.get(key)
            if entry is None:
                misses.setdefault(key[1:], {}).setdefault(key[0], []).append(len(demands))
                demands.append(None)
                continue
            if self._sanitize:
                self._cross_check(system, profile, key, entry)
            # _fetch_layer_s's memory-free case, inline: hits are the hot path
            fetch_layer_s = entry.fetch_service_s
            if memory is not None and entry.fetch_bytes > 0:
                fetch_layer_s = _fetch_layer_s(entry, memory, profile.session_id)
            demands.append((entry, fetch_layer_s))
        for group, rows in misses.items():
            q_len, _, ratio = group[:3]
            first = profiles[next(iter(rows.values()))[0]]
            entries = self.base._layer_demands(
                system, list(rows), q_len, stage, measured=first.measured, ratio=ratio
            )
            for (kv_len, slots), entry in zip(rows.items(), entries, strict=True):
                key = (kv_len, *group)
                if self._num_demands >= _DEMAND_TABLE_ENTRIES:
                    self._demands.clear()
                    table.clear()
                    self._demands[system] = table
                    self._num_demands = 0
                table[key] = entry
                self._num_demands += 1
                for slot in slots:
                    session_id = profiles[slot].session_id
                    demands[slot] = (entry, _fetch_layer_s(entry, memory, session_id))
        return demands

    def _cross_check(
        self, system: SystemConfig, profile: StreamProfile, key: tuple, entry
    ) -> None:
        """Armed only: a table hit must equal a fresh derivation of its profile.

        A derivation input the key forgets makes two profiles share an entry
        that only one of them derives.
        """
        q_len, stage = key[1], key[2]
        ratio = profile.ratio_override(stage)
        (fresh,) = self.base._layer_demands(
            system, [profile.kv_len], q_len, stage, measured=profile.measured, ratio=ratio
        )
        for slot in fields(_DemandEntry):
            if getattr(entry, slot.name) != getattr(fresh, slot.name):
                raise SanitizerError(
                    PRICE_TABLE,
                    f"demand-table hit for {system.name} {key} holds "
                    f"{slot.name}={getattr(entry, slot.name)!r}, a fresh "
                    f"derivation gives {getattr(fresh, slot.name)!r}",
                )

    def _batched_oom(self, system: SystemConfig, profiles: Sequence[StreamProfile]) -> bool:
        """Fleet working set vs device memory, per-stream budgets applied."""
        llm = self.base.llm
        # the same products as llm.kv_cache_bytes(kv_len, 1) * scale (x 1 is exact)
        per_token = llm.kv_bytes_per_token()
        scale = system.kv_bytes_scale
        budget = system.kv_device_budget_bytes if system.kv_offloaded else None
        resident_cache = 0.0
        for profile in profiles:
            per_stream = per_token * profile.kv_len * scale
            if budget is not None:
                per_stream = min(per_stream, budget)
            resident_cache += per_stream
        resident = llm.model_bytes() + resident_cache + system.activation_reserve_bytes
        return resident > system.device.memory_capacity_bytes

    def _batched_step(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        q_lens: Sequence[int | None],
        stage: str,
        include_vision: bool,
        contention: bool,
        compute: str,
    ) -> BatchStepResult:
        require_choice("contention", contention, (False, True))
        validate_compute_policy(compute)
        if not contention and compute != "private":
            raise ValueError(
                f"compute={compute!r} needs contention=True: contention=False prices "
                "the aggregated step, which batches compute instead of sharing it"
            )
        if not profiles:
            raise ValueError("a batched step needs at least one stream profile")
        memory = self._memory_for(system, profiles)
        demands = self._stream_demands(system, profiles, q_lens, stage, memory)
        oom = self._batched_oom(system, profiles)
        if contention:
            result = self._contended_step(
                system, profiles, demands, stage, include_vision, oom, compute == "timesliced"
            )
        else:
            result = self._aggregated_step(
                system, profiles, demands, stage, include_vision, oom
            )
        if memory is not None:
            result.bank_occupancy_bytes = memory.occupancy_snapshot()
        return result

    # ------------------------------------------------------------------ #
    # no-contention mode: exact batched pricing
    # ------------------------------------------------------------------ #
    def _aggregated_step(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        demands: list[tuple[_DemandEntry | None, float]],
        stage: str,
        include_vision: bool,
        oom: bool,
    ) -> BatchStepResult:
        base = self.base
        device = base.device_for(system)
        num_layers = base.llm.model.num_layers
        active = [entry for entry, _ in demands if entry is not None]

        compute_layer = 0.0
        prediction_layer = 0.0
        fetch_layer = 0.0
        on_dre = False
        total_bytes = 0.0
        if active:
            # Dense LLM compute: weights are read once for the whole batch,
            # per-stream KV reads and activations sum (identical to
            # ``TransformerWorkload.layer_cost`` at batch=N for homogeneous
            # streams).
            weight_bytes = base.llm.weight_bytes_per_layer()
            aggregate_cost = KernelCost(
                reduce(add, (entry.compute_cost.flops for entry in active), 0.0),
                weight_bytes
                + reduce(add, (e.compute_cost.dram_bytes - weight_bytes for e in active), 0.0),
            )
            compute_layer = device.dense_time_s(aggregate_cost)

            # KV prediction: the matrix pieces batch on the dense/irregular
            # engine, the data-dependent work is linear per stream, and the
            # fixed selection overhead is paid once per batched invocation.
            parts_list = [entry.parts for entry in active if entry.parts is not None]
            if parts_list:
                dense_cost = KernelCost(reduce(add, (p.dense_flops for p in parts_list), 0.0))
                if parts_list[0].engine == "dense":
                    matrix_time = device.dense_time_s(dense_cost)
                else:
                    matrix_time = device.irregular_time_s(dense_cost)
                prediction_layer = (
                    matrix_time
                    + reduce(add, (parts.serial_s for parts in parts_list), 0.0)
                    + max(parts.overhead_s for parts in parts_list)
                )
                on_dre = parts_list[0].on_dre

            # KV fetch: one merged transfer per layer — the link request
            # latency (and SSD access latency) is paid once, each stream's
            # bytes move at that stream's achievable efficiency.
            total_bytes = reduce(add, (entry.fetch_bytes for entry in active), 0.0)
            if total_bytes > 0:
                link = device.link
                pcie_time = link.config.latency_us * 1e-6 + reduce(
                    add, (entry.pcie_occupancy_s for entry in active), 0.0
                )
                if system.device.offload_target == "ssd":
                    ssd_time = device.ssd.config.read_latency_us * 1e-6 + reduce(
                        add, (entry.ssd_occupancy_s for entry in active), 0.0
                    )
                    fetch_layer = max(pcie_time, ssd_time)
                else:
                    fetch_layer = pcie_time

        layer_latency, exposed_prediction, exposed_fetch = overlap_rules(
            system, stage, compute_layer, prediction_layer, fetch_layer
        )
        vision_time = (
            base._vision_time(system, len(demands))[0] if include_vision else 0.0
        )
        total = layer_latency * num_layers + vision_time
        breakdown = {
            "vision": vision_time,
            "llm_compute": compute_layer * num_layers,
            "kv_prediction": exposed_prediction * num_layers,
            "kv_fetch": exposed_fetch * num_layers,
            "kv_prediction_raw": prediction_layer * num_layers,
            "kv_fetch_raw": fetch_layer * num_layers,
            "prediction_on_dre": float(on_dre),
        }
        vision_each = (
            base._vision_time(system, 1)[0] if include_vision else 0.0
        )
        prediction_total = reduce(
            add, (0.0 if entry is None else entry.prediction_layer_s for entry, _ in demands), 0.0
        )
        streams = []
        for profile, (entry, stream_fetch) in zip(profiles, demands, strict=True):
            if entry is None:
                stream_compute = stream_prediction = stream_bytes = 0.0
            else:
                stream_compute = entry.compute_layer_s
                stream_prediction = entry.prediction_layer_s
                stream_bytes = entry.fetch_bytes
            # the fleet's exposed prediction/fetch are attributed to streams
            # proportionally to their demands (shares sum to the fleet value)
            fetch_share = stream_bytes / total_bytes if total_bytes > 0 else 0.0
            prediction_share = (
                stream_prediction / prediction_total if prediction_total > 0 else 0.0
            )
            streams.append(
                StreamStepResult(
                    session_id=profile.session_id,
                    kv_len=profile.kv_len,
                    arrival_offset_s=profile.arrival_offset_s,
                    # the batch completes together; every stream observes the
                    # fleet latency, its breakdown carries its own demands
                    total_s=total if entry is not None else 0.0,
                    breakdown={
                        "vision": vision_each if entry is not None else 0.0,
                        "llm_compute": stream_compute * num_layers,
                        "kv_prediction": exposed_prediction * num_layers * prediction_share,
                        "kv_fetch": exposed_fetch * num_layers * fetch_share,
                        "kv_prediction_raw": stream_prediction * num_layers,
                        "kv_fetch_raw": stream_fetch * num_layers,
                        "pcie_wait": 0.0,
                        "dre_wait": 0.0,
                    },
                    fetch_bytes=stream_bytes * num_layers,
                )
            )
        return BatchStepResult(
            system=system.name,
            stage=stage,
            contention=False,
            total_s=total,
            streams=streams,
            breakdown=breakdown,
            oom=oom,
        )

    # ------------------------------------------------------------------ #
    # contention mode: FCFS queueing on the shared PCIe link and DRE, with
    # compute private per stream or time-sliced on one round-robin server
    # ------------------------------------------------------------------ #
    def _contended_step(
        self,
        system: SystemConfig,
        profiles: Sequence[StreamProfile],
        demands: list[tuple[_DemandEntry | None, float]],
        stage: str,
        include_vision: bool,
        oom: bool,
        timesliced: bool,
    ) -> BatchStepResult:
        base = self.base
        device = base.device_for(system)
        num_layers = base.llm.model.num_layers
        is_vrex = isinstance(device, VRexAccelerator)
        overlaps = system.policy.overlap_fetch or stage == GENERATION_STAGE
        vision_each = base._vision_time(system, 1)[0] if include_vision else 0.0

        # One issue per active stream, led by the order simultaneous work is
        # served in: start time (arrival plus vision, the same float the
        # event loop keys on), then session id, then list position — so the
        # schedule is a function of the fleet rather than the list order,
        # and bit-identical to the event-driven scheduler even when float
        # addition collapses two nearly-equal offsets onto one instant.
        issues = [
            (
                profile.arrival_offset_s + vision_each,
                profile.session_id,
                index,
                entry.on_dre,
                entry.compute_layer_s * num_layers,
                entry.prediction_layer_s * num_layers,
                fetch_layer_s * num_layers,
            )
            for index, (profile, (entry, fetch_layer_s)) in enumerate(
                zip(profiles, demands, strict=True)
            )
            if entry is not None
        ]
        if timesliced:
            # Replay the scheduler's event structure for one frame per
            # stream: issue events keyed by ``(session_id, index)`` start
            # each stream's stage on the shared servers, so an aligned
            # single-step scheduler run reproduces this mode bit for bit
            # (the same stage core and driver price both).
            loop = EventLoop()
            compute_server = PreemptiveResource(
                loop, "compute", quantum_s=self.quantum_s, priority=PRIO_COMPLETE
            )
            stages = StageCore(is_vrex, len(profiles))
            issue = StageDriver(
                stages, loop, compute_server, ResourceQueue("dre"), PCIeLinkQueue(device.link)
            ).issue
            for start_s, session_id, index, *demand in issues:
                key = (session_id, index)
                begin = partial(issue, index, key, overlaps, *demand)
                loop.schedule(start_s, begin, priority=PRIO_ISSUE, key=key)
            loop.run()
        else:
            # Phase 1 — the DRE grants prediction jobs FCFS the moment a
            # stream's LLM phase starts, so start-time order IS its order.
            sanitize = self._sanitize
            dre_free = link_free = 0.0
            dre_last = link_last = float("-inf")
            issued: list[tuple | None] = [None] * len(profiles)
            granted: list[float | None] = [None] * len(profiles)
            requests = []
            for start_s, session_id, index, on_dre, compute_s, prediction_s, fetch_s in sorted(
                issues
            ):
                served_s = start_s
                if is_vrex and on_dre and prediction_s > 0:
                    if sanitize:
                        dre_last = fcfs_arrival("dre", dre_last, start_s)
                    served_s = start_s if start_s >= dre_free else dre_free
                    dre_free = served_s + prediction_s
                prediction_end_s, request_s = contended_issue(
                    is_vrex, overlaps, start_s, served_s, compute_s, prediction_s
                )
                issued[index] = (
                    start_s, compute_s, prediction_s, fetch_s,
                    served_s - start_s, prediction_end_s, request_s,
                )
                if fetch_s > 0:
                    requests.append((request_s, session_id, index, fetch_s))
            # Phase 2 — the shared link serves transfers FCFS in
            # *request-time* order (which differs from arrival order when
            # per-stream prediction or compute times differ).
            for request_s, _, index, fetch_s in sorted(requests):
                if sanitize:
                    link_last = fcfs_arrival(device.link.config.name, link_last, request_s)
                granted_s = granted[index] = request_s if request_s >= link_free else link_free
                link_free = granted_s + fetch_s

        # Phase 3 — per-stream results under the overlap rules; the fleet
        # makespan spans the streams that took part in the step.
        rows: list[StreamStepResult] = []
        arrivals: list[float] = []
        finishes: list[float] = []
        for index, profile in enumerate(profiles):
            entry = demands[index][0]
            if entry is None:
                rows.append(_inactive_stream_row(profile))
                continue
            if timesliced:
                latency, compute_wait, pcie_wait, exposed_prediction, exposed_fetch = (
                    stages.resolved(index)
                )
                compute_s = stages.compute_s[index]
                prediction_s = stages.prediction_s[index]
                fetch_s = stages.fetch_s[index]
                dre_wait = stages.dre_wait_s[index]
            else:
                start_s, compute_s, prediction_s, fetch_s, dre_wait, prediction_end_s, request_s = (
                    issued[index]
                )
                granted_s = granted[index]
                if granted_s is None:
                    pcie_wait, fetch_end_s = 0.0, None
                else:
                    pcie_wait, fetch_end_s = granted_s - request_s, granted_s + fetch_s
                latency, exposed_prediction, exposed_fetch = contended_latency(
                    is_vrex, overlaps, start_s, compute_s, prediction_s,
                    prediction_end_s, request_s, fetch_end_s,
                )
            breakdown = {
                "vision": vision_each,
                "llm_compute": compute_s,
                "kv_prediction": exposed_prediction,
                "kv_fetch": exposed_fetch,
                "kv_prediction_raw": prediction_s,
                "kv_fetch_raw": fetch_s,
                "pcie_wait": pcie_wait,
                "dre_wait": dre_wait,
            }
            if timesliced:
                breakdown["compute_wait"] = compute_wait
            total_s = vision_each + latency
            rows.append(
                StreamStepResult(
                    session_id=profile.session_id,
                    kv_len=profile.kv_len,
                    arrival_offset_s=profile.arrival_offset_s,
                    total_s=total_s,
                    breakdown=breakdown,
                    fetch_bytes=entry.fetch_bytes * num_layers,
                )
            )
            arrivals.append(profile.arrival_offset_s)
            finishes.append(profile.arrival_offset_s + total_s)

        # per key a left fold from 0.0, the rows in order (a hot loop: plain
        # loops over the breakdowns beat a generator per key)
        breakdowns = [row.breakdown for row in rows]
        fleet = {}
        for key in _CONTENDED_KEYS:
            total = 0.0
            for breakdown in breakdowns:
                total += breakdown[key]
            fleet[key] = total
        if timesliced:
            fleet["compute_wait"] = reduce(add, (row.compute_wait_s for row in rows), 0.0)
            fleet["compute_busy"] = compute_server.busy_s()
        return BatchStepResult(
            system=system.name,
            stage=stage,
            contention=True,
            total_s=max(finishes) - min(arrivals) if finishes else 0.0,
            streams=rows,
            breakdown=fleet,
            oom=oom,
            compute="timesliced" if timesliced else "private",
        )
