"""Runtime simulation sanitizer: invariant assertions with an event trace.

The hypothesis suites *sample* the stack's conservation invariants; the
sanitizer *asserts* them on every event of every run it is enabled for.
There is one switch: the environment variable ``REPRO_SANITIZE=1`` (or
:func:`arm`, which sets it).  Every instrumented component reads it once,
when it is constructed; then run anything — the tier-1 suite, a golden
run, a sweep.  Checks threaded through the stack:

* **event order** — :class:`~repro.hw.event.EventLoop` and
  :class:`~repro.hw.event.ArrayEventQueue` (and the fused dispatch loop
  of :func:`repro.sim.engine.run_array`) assert pops are monotone
  non-decreasing in ``(time, subkey)`` — the static arrival lane and the
  dynamic structure must honor one total order;
* **ring discipline** — :class:`~repro.hw.event.IndexRing` asserts index
  and lane bounds and that an index is never pushed while still queued
  (the corruption mode its allocation-free design is exposed to);
* **resource balance** — the scheduler's job lifecycle
  (:func:`repro.sim.engine._job_lifecycle`, under both engines) asserts
  at end of run that every stream slot drained (no job still holding or
  queued on one); :class:`~repro.hw.event.RoundRobinCore` (one drain
  check under :class:`~repro.hw.event.PreemptiveResource` and the array
  engine) and :class:`~repro.hw.event.ResourceQueue` (hence
  :class:`~repro.hw.memory.pcie.PCIeLinkQueue`) assert non-negative
  waits, FCFS arrival order, and — via ``assert_drained()`` at end of
  run — that every submitted job completed with ``served == work``
  exactly;
* **job states** — :class:`~repro.sim.jobtable.JobTable` walks every job
  of either engine through pending → submitted → begun → recorded, and
  asserts every record describes a legal job lifecycle (each job
  recorded at most once, ``arrival <= start <= finish``, admission/kind
  codes in range, drop flags consistent with admission outcomes);
* **shard conservation** — :class:`~repro.hw.memory.sharding.ShardedKVHierarchy`
  asserts after every mutation that per-session shard bytes telescope
  exactly (warm + cold = off-chip, warm never exceeds home), that bank
  occupancy equals the per-session warm sum, budgets are respected, and
  the hot tier is never evicted;
* **energy conservation** — :func:`repro.sim.energy.assert_conserved`
  asserts every energy report's per-resource rows are non-negative,
  bounded by their power x window ceiling, and sum to the reported
  total (a row bypassing the accounting surfaces here, not as a wrong
  $/1M-queries figure downstream);
* **table conservation** — :class:`~repro.core.clustering.HashClusterLanes`
  asserts after every update that each lane's live cluster counts sum to
  the tokens observed, that dead slots hold no counts, votes or key sums,
  and that every live signature is the packed majority of its votes;
* **price table** — :class:`~repro.sim.batched.BatchLatencyModel`
  re-derives every demand-table hit as a column of one through the
  derivation a miss runs and compares the two field by field, so an input added to the derivation
  but forgotten in the table key fails at the first hit, not as a
  drifting golden.

Violations raise :class:`SanitizerError` — a structured error carrying a
machine-readable check code and the tail of the event trace leading up
to the violation, so a corrupted run points at *where* the contract
broke, not just that a golden diverged later.
"""

from __future__ import annotations

import os
import sys
from collections import deque

#: Environment variable enabling the sanitizer (any value but ""/"0").
ENV_VAR = "REPRO_SANITIZE"

#: Machine-readable check codes carried by :class:`SanitizerError`.
EVENT_ORDER = "event-order"
LANE_ORDER = "lane-order"
RING_DISCIPLINE = "ring-discipline"
RESOURCE_BALANCE = "resource-balance"
JOB_STATE = "job-state"
SHARD_CONSERVATION = "shard-conservation"
ENERGY_CONSERVATION = "energy-conservation"
TABLE_CONSERVATION = "table-conservation"
PRICE_TABLE = "price-table"

#: Events retained in a trace tail attached to errors.
TRACE_TAIL = 16


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized runs."""
    return os.environ.get(ENV_VAR, "") not in ("", "0")


def arm() -> None:
    """Arm the sanitizer for the rest of the process.

    Equivalent to launching under ``REPRO_SANITIZE=1``: every component
    constructed afterwards runs its invariant checks.  Experiment drivers
    expose this as ``--sanitize``.
    """
    os.environ[ENV_VAR] = "1"


def arm_from_argv(argv: list[str] | None = None, flag: str = "--sanitize") -> list[str]:
    """Consume ``flag`` from an argv list, arming the sanitizer if present.

    Returns the remaining arguments, so drivers with hand-rolled argument
    handling can prepend this without an ``argparse`` migration::

        def main(argv=None):
            rest = arm_from_argv(argv)
            ...
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if flag in args:
        arm()
        args = [arg for arg in args if arg != flag]
    return args


class SanitizerError(AssertionError):
    """A violated simulation invariant, with the event trace tail.

    ``code`` is one of the module-level check codes (``EVENT_ORDER``,
    ``RESOURCE_BALANCE``, …); ``trace`` is the most recent events the
    violating component processed, oldest first.
    """

    def __init__(self, code: str, message: str, trace: "EventTrace | None" = None):
        self.code = code
        self.trace = tuple(trace.tail()) if trace is not None else ()
        text = f"[{code}] {message}"
        if self.trace:
            rendered = "\n".join(f"    {entry}" for entry in self.trace)
            text = f"{text}\nevent trace tail (oldest first):\n{rendered}"
        super().__init__(text)


class EventTrace:
    """A bounded ring of recent events, attached to sanitizer errors."""

    __slots__ = ("_events",)

    def __init__(self, capacity: int = TRACE_TAIL):
        self._events: deque = deque(maxlen=capacity)

    def note(self, entry: object) -> None:
        """Record one event description (any printable object)."""
        self._events.append(entry)

    def tail(self) -> list:
        """Recorded events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)
