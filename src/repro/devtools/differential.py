"""Cross-engine differential sanitization.

The stack ships two executions of every schedule: the dict-based
reference event loop and the fused array engine.  The golden tests pin a
handful of seeded runs to both; this module turns that spot check into a
*differential sanitizer* — run the same seeded workload under both
engines (each under the runtime sanitizer, so internal invariants are
asserted on every event) and require the outputs to agree record for
record.  On divergence the error does not just say "a golden drifted":
it carries a field-level diff of the first records that disagree, so the
mismatch points at the job and the field where the engines forked.

Duck-typed over anything with a ``.records`` sequence of comparable entries
(:class:`~repro.sim.scheduler.ScheduleResult`,
:class:`~repro.sim.fleet.FleetResult`); ``events_processed`` is compared
too when both sides expose it, and when both carry a memory plane so are
its eviction list and the bank-occupancy trajectory — two engines that
demote different victims can still serve the same schedule.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.devtools.sanitizer import sanitize_enabled

#: Engines every differential check runs, in comparison order.
ENGINES = ("reference", "array")

#: Maximum diverging records rendered into a :class:`DifferentialError`.
DIFF_LIMIT = 8


class DifferentialError(AssertionError):
    """Two engines produced different outputs for the same seeded run."""

    def __init__(self, message: str, diffs: list[str]):
        self.diffs = tuple(diffs)
        if diffs:
            rendered = "\n".join(f"    {line}" for line in diffs)
            message = f"{message}\nfirst diverging records:\n{rendered}"
        super().__init__(message)


def diff_records(first, second, limit: int = DIFF_LIMIT) -> list[str]:
    """Field-level diff of two record sequences, empty when they agree.

    Records are compared pairwise in order (both engines emit records in
    completion order, so index ``i`` describes the same job on both
    sides); each diverging pair contributes one line naming the index,
    the job and every field (its instance ``__dict__``, so a dataclass or
    attribute bag, never a ``__slots__`` class) that disagrees.  Floats
    are compared exactly — the engines promise bit-identical schedules.
    A ``RecordSequence`` is compared like a list, building rows as it goes.
    """
    diffs: list[str] = []
    if len(first) != len(second):
        diffs.append(f"record count: {len(first)} != {len(second)}")
    for index, (a, b) in enumerate(zip(first, second, strict=False)):
        if a == b:
            continue
        fields_a, fields_b = vars(a), vars(b)
        changed = sorted(
            name
            for name in fields_a.keys() | fields_b.keys()
            if fields_a.get(name) != fields_b.get(name)
        )
        label = (
            f"stream {fields_a.get('stream_index', '?')} "
            f"{fields_a.get('kind', '?')}[{fields_a.get('job_index', '?')}]"
        )
        parts = ", ".join(
            f"{name}: {fields_a.get(name)!r} != {fields_b.get(name)!r}"
            for name in changed
        )
        diffs.append(f"record[{index}] ({label}): {parts}")
        if len(diffs) >= limit:
            diffs.append("... (diff truncated)")
            break
    return diffs


def _diff_entries(name: str, first, second, limit: int = DIFF_LIMIT) -> list[str]:
    """Entry-level diff of two sequences compared with ``==``, empty when equal."""
    diffs: list[str] = []
    if len(first) != len(second):
        diffs.append(f"{name} count: {len(first)} != {len(second)}")
    for index, (a, b) in enumerate(zip(first, second, strict=False)):
        if a != b:
            diffs.append(f"{name}[{index}]: {a!r} != {b!r}")
            if len(diffs) >= limit:
                diffs.append(f"... ({name} diff truncated)")
                break
    return diffs


def assert_engines_agree(
    run: Callable[[str], object],
    engines: tuple[str, ...] = ENGINES,
    require_sanitizer: bool = True,
) -> dict[str, object]:
    """Run ``run(engine)`` per engine and require identical outputs.

    ``run`` must be a deterministic closure over a seeded workload that
    executes it under the named engine and returns the result object.
    With ``require_sanitizer`` (the default) the check refuses to run
    unsanitized — a differential pass is only as strong as the invariant
    checks inside each run, so call this under ``REPRO_SANITIZE=1`` (or
    after :func:`repro.devtools.sanitizer.arm`).

    Returns the per-engine results keyed by engine name so callers can
    keep asserting on either one.
    """
    if require_sanitizer and not sanitize_enabled():
        raise RuntimeError(
            "differential check requires the runtime sanitizer: set "
            "REPRO_SANITIZE=1 (or call repro.devtools.sanitizer.arm()) "
            "before assert_engines_agree, or pass require_sanitizer=False"
        )
    if len(engines) < 2:
        raise ValueError(f"need at least two engines to diff, got {engines!r}")
    results = {engine: run(engine) for engine in engines}
    baseline_name = engines[0]
    baseline = results[baseline_name]
    for engine in engines[1:]:
        candidate = results[engine]
        diffs = diff_records(baseline.records, candidate.records)
        base_events = getattr(baseline, "events_processed", None)
        cand_events = getattr(candidate, "events_processed", None)
        if base_events is not None and base_events != cand_events:
            diffs.insert(0, f"events_processed: {base_events} != {cand_events}")
        base_memory = getattr(baseline, "memory", None)
        cand_memory = getattr(candidate, "memory", None)
        if base_memory is not None and cand_memory is not None:
            diffs += _diff_entries(
                "memory.evictions", base_memory.evictions, cand_memory.evictions
            )
            diffs += _diff_entries(
                "bank_occupancy_trajectory",
                baseline.bank_occupancy_trajectory,
                candidate.bank_occupancy_trajectory,
            )
        if diffs:
            raise DifferentialError(
                f"engines {baseline_name!r} and {engine!r} diverged",
                diffs,
            )
    return results
