"""Latency-distribution reporting for event-driven serving runs.

The serving scheduler (:mod:`repro.sim.scheduler`) reports *distributions*
— per-stream and fleet sojourn-time percentiles, deadline-miss rates and
admission drop rates — rather than the single makespan the lockstep batched
plane produces.  These helpers format those quantities; like
the rest of :mod:`repro.analysis` they are duck-typed (any object exposing
``sojourn_s`` / ``dropped`` / ``deadline_missed`` rows works) so the module
stays independent of the sim package.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table


def format_latency_summary_table(summaries, title: str | None = None) -> str:
    """Fixed-width table of :class:`~repro.sim.scheduler.LatencySummary` rows.

    Accepts any objects exposing ``scope`` / ``served`` / ``dropped`` /
    ``p50_ms`` / ``p95_ms`` / ``p99_ms`` / ``mean_ms`` /
    ``deadline_miss_rate`` / ``drop_rate``.
    """
    headers = [
        "scope",
        "served",
        "dropped",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "mean ms",
        "miss %",
        "drop %",
    ]
    rows = [
        [
            summary.scope,
            summary.served,
            summary.dropped,
            summary.p50_ms,
            summary.p95_ms,
            summary.p99_ms,
            summary.mean_ms,
            100.0 * summary.deadline_miss_rate,
            100.0 * summary.drop_rate,
        ]
        for summary in summaries
    ]
    return format_table(headers, rows, title=title)


def format_bank_occupancy_table(
    trajectory, title: str | None = None, limit: int = 20
) -> str:
    """Fixed-width table of a per-bank occupancy trajectory.

    ``trajectory`` is a list of ``(time_s, per_bank_bytes)`` points — the
    :class:`~repro.sim.scheduler.ScheduleResult.bank_occupancy_trajectory`
    a memory-aware scheduler run records at every warm-occupancy change
    (registration, cold-shard eviction, promotion).  Occupancies print in
    GiB; only the first ``limit`` points are shown.
    """
    points = list(trajectory)[:limit]
    num_banks = len(points[0][1]) if points else 0
    headers = ["time s"] + [f"bank{bank} GiB" for bank in range(num_banks)]
    rows = [
        [time_s] + [occupancy / 1024.0**3 for occupancy in occupancies]
        for time_s, occupancies in points
    ]
    return format_table(headers, rows, title=title)


def format_schedule_record_table(records, title: str | None = None, limit: int = 20) -> str:
    """Per-job table of the first ``limit`` schedule records."""
    headers = [
        "stream",
        "kind",
        "job",
        "arrive s",
        "start s",
        "finish s",
        "sojourn ms",
        "PCIe wait ms",
        "state",
    ]
    rows = [
        [
            record.stream_index,
            record.kind,
            record.job_index,
            record.arrival_s,
            record.start_s,
            record.finish_s,
            record.sojourn_s * 1e3,
            record.pcie_wait_s * 1e3,
            "dropped"
            if record.dropped
            else ("late" if record.deadline_missed else "ok"),
        ]
        for record in records[:limit]
    ]
    return format_table(headers, rows, title=title)
