"""Rollups and reporting over multi-device fleet runs.

These helpers consume a :class:`repro.sim.fleet.FleetResult` and turn it
into the quantities the fleet experiments report: fleet-wide latency
percentiles next to per-device breakdowns, migration traffic, and the
router's load-balance quality (how evenly the sessions landed).
"""

from __future__ import annotations

import math

from repro.analysis.reporting import format_table
from repro.sim.scheduler import DEFAULT_PERCENTILES


def fleet_rollup(result, percentiles=DEFAULT_PERCENTILES) -> dict[str, float]:
    """Fleet-wide aggregates of one run, flat for sweep rows / JSON.

    ``imbalance`` is max-over-mean served jobs per active device (1.0 =
    perfectly even, ``num_devices`` = everything on one device); idle
    devices still count in the mean — a router that parks work on a
    subset of the fleet should look imbalanced.
    """
    summary = result.fleet_summary(percentiles)
    per_device = [run.schedule.served if run.schedule is not None else 0 for run in result.devices]
    mean_served = sum(per_device) / len(per_device) if per_device else 0.0
    imbalance = max(per_device) / mean_served if mean_served > 0 else float("nan")
    rollup: dict[str, float] = {
        "num_devices": result.num_devices,
        "router": result.fleet.router,
        "jobs": summary.jobs,
        "served": summary.served,
        "dropped": summary.dropped,
        "drop_rate": summary.drop_rate,
        "deadline_miss_rate": summary.deadline_miss_rate,
        "mean_ms": summary.mean_ms,
        "max_ms": summary.max_ms,
        "migrations": result.migration_count,
        "placement_migrations": result.placement_migration_count,
        "steals": result.steal_count,
        "jobs_moved": result.jobs_moved,
        "predicted_sheds": result.predicted_sheds,
        "interconnect_bytes": result.interconnect_bytes,
        "interconnect_busy_s": result.interconnect.busy_s(),
        "imbalance": imbalance,
        "makespan_s": result.makespan_s,
        "events_processed": result.events_processed,
    }
    rollup.update(summary.percentiles_ms)
    return rollup


def per_device_rows(result, percentiles=DEFAULT_PERCENTILES) -> list[dict[str, float]]:
    """One flat row per device: sessions, jobs served/dropped, latency."""
    rows = []
    summaries = result.device_summaries(percentiles)
    for run, summary in zip(result.devices, summaries, strict=True):
        row: dict[str, float] = {
            "device": run.device,
            "streams": run.num_streams,
            "jobs": summary.jobs,
            "served": summary.served,
            "dropped": summary.dropped,
            "deadline_miss_rate": summary.deadline_miss_rate,
            "mean_ms": summary.mean_ms,
        }
        row.update(summary.percentiles_ms)
        rows.append(row)
    return rows


def format_fleet_table(results, title: str | None = None) -> str:
    """Fixed-width comparison table, one row per fleet run."""
    headers = [
        "devices",
        "router",
        "served",
        "dropped",
        "p50 ms",
        "p99 ms",
        "miss %",
        "migrations",
        "steals",
        "GB moved",
        "imbalance",
    ]
    rows = []
    for result in results:
        rollup = fleet_rollup(result)
        rows.append(
            [
                int(rollup["num_devices"]),
                rollup["router"],
                int(rollup["served"]),
                int(rollup["dropped"]),
                f"{rollup['p50']:.2f}",
                f"{rollup['p99']:.2f}",
                f"{100.0 * rollup['deadline_miss_rate']:.1f}",
                int(rollup["migrations"]),
                int(rollup["steals"]),
                f"{rollup['interconnect_bytes'] / 1e9:.2f}",
                "nan" if math.isnan(rollup["imbalance"]) else f"{rollup['imbalance']:.2f}",
            ]
        )
    return format_table(headers, rows, title=title)


def format_device_table(result, title: str | None = None) -> str:
    """Fixed-width per-device breakdown of one fleet run."""
    headers = ["device", "streams", "jobs", "served", "dropped", "p50 ms", "p99 ms", "miss %"]
    rows = []
    for row in per_device_rows(result):
        rows.append(
            [
                int(row["device"]),
                int(row["streams"]),
                int(row["jobs"]),
                int(row["served"]),
                int(row["dropped"]),
                "idle" if int(row["jobs"]) == 0 else f"{row['p50']:.2f}",
                "idle" if int(row["jobs"]) == 0 else f"{row['p99']:.2f}",
                f"{100.0 * row['deadline_miss_rate']:.1f}",
            ]
        )
    return format_table(headers, rows, title=title)
