"""Rollups and reporting over run-level energy reports.

These helpers consume an :class:`repro.sim.energy.EnergyReport` (from
``ScheduleResult.energy()`` or ``FleetResult.energy()``) and turn it into
the quantities the energy experiments print: a per-resource busy/idle
table and a flat headline row — total J, J/token, J/query, $/1M-queries
and effective GOPS/W — suitable for sweep tables and JSON dumps.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table


def energy_rollup(report) -> dict[str, float]:
    """Flat headline metrics of one energy report (sweep-row friendly)."""
    return {
        "system": report.system,
        "window_s": report.window_s,
        "served": report.served,
        "tokens": report.tokens,
        "total_j": report.total_j,
        "busy_j": report.busy_j,
        "idle_j": report.idle_j,
        "j_per_token": report.j_per_token,
        "j_per_query": report.j_per_query,
        "usd_per_1m_queries": report.usd_per_1m_queries,
        "gops_per_w": report.gops_per_w,
    }


def resource_rows(report) -> list[dict[str, float]]:
    """One flat row per resource: power, residency, busy/idle split."""
    rows = []
    for resource in report.resources:
        total = resource.total_j
        rows.append(
            {
                "resource": resource.name,
                "power_w": resource.busy_power_w,
                "busy_s": resource.busy_s,
                "utilization": resource.utilization,
                "busy_j": resource.busy_j,
                "idle_j": resource.idle_j,
                "total_j": total,
                "share": total / report.total_j if report.total_j > 0 else 0.0,
            }
        )
    return rows


def format_energy_table(report, title: str | None = None) -> str:
    """Per-resource energy table with a totals line."""
    headers = ["resource", "power W", "busy s", "util %", "busy J", "idle J", "total J", "share %"]
    rows = []
    for row in resource_rows(report):
        rows.append(
            [
                row["resource"],
                f"{row['power_w']:.2f}",
                f"{row['busy_s']:.4f}",
                f"{100.0 * row['utilization']:.1f}",
                f"{row['busy_j']:.3f}",
                f"{row['idle_j']:.3f}",
                f"{row['total_j']:.3f}",
                f"{100.0 * row['share']:.1f}",
            ]
        )
    rows.append(
        [
            "total",
            "",
            "",
            "",
            f"{report.busy_j:.3f}",
            f"{report.idle_j:.3f}",
            f"{report.total_j:.3f}",
            "100.0",
        ]
    )
    return format_table(headers, rows, title=title)
