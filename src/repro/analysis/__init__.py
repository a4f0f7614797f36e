"""Metrics, breakdowns and plain-text reporting for experiment drivers."""

from repro.analysis.breakdown import (
    StageBreakdown,
    retrieval_overhead_fractions,
    scenario_breakdowns,
)
from repro.analysis.energy import (
    energy_rollup,
    format_energy_table,
    resource_rows,
)
from repro.analysis.fleet import (
    fleet_rollup,
    format_device_table,
    format_fleet_table,
    per_device_rows,
)
from repro.analysis.latency import (
    format_bank_occupancy_table,
    format_latency_summary_table,
    format_schedule_record_table,
)
from repro.analysis.metrics import (
    REAL_TIME_FPS,
    fps_from_latency_ms,
    pearson_correlation,
    speedup_range,
)
from repro.analysis.reporting import format_series, format_table
from repro.analysis.sessions import (
    batch_summary,
    format_session_table,
    format_stream_latency_table,
    retrieval_ratio_spread,
)

__all__ = [
    "REAL_TIME_FPS",
    "StageBreakdown",
    "batch_summary",
    "energy_rollup",
    "fleet_rollup",
    "format_bank_occupancy_table",
    "format_device_table",
    "format_energy_table",
    "format_fleet_table",
    "format_latency_summary_table",
    "format_schedule_record_table",
    "format_series",
    "format_session_table",
    "format_stream_latency_table",
    "format_table",
    "fps_from_latency_ms",
    "pearson_correlation",
    "per_device_rows",
    "resource_rows",
    "retrieval_overhead_fractions",
    "retrieval_ratio_spread",
    "scenario_breakdowns",
    "speedup_range",
]
