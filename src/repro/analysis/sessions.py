"""Aggregation and reporting over multi-stream serving sessions.

These helpers consume the per-stream :class:`repro.model.streaming.SessionReport`
rows a :class:`repro.model.serving.SessionBatch` produces and turn them into
the quantities the experiments report: fleet-wide retrieval ratios, WiCSum
sort fractions and HC-table occupancy — the statistics that used to live
only on a single retriever's ``last_*`` attributes.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_table


def _mean_or(values, default: float) -> float:
    return float(np.mean(values)) if values else default


def batch_summary(reports) -> dict[str, float]:
    """Fleet-wide aggregates over a batch's per-stream reports.

    Ratios are averaged per stream (every user counts equally, regardless
    of how long their video was); byte and token totals are summed.  Each
    mean only aggregates the streams that actually produced the statistic —
    a stream that never ran WiCSum or formed no clusters reports 0.0
    placeholders, and an idle stream reports default ratios; including them
    would bias fleet means (mirrors
    :meth:`repro.sim.pipeline.MeasuredRetrieval.from_session_report`).
    """
    reports = list(reports)
    if not reports:
        return {
            "num_sessions": 0,
            "total_cache_tokens": 0,
            "total_cache_bytes": 0,
            "total_table_bytes": 0,
            "mean_frame_retrieval_ratio": 1.0,
            "mean_generation_retrieval_ratio": 1.0,
            "mean_sort_fraction": 0.0,
            "mean_tokens_per_cluster": 0.0,
        }
    frame_ratios = [
        r.frame_retrieval_ratio
        for r in reports
        if r.frames_processed > 0 or r.questions_asked > 0
    ]
    generation_ratios = [
        r.generation_retrieval_ratio for r in reports if r.tokens_generated > 0
    ]
    sort_fractions = [r.sort_fraction for r in reports if r.wicsum_score_elements > 0]
    occupancies = [r.mean_tokens_per_cluster for r in reports if r.num_clusters > 0]
    return {
        "num_sessions": len(reports),
        "total_cache_tokens": int(sum(r.cache_tokens for r in reports)),
        "total_cache_bytes": int(sum(r.cache_bytes for r in reports)),
        "total_table_bytes": int(sum(r.table_bytes for r in reports)),
        "mean_frame_retrieval_ratio": _mean_or(frame_ratios, 1.0),
        "mean_generation_retrieval_ratio": _mean_or(generation_ratios, 1.0),
        "mean_sort_fraction": _mean_or(sort_fractions, 0.0),
        "mean_tokens_per_cluster": _mean_or(occupancies, 0.0),
    }


def retrieval_ratio_spread(reports) -> tuple[float, float]:
    """(min, max) frame-stage retrieval ratio across streams."""
    ratios = [r.frame_retrieval_ratio for r in reports]
    if not ratios:
        return (1.0, 1.0)
    return (float(min(ratios)), float(max(ratios)))


def format_session_table(reports, title: str | None = None) -> str:
    """Fixed-width per-stream report table for example/experiment output."""
    headers = [
        "stream",
        "frames",
        "tokens",
        "cache KiB",
        "frame ratio",
        "gen ratio",
        "sort frac",
        "tok/cluster",
    ]
    rows = [
        [
            r.session_id,
            r.frames_processed,
            r.cache_tokens,
            r.cache_bytes / 1024.0,
            r.frame_retrieval_ratio,
            r.generation_retrieval_ratio,
            r.sort_fraction,
            r.mean_tokens_per_cluster,
        ]
        for r in reports
    ]
    return format_table(headers, rows, title=title)


def format_stream_latency_table(stream_results, title: str | None = None) -> str:
    """Per-stream latency table for batched performance-plane steps.

    Accepts the ``streams`` rows of a
    :class:`repro.sim.batched.BatchStepResult` (duck-typed so this module
    stays independent of the sim package).
    """
    headers = [
        "stream",
        "kv_len",
        "arrive ms",
        "latency ms",
        "compute ms",
        "fetch ms",
        "PCIe wait ms",
        "DRE wait ms",
    ]
    rows = [
        [
            r.session_id,
            r.kv_len,
            r.arrival_offset_s * 1e3,
            r.total_s * 1e3,
            r.breakdown.get("llm_compute", 0.0) * 1e3,
            r.breakdown.get("kv_fetch", r.breakdown.get("kv_fetch_raw", 0.0)) * 1e3,
            r.breakdown.get("pcie_wait", 0.0) * 1e3,
            r.breakdown.get("dre_wait", 0.0) * 1e3,
        ]
        for r in stream_results
    ]
    return format_table(headers, rows, title=title)
