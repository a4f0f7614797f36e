"""Tests for metrics, reporting helpers and breakdown utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.breakdown import StageBreakdown, retrieval_overhead_fractions, scenario_breakdowns
from repro.analysis.latency import (
    format_latency_summary_table,
    format_schedule_record_table,
)
from repro.analysis.metrics import (
    fps_from_latency_ms,
    pearson_correlation,
    speedup_range,
)
from repro.analysis.reporting import format_series, format_table
from repro.sim.pipeline import LatencyModel
from repro.sim.systems import edge_systems
from repro.sim.workload import default_llm_workload


class TestMetrics:
    def test_fps_and_real_time(self):
        assert fps_from_latency_ms(100.0) == pytest.approx(10.0)
        assert fps_from_latency_ms(250.0, batch=4) == pytest.approx(16.0)
        assert fps_from_latency_ms(0.0) == 0.0

    def test_speedup(self):
        assert speedup_range({1: 2.0, 2: 8.0, 3: 4.0}) == (2.0, 8.0)
        assert speedup_range({}) == (0.0, 0.0)

    def test_pearson_correlation(self):
        x = np.arange(10.0)
        assert pearson_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)
        assert abs(pearson_correlation(x, np.ones(10))) < 1e-9
        with pytest.raises(ValueError):
            pearson_correlation([1.0], [2.0])


class TestReporting:
    def test_format_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", True]], title="T")
        assert "T" in text and "2.50" in text and "yes" in text
        assert len(text.splitlines()) == 5

    def test_format_series(self):
        assert "1K: 3" in format_series({"1K": 3}, "s").replace(".00", "")


class TestBatchSummaryGating:
    """Fleet means must aggregate only streams that produced the statistic."""

    @staticmethod
    def _active_report(session_id=0, sort_fraction=0.2, occupancy=16.0):
        from repro.model.serving import SessionReport

        return SessionReport(
            session_id=session_id,
            frames_processed=4,
            questions_asked=1,
            tokens_generated=2,
            cache_tokens=100,
            cache_bytes=6400,
            frame_retrieval_ratio=0.5,
            generation_retrieval_ratio=0.1,
            sort_fraction=sort_fraction,
            clusters_considered=20,
            wicsum_score_elements=320,
            num_clusters=8,
            mean_tokens_per_cluster=occupancy,
            table_bytes=2048,
        )

    @staticmethod
    def _idle_report(session_id=9):
        from repro.model.serving import SessionReport

        return SessionReport(
            session_id=session_id,
            frames_processed=0,
            questions_asked=0,
            tokens_generated=0,
            cache_tokens=0,
            cache_bytes=0,
            frame_retrieval_ratio=1.0,
            generation_retrieval_ratio=1.0,
        )

    def test_idle_stream_leaves_means_unchanged(self):
        from repro.analysis import batch_summary

        active = [self._active_report(0, 0.2, 16.0), self._active_report(1, 0.3, 24.0)]
        with_idle = active + [self._idle_report()]
        base = batch_summary(active)
        extended = batch_summary(with_idle)
        for key in (
            "mean_frame_retrieval_ratio",
            "mean_generation_retrieval_ratio",
            "mean_sort_fraction",
            "mean_tokens_per_cluster",
        ):
            assert extended[key] == pytest.approx(base[key]), key
        assert extended["num_sessions"] == 3
        assert base["mean_sort_fraction"] == pytest.approx(0.25)
        assert base["mean_tokens_per_cluster"] == pytest.approx(20.0)

    def test_mixed_no_data_streams_do_not_bias_down(self):
        from repro.analysis import batch_summary

        no_wicsum = self._active_report(2)
        no_wicsum.sort_fraction = 0.0
        no_wicsum.wicsum_score_elements = 0
        no_wicsum.num_clusters = 0
        no_wicsum.mean_tokens_per_cluster = 0.0
        summary = batch_summary([self._active_report(0, 0.2, 16.0), no_wicsum])
        assert summary["mean_sort_fraction"] == pytest.approx(0.2)
        assert summary["mean_tokens_per_cluster"] == pytest.approx(16.0)

    def test_all_idle_fleet_uses_defaults(self):
        from repro.analysis import batch_summary

        summary = batch_summary([self._idle_report(0), self._idle_report(1)])
        assert summary["mean_frame_retrieval_ratio"] == 1.0
        assert summary["mean_generation_retrieval_ratio"] == 1.0
        assert summary["mean_sort_fraction"] == 0.0
        assert summary["mean_tokens_per_cluster"] == 0.0

    def test_stream_latency_table_formats_batched_rows(self):
        from repro.analysis import format_stream_latency_table
        from repro.sim.batched import BatchLatencyModel, StreamProfile
        from repro.sim.systems import edge_systems
        from repro.sim.workload import default_llm_workload

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        step = BatchLatencyModel().frame_step(
            system, [StreamProfile(kv_len=40_000, session_id=i) for i in range(2)]
        )
        table = format_stream_latency_table(step.streams, title="fleet")
        assert "fleet" in table and "PCIe wait ms" in table
        assert len(table.splitlines()) == 5


class TestLatencyReporting:
    def test_summary_and_record_tables(self):
        from repro.sim.arrivals import PoissonArrivals
        from repro.sim.batched import BatchLatencyModel, StreamProfile
        from repro.sim.scheduler import ServingScheduler

        system = edge_systems(default_llm_workload().model_bytes())["V-Rex8"]
        scheduler = ServingScheduler(BatchLatencyModel())
        profiles = [StreamProfile(kv_len=40_000, session_id=i) for i in range(2)]
        traces = PoissonArrivals(rate_hz=4.0).generate(2, 4, seed=0)
        result = scheduler.run(system, profiles, traces)
        summaries = result.stream_summaries() + [result.fleet_summary()]
        table = format_latency_summary_table(summaries, title="latency")
        assert "p99 ms" in table and "fleet" in table and "stream 0" in table
        records = format_schedule_record_table(result.records, limit=3)
        assert "sojourn ms" in records
        assert len(records.splitlines()) == 5  # header, rule, 3 rows


class TestBreakdownHelpers:
    def test_scenario_breakdowns_and_fractions(self):
        model = LatencyModel()
        systems = edge_systems(default_llm_workload().model_bytes())
        breakdowns = scenario_breakdowns(model, systems["AGX + FlexGen"], (1_000, 40_000))
        assert len(breakdowns) == 2
        for breakdown in breakdowns:
            total = (
                breakdown.vision_fraction
                + breakdown.prefill_fraction
                + breakdown.generation_fraction
            )
            assert total == pytest.approx(1.0)
        assert isinstance(breakdowns[0], StageBreakdown)

    def test_retrieval_overhead_dominates_for_topk_prefill(self):
        """Fig. 4(c): retrieval (prediction + fetch) is the main cost at 40K."""
        from repro.hw.specs import A100
        from repro.sim.systems import gpu_system, infinigen_p_policy

        model = LatencyModel()
        system = gpu_system(A100, infinigen_p_policy(), name="A100 + InfiniGenP")
        fractions = retrieval_overhead_fractions(model, system, kv_len=40_000)
        assert fractions["retrieval"] > 0.6
        assert fractions["llm"] < 0.4
        assert fractions["llm"] + fractions["retrieval"] == pytest.approx(1.0)
