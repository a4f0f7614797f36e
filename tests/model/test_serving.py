"""Tests for the multi-stream serving layer (RetrievalSession/SessionBatch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReSVConfig
from repro.core.baselines import make_rekv
from repro.core.resv import ReSVRetriever
from repro.model.serving import RetrievalSession, SessionBatch
from repro.model.streaming import StreamingSession


def _frames(rng, count, tokens, hidden, drift=0.05):
    base = rng.normal(size=(tokens, hidden))
    return [base + drift * rng.normal(size=base.shape) for _ in range(count)]


def _resv_for(config):
    return ReSVRetriever(
        config.num_layers,
        config.num_kv_heads,
        config.head_dim,
        ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.5),
    )


class TestRetrievalSession:
    def test_private_state_leaves_default_session_untouched(self, tiny_model, rng):
        session = RetrievalSession(tiny_model, retriever=None, session_id=0)
        for frame in _frames(rng, 3, 4, tiny_model.config.hidden_dim):
            session.process_frame(frame)
        assert session.cache_length == 12
        assert tiny_model.cache_length == 0  # default single-stream state untouched

    def test_matches_single_stream_session(self, tiny_model_config, rng):
        """A RetrievalSession must produce the same outputs as the old API."""
        from repro.model.llm import StreamingVideoLLM

        frames = _frames(rng, 4, 4, tiny_model_config.hidden_dim)
        question = rng.normal(size=(3, tiny_model_config.hidden_dim))

        single_model = StreamingVideoLLM(tiny_model_config, seed=0)
        single_model.attach_retriever(_resv_for(tiny_model_config))
        single = StreamingSession(single_model)

        batch_model = StreamingVideoLLM(tiny_model_config, seed=0)
        batched = RetrievalSession(batch_model, _resv_for(tiny_model_config))

        for frame_id, frame in enumerate(frames):
            out_single = single.process_frame(frame, frame_id=frame_id)
            out_batched = batched.process_frame(frame, frame_id=frame_id)
            np.testing.assert_allclose(out_single, out_batched)
        np.testing.assert_allclose(single.ask(question), batched.ask(question))
        np.testing.assert_allclose(single.generate(2), batched.generate(2))
        assert single.stats.retrieval_ratio("frame") == pytest.approx(
            batched.stats.retrieval_ratio("frame")
        )

    def test_report_carries_engine_statistics(self, tiny_model, tiny_model_config, rng):
        session = RetrievalSession(tiny_model, _resv_for(tiny_model_config))
        for frame in _frames(rng, 4, 4, tiny_model_config.hidden_dim):
            session.process_frame(frame)
        report = session.report()
        assert report.frames_processed == 4
        assert report.cache_tokens == 16
        assert 0.0 < report.frame_retrieval_ratio <= 1.0
        assert report.num_clusters > 0
        assert report.mean_tokens_per_cluster > 0.0
        assert report.clusters_considered > 0
        assert report.table_bytes > 0


class TestSessionBatch:
    def test_rejects_prototype_and_factory(self, tiny_model, tiny_model_config):
        with pytest.raises(ValueError):
            SessionBatch(
                tiny_model,
                retriever=_resv_for(tiny_model_config),
                retriever_factory=lambda: _resv_for(tiny_model_config),
            )

    def test_spawned_retrievers_share_encoder_not_state(self, tiny_model, tiny_model_config, rng):
        prototype = _resv_for(tiny_model_config)
        batch = SessionBatch(tiny_model, retriever=prototype, num_sessions=3)
        assert len(batch) == 3
        retrievers = [session.retriever for session in batch.sessions]
        assert all(r is not prototype for r in retrievers)
        assert len({id(r) for r in retrievers}) == 3
        assert all(r.encoder is prototype.encoder for r in retrievers)

        batch.sessions[0].process_frame(rng.normal(size=(4, tiny_model_config.hidden_dim)))
        assert retrievers[0].table(0, 0).num_tokens == 4
        assert retrievers[1].table(0, 0).num_tokens == 0

    def test_streams_are_isolated(self, tiny_model, tiny_model_config, rng):
        """Serving other streams must not change a stream's outputs."""
        frames = _frames(rng, 3, 4, tiny_model_config.hidden_dim)
        other = _frames(np.random.default_rng(99), 3, 4, tiny_model_config.hidden_dim, drift=0.5)

        solo = RetrievalSession(tiny_model, _resv_for(tiny_model_config))
        solo_out = [solo.process_frame(f, frame_id=i) for i, f in enumerate(frames)]

        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        batched_out = []
        for i, (frame, other_frame) in enumerate(zip(frames, other, strict=True)):
            outputs = batch.process_frames([frame, other_frame], frame_id=i)
            batched_out.append(outputs[0])
        for expected, actual in zip(solo_out, batched_out, strict=True):
            np.testing.assert_allclose(expected, actual)

    def test_round_robin_with_stalled_stream(self, tiny_model, tiny_model_config, rng):
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        frame = rng.normal(size=(4, tiny_model_config.hidden_dim))
        outputs = batch.process_frames([frame, None])
        assert outputs[0] is not None and outputs[1] is None
        assert batch.sessions[0].cache_length == 4
        assert batch.sessions[1].cache_length == 0
        with pytest.raises(ValueError):
            batch.process_frames([frame])

    def test_run_streams_stalled_tick_does_not_end_stream(self, tiny_model, tiny_model_config, rng):
        """A stream yielding None (stalled tick) must keep running."""
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=1
        )
        frames = _frames(rng, 2, 4, hidden)
        batch.run_streams([[frames[0], None, frames[1]]])
        assert batch.sessions[0].stats.frames_processed == 2

    def test_run_streams_drains_unequal_lengths(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        batch.run_streams([_frames(rng, 5, 4, hidden), _frames(rng, 2, 4, hidden)])
        assert batch.sessions[0].stats.frames_processed == 5
        assert batch.sessions[1].stats.frames_processed == 2
        assert sum(session.cache_length for session in batch.sessions) == (5 + 2) * 4

    def test_reports_and_generation(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=4
        )
        streams = [_frames(np.random.default_rng(s), 3, 4, hidden) for s in range(4)]
        batch.run_streams(streams)
        batch.ask_all([rng.normal(size=(2, hidden))] * 4)
        batch.generate_all(2)
        reports = batch.reports()
        assert [r.session_id for r in reports] == [0, 1, 2, 3]
        for report in reports:
            assert report.frames_processed == 3
            assert report.questions_asked == 1
            assert report.tokens_generated == 2
            assert 0.0 < report.frame_retrieval_ratio <= 1.0
            assert 0.0 < report.generation_retrieval_ratio <= 1.0

    def test_generate_all_per_stream_counts(self, tiny_model, tiny_model_config, rng):
        """Only streams that asked a question generate (and record) tokens."""
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=3
        )
        batch.run_streams([_frames(rng, 2, 4, hidden)] * 3)
        batch.ask_all([rng.normal(size=(2, hidden)), None, rng.normal(size=(2, hidden))])
        outputs = batch.generate_all([3, None, 0])
        assert outputs[0].shape == (3, hidden)
        assert outputs[1] is None
        assert outputs[2].shape == (0, hidden)
        reports = batch.reports()
        assert [r.tokens_generated for r in reports] == [3, 0, 0]
        # the skipped streams' caches did not grow past their frames
        assert batch.sessions[1].cache_length == 2 * 4
        assert batch.sessions[2].cache_length == 2 * 4 + 2

    def test_generate_all_scalar_unchanged(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        batch.run_streams([_frames(rng, 2, 4, hidden)] * 2)
        outputs = batch.generate_all(2)
        assert all(out.shape == (2, hidden) for out in outputs)
        assert [r.tokens_generated for r in batch.reports()] == [2, 2]

    def test_generate_all_length_validation(self, tiny_model, tiny_model_config):
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        with pytest.raises(ValueError):
            batch.generate_all([1])

    def test_run_arrivals_processes_in_global_arrival_order(
        self, tiny_model, tiny_model_config, rng
    ):
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        streams = [_frames(rng, 2, 4, hidden), _frames(rng, 3, 4, hidden)]
        schedule = batch.run_arrivals(streams, [[0.5, 2.0], [0.0, 0.5, 1.0]])
        assert schedule == [
            (0.0, 1, 0),
            (0.5, 0, 0),
            (0.5, 1, 1),
            (1.0, 1, 2),
            (2.0, 0, 1),
        ]
        assert batch.sessions[0].stats.frames_processed == 2
        assert batch.sessions[1].stats.frames_processed == 3

    def test_run_arrivals_matches_round_robin_per_stream_state(
        self, tiny_model_config, rng
    ):
        """State isolation: admission order across streams cannot change
        any single stream's cache or statistics."""
        from repro.model.llm import StreamingVideoLLM

        hidden = tiny_model_config.hidden_dim
        streams = [_frames(rng, 3, 4, hidden), _frames(rng, 3, 4, hidden)]

        tick_model = StreamingVideoLLM(tiny_model_config, seed=0)
        ticked = SessionBatch(
            tick_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        ticked.run_streams([list(frames) for frames in streams])

        arrival_model = StreamingVideoLLM(tiny_model_config, seed=0)
        arrived = SessionBatch(
            arrival_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        arrived.run_arrivals(streams, [[0.0, 0.1, 0.2], [1.0, 1.1, 1.2]])

        for tick_report, arrival_report in zip(ticked.reports(), arrived.reports(), strict=True):
            assert tick_report == arrival_report

    def test_run_arrivals_validation(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        frames = _frames(rng, 2, 4, hidden)
        with pytest.raises(ValueError):
            batch.run_arrivals([frames], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            batch.run_arrivals([frames, frames], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            batch.run_arrivals([frames, frames], [[0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            batch.run_arrivals([frames, frames], [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "arrivals",
        [
            [[0.0, float("nan"), 0.5], [0.1, 0.2, 0.3]],
            [[0.0, 0.2, 0.5], [0.1, float("inf"), float("inf")]],
            [[float("-inf"), 0.2, 0.5], [0.1, 0.2, 0.3]],
        ],
        ids=["nan", "inf", "-inf"],
    )
    def test_run_arrivals_rejects_non_finite_times(
        self, tiny_model, tiny_model_config, rng, arrivals
    ):
        """NaN compares false both ways, so it slipped past the nondecreasing check."""
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        frames = _frames(rng, 3, 4, tiny_model_config.hidden_dim)
        with pytest.raises(ValueError, match="stream [01] must be finite"):
            batch.run_arrivals([frames, frames], arrivals)
        # rejected before any frame is processed
        assert all(report.frames_processed == 0 for report in batch.reports())

    def test_baseline_retrievers_spawn_per_session(self, tiny_model, rng):
        batch = SessionBatch(tiny_model, retriever=make_rekv(), num_sessions=2)
        retrievers = [session.retriever for session in batch.sessions]
        assert retrievers[0] is not retrievers[1]
        assert all(r.name == "rekv" for r in retrievers)
        frame = rng.normal(size=(4, tiny_model.config.hidden_dim))
        batch.process_frames([frame, frame])
        assert batch.sessions[0].cache_length == 4


class TestAnalysisIntegration:
    def test_batch_summary_and_table(self, tiny_model, tiny_model_config, rng):
        from repro.analysis import batch_summary, format_session_table, retrieval_ratio_spread

        hidden = tiny_model_config.hidden_dim
        batch = SessionBatch(
            tiny_model, retriever=_resv_for(tiny_model_config), num_sessions=2
        )
        batch.run_streams([_frames(rng, 3, 4, hidden), _frames(rng, 4, 4, hidden)])
        reports = batch.reports()
        summary = batch_summary(reports)
        assert summary["num_sessions"] == 2
        assert summary["total_cache_tokens"] == (3 + 4) * 4
        assert 0.0 < summary["mean_frame_retrieval_ratio"] <= 1.0
        assert summary["mean_tokens_per_cluster"] > 0.0
        low, high = retrieval_ratio_spread(reports)
        assert 0.0 < low <= high <= 1.0
        table = format_session_table(reports, title="streams")
        assert "frame ratio" in table and "streams" in table

    def test_empty_summary(self):
        from repro.analysis import batch_summary

        summary = batch_summary([])
        assert summary["num_sessions"] == 0

    def test_measured_retrieval_calibration(self, tiny_model, tiny_model_config, rng):
        from repro.sim.pipeline import LatencyModel, MeasuredRetrieval
        from repro.sim.systems import EARLY_EXIT_SORT_FRACTION

        session = RetrievalSession(tiny_model, _resv_for(tiny_model_config))
        for frame in _frames(rng, 4, 4, tiny_model_config.hidden_dim):
            session.process_frame(frame)
        report = session.report()
        measured = MeasuredRetrieval.from_session_report(report)
        assert measured.sort_fraction > 0.0
        assert measured.avg_tokens_per_cluster > 0.0

        model = LatencyModel(measured=measured)
        assert model.measured is measured
        default_model = LatencyModel()
        assert default_model.measured.sort_fraction == EARLY_EXIT_SORT_FRACTION
