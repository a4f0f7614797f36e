"""Tests for the multi-stream serving layer (StreamingSession/SessionBatch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReSVConfig
from repro.core.baselines import make_rekv
from repro.core.resv import ReSVRetriever
from repro.core.retrieval_base import KVRetriever
from repro.model.kvcache import KVCache
from repro.model.llm import LLMSessionState, StreamingVideoLLM
from repro.model.serving import SessionBatch
from repro.model.streaming import StreamingSession


def _frames(rng, count, tokens, hidden, drift=0.05):
    base = rng.normal(size=(tokens, hidden))
    return [base + drift * rng.normal(size=base.shape) for _ in range(count)]


def _ticks(streams):
    """Round-robin arrivals: frame ``k`` of every stream arrives at tick ``k``."""
    return [range(len(frames)) for frames in streams]


def _resv_for(config):
    return ReSVRetriever(
        config.num_layers,
        config.num_kv_heads,
        config.head_dim,
        ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.5),
    )


def _batch(model, config, num_sessions):
    return SessionBatch(
        model, retriever_factory=_resv_for(config).spawn, num_sessions=num_sessions
    )


def _reachable(root):
    """Every object reachable from ``root`` through attributes and containers,
    keyed by its access path (each object once, at its first path)."""
    seen: set[int] = set()
    found: dict[str, object] = {}
    stack = [("model", root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found[path] = obj
        if isinstance(obj, dict):
            stack.extend((f"{path}[{key!r}]", value) for key, value in obj.items())
        elif isinstance(obj, (list, tuple)):
            stack.extend((f"{path}[{index}]", value) for index, value in enumerate(obj))
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.extend((f"{path}.{name}", value) for name, value in vars(obj).items())
    return found


def _snapshot(model):
    """Bytes of every array and the repr of every scalar reachable from ``model``."""
    snapshot = {}
    for path, obj in _reachable(model).items():
        if isinstance(obj, np.ndarray):
            snapshot[path] = (obj.dtype.str, obj.shape, obj.tobytes())
        elif isinstance(obj, (bool, int, float, complex, str, bytes, np.generic)) or obj is None:
            snapshot[path] = repr(obj)
    return snapshot


class TestModelIsWeightsOnly:
    def test_full_batch_pass_leaves_the_model_byte_identical(self, tiny_model_config, rng):
        """Frames, questions and generation on many streams write only to
        the sessions: the shared model holds weights and nothing else."""
        hidden = tiny_model_config.hidden_dim
        model = StreamingVideoLLM(tiny_model_config, seed=0)
        before = _snapshot(model)
        assert sum(isinstance(value, tuple) for value in before.values()) > 10  # the weights

        batch = _batch(model, tiny_model_config, 3)
        streams = [_frames(rng, count, 4, hidden) for count in (3, 1, 2)]
        batch.run_arrivals(streams, [[0.0, 0.4, 0.9], [0.2], [0.1, 0.5]])
        batch.ask_all([rng.normal(size=(2, hidden)), None, rng.normal(size=(3, hidden))])
        batch.generate_all([2, None, 1])
        reports = batch.reports()
        assert [r.frames_processed for r in reports] == [3, 1, 2]
        assert [r.tokens_generated for r in reports] == [2, 0, 1]

        assert _snapshot(model) == before
        reachable = _reachable(model).values()
        assert not any(
            isinstance(obj, (KVCache, LLMSessionState, KVRetriever)) for obj in reachable
        )


class TestSessionReport:
    def test_report_carries_engine_statistics(self, tiny_model, tiny_model_config, rng):
        session = StreamingSession(tiny_model, _resv_for(tiny_model_config))
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
    @pytest.mark.parametrize("num_sessions", [-3, 2.5, True])
    def test_rejects_invalid_num_sessions(self, tiny_model, num_sessions):
        """-3 used to build no session, silently; 2.5 died inside range()."""
        with pytest.raises(ValueError, match="num_sessions"):
            SessionBatch(tiny_model, num_sessions=num_sessions)

    def test_without_factory_streams_use_full_attention(self, tiny_model, rng):
        batch = SessionBatch(tiny_model, num_sessions=2)
        assert [session.retriever for session in batch.sessions] == [None, None]
        assert batch.add_session().session_id == 2

    def test_spawned_retrievers_share_encoder_not_state(self, tiny_model, tiny_model_config, rng):
        prototype = _resv_for(tiny_model_config)
        batch = SessionBatch(tiny_model, retriever_factory=prototype.spawn, num_sessions=3)
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
        question = rng.normal(size=(2, tiny_model_config.hidden_dim))

        solo = StreamingSession(tiny_model, _resv_for(tiny_model_config))
        for frame in frames:
            solo.process_frame(frame)

        batch = _batch(tiny_model, tiny_model_config, 2)
        batch.run_arrivals([frames, other], _ticks([frames, other]))
        np.testing.assert_array_equal(solo.ask(question), batch.ask_all([question, None])[0])
        assert solo.report() == batch.reports()[0]

    def test_run_arrivals_with_idle_stream(self, tiny_model, tiny_model_config, rng):
        batch = _batch(tiny_model, tiny_model_config, 2)
        frame = rng.normal(size=(4, tiny_model_config.hidden_dim))
        assert batch.run_arrivals([[frame], []], [[0.0], []]) == [(0.0, 0, 0)]
        assert batch.sessions[0].cache_length == 4
        assert batch.sessions[1].cache_length == 0

    def test_run_arrivals_drains_unequal_lengths(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = _batch(tiny_model, tiny_model_config, 2)
        streams = [_frames(rng, 5, 4, hidden), _frames(rng, 2, 4, hidden)]
        batch.run_arrivals(streams, _ticks(streams))
        assert batch.sessions[0].stats.frames_processed == 5
        assert batch.sessions[1].stats.frames_processed == 2
        assert sum(session.cache_length for session in batch.sessions) == (5 + 2) * 4

    def test_reports_and_generation(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = _batch(tiny_model, tiny_model_config, 4)
        streams = [_frames(np.random.default_rng(s), 3, 4, hidden) for s in range(4)]
        batch.run_arrivals(streams, _ticks(streams))
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
        batch = _batch(tiny_model, tiny_model_config, 3)
        streams = [_frames(rng, 2, 4, hidden)] * 3
        batch.run_arrivals(streams, _ticks(streams))
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
        batch = _batch(tiny_model, tiny_model_config, 2)
        streams = [_frames(rng, 2, 4, hidden)] * 2
        batch.run_arrivals(streams, _ticks(streams))
        outputs = batch.generate_all(2)
        assert all(out.shape == (2, hidden) for out in outputs)
        assert [r.tokens_generated for r in batch.reports()] == [2, 2]

    def test_generate_all_length_validation(self, tiny_model, tiny_model_config):
        batch = _batch(tiny_model, tiny_model_config, 2)
        with pytest.raises(ValueError):
            batch.generate_all([1])

    @pytest.mark.parametrize(
        ("counts", "name"),
        [
            ([-2, 1], r"num_tokens\[0\]"),
            ([1, -2], r"num_tokens\[1\]"),
            ([1, 2.5], r"num_tokens\[1\]"),
            (-2, "num_tokens"),
        ],
        ids=["first", "second", "fraction", "scalar"],
    )
    def test_generate_all_rejects_invalid_counts(self, tiny_model, tiny_model_config, counts, name):
        """A negative count used to generate nothing, silently; every count
        is checked before any stream generates."""
        batch = _batch(tiny_model, tiny_model_config, 2)
        with pytest.raises(ValueError, match=name):
            batch.generate_all(counts)
        assert [r.tokens_generated for r in batch.reports()] == [0, 0]

    def test_run_arrivals_processes_in_global_arrival_order(
        self, tiny_model, tiny_model_config, rng
    ):
        hidden = tiny_model_config.hidden_dim
        batch = _batch(tiny_model, tiny_model_config, 2)
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

    def test_admission_order_does_not_change_per_stream_state(self, tiny_model_config, rng):
        """State isolation: admission order across streams cannot change
        any single stream's cache or statistics."""
        hidden = tiny_model_config.hidden_dim
        streams = [_frames(rng, 3, 4, hidden), _frames(rng, 3, 4, hidden)]

        ticked = _batch(StreamingVideoLLM(tiny_model_config, seed=0), tiny_model_config, 2)
        ticked.run_arrivals(streams, _ticks(streams))

        arrived = _batch(StreamingVideoLLM(tiny_model_config, seed=0), tiny_model_config, 2)
        arrived.run_arrivals(streams, [[0.0, 0.1, 0.2], [1.0, 1.1, 1.2]])

        for tick_report, arrival_report in zip(ticked.reports(), arrived.reports(), strict=True):
            assert tick_report == arrival_report

    def test_run_arrivals_validation(self, tiny_model, tiny_model_config, rng):
        hidden = tiny_model_config.hidden_dim
        batch = _batch(tiny_model, tiny_model_config, 2)
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
        batch = _batch(tiny_model, tiny_model_config, 2)
        frames = _frames(rng, 3, 4, tiny_model_config.hidden_dim)
        with pytest.raises(ValueError, match="stream [01] must be finite"):
            batch.run_arrivals([frames, frames], arrivals)
        # rejected before any frame is processed
        assert all(report.frames_processed == 0 for report in batch.reports())

    def test_baseline_retrievers_spawn_per_session(self, tiny_model, rng):
        batch = SessionBatch(tiny_model, retriever_factory=make_rekv().spawn, num_sessions=2)
        retrievers = [session.retriever for session in batch.sessions]
        assert retrievers[0] is not retrievers[1]
        assert all(r.name == "rekv" for r in retrievers)
        frame = rng.normal(size=(4, tiny_model.config.hidden_dim))
        batch.run_arrivals([[frame], [frame]], [[0.0], [0.0]])
        assert batch.sessions[0].cache_length == 4


class TestAnalysisIntegration:
    def test_batch_summary_and_table(self, tiny_model, tiny_model_config, rng):
        from repro.analysis import batch_summary, format_session_table, retrieval_ratio_spread

        hidden = tiny_model_config.hidden_dim
        batch = _batch(tiny_model, tiny_model_config, 2)
        streams = [_frames(rng, 3, 4, hidden), _frames(rng, 4, 4, hidden)]
        batch.run_arrivals(streams, _ticks(streams))
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

        session = StreamingSession(tiny_model, _resv_for(tiny_model_config))
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
