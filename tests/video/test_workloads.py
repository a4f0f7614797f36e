"""Tests for synthetic video streams and the COIN-like benchmark."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video.coin import ALL_TASKS, CoinBenchmarkConfig, CoinTask
from repro.video.synthetic import (
    SyntheticVideoConfig,
    SyntheticVideoStream,
    generate_raw_frames,
)


def _adjacent_frame_cosine(frames: list[np.ndarray]) -> np.ndarray:
    """Mean cosine similarity between corresponding tokens of adjacent frames."""
    unit = [f / np.maximum(np.linalg.norm(f, axis=-1, keepdims=True), 1e-12) for f in frames]
    return np.asarray(
        [float(np.mean(np.sum(a * b, axis=-1))) for a, b in zip(unit[:-1], unit[1:], strict=True)]
    )


class TestSyntheticVideoStream:
    def test_frame_shapes_and_count(self):
        stream = SyntheticVideoStream(SyntheticVideoConfig(num_frames=5, tokens_per_frame=3, hidden_dim=8))
        frames = stream.frames()
        assert len(frames) == 5
        assert all(f.shape == (3, 8) for f in frames)
        assert len(stream) == 5

    def test_deterministic_for_seed(self):
        cfg = SyntheticVideoConfig(num_frames=4, tokens_per_frame=2, hidden_dim=8, seed=5)
        np.testing.assert_allclose(
            SyntheticVideoStream(cfg).frames()[2], SyntheticVideoStream(cfg).frames()[2]
        )

    def test_high_correlation_gives_similar_adjacent_frames(self):
        high = SyntheticVideoStream(
            SyntheticVideoConfig(num_frames=20, tokens_per_frame=8, hidden_dim=32,
                                 temporal_correlation=0.98, scene_change_prob=0.0, seed=0)
        )
        low = SyntheticVideoStream(
            SyntheticVideoConfig(num_frames=20, tokens_per_frame=8, hidden_dim=32,
                                 temporal_correlation=0.1, scene_change_prob=0.0, seed=0)
        )
        assert _adjacent_frame_cosine(high.frames()).mean() > _adjacent_frame_cosine(low.frames()).mean()
        assert _adjacent_frame_cosine(high.frames()).mean() > 0.9

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticVideoConfig(temporal_correlation=1.5)
        with pytest.raises(ValueError):
            SyntheticVideoConfig(num_frames=0)

    def test_raw_frames(self):
        frames = generate_raw_frames(num_frames=4, image_size=16)
        assert len(frames) == 4
        assert frames[0].shape == (16, 16, 3)
        assert np.all(frames[0] >= 0) and np.all(frames[0] <= 1)
        # Adjacent raw frames are nearly identical (small motion).
        assert np.abs(frames[1] - frames[0]).mean() < np.abs(frames[0] - np.flip(frames[0])).mean()


class TestCoinBenchmark:
    def test_episode_structure(self, small_benchmark):
        episode = small_benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=0)
        cfg = small_benchmark.config
        assert episode.num_steps == cfg.num_steps
        assert episode.num_frames == cfg.num_steps * cfg.frames_per_step
        assert all(f.shape == (cfg.tokens_per_frame, cfg.hidden_dim) for f in episode.frames)
        assert len(episode.step_of_frame) == episode.num_frames

    def test_unique_key_codes_per_step(self, small_benchmark):
        episode = small_benchmark.generate_episode(CoinTask.TASK_PROC, seed=1)
        assert len(set(episode.key_code_of_step)) == episode.num_steps

    def test_probe_answers_match_target_step(self, small_benchmark):
        for task in ALL_TASKS:
            episode = small_benchmark.generate_episode(task, seed=2)
            for probe in episode.probes:
                assert probe.answer_code == episode.value_code_of_step[probe.target_step]
                assert 0 <= probe.target_frame < episode.num_frames

    def test_task_shapes(self, small_benchmark):
        assert len(small_benchmark.generate_episode(CoinTask.TASK_PROC, seed=0).probes) == 3
        assert len(small_benchmark.generate_episode(CoinTask.STEP_PROC, seed=0).probes) == 2
        proc_plus = small_benchmark.generate_episode(CoinTask.PROC_PLUS, seed=0)
        assert proc_plus.num_steps == small_benchmark.config.num_steps + 2

    def test_next_step_targets_recent_steps(self, small_benchmark):
        for seed in range(5):
            episode = small_benchmark.generate_episode(CoinTask.NEXT_STEP, seed=seed)
            for probe in episode.probes:
                assert probe.target_step >= (episode.num_steps - 1) * 0.6

    def test_event_token_embeds_codes(self, small_benchmark):
        episode = small_benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=0)
        cfg = small_benchmark.config
        step = episode.step_of_frame[0]
        event = episode.frames[0][0]
        key_dir = small_benchmark.key_codebook[episode.key_code_of_step[step]]
        value_dir = small_benchmark.value_codebook[episode.value_code_of_step[step]]
        assert float(event @ key_dir) > cfg.key_scale * 0.5
        assert float(event @ value_dir) > cfg.value_scale * 0.5

    def test_decode_answer_recovers_injected_code(self, small_benchmark):
        code = 7
        hidden = 3.0 * small_benchmark.value_codebook[code] + 0.05 * np.random.default_rng(0).normal(
            size=small_benchmark.config.hidden_dim
        )
        assert small_benchmark.decode_answer(hidden) == code

    def test_decode_answer_zero_vector(self, small_benchmark):
        assert small_benchmark.decode_answer(np.zeros(small_benchmark.config.hidden_dim)) == -1

    def test_question_encodes_query_transform_preimage(self, small_benchmark):
        episode = small_benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=3)
        probe = episode.probes[0]
        key_code = small_benchmark.key_codebook[episode.key_code_of_step[probe.target_step]]
        transformed = probe.question_embeddings[-1] @ small_benchmark.query_transform
        cosine = float(
            transformed @ key_code / (np.linalg.norm(transformed) * np.linalg.norm(key_code))
        )
        assert cosine > 0.99

    def test_query_transform_is_orthogonal(self, small_benchmark):
        q = small_benchmark.query_transform
        np.testing.assert_allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-8)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoinBenchmarkConfig(num_codes=3, num_steps=6)
        with pytest.raises(ValueError):
            CoinBenchmarkConfig(tokens_per_frame=1)
        with pytest.raises(ValueError):
            CoinBenchmarkConfig(question_tokens=0)

    def test_reproducible_episodes(self, small_benchmark):
        a = small_benchmark.generate_episode(CoinTask.STEP_PROC, seed=11)
        b = small_benchmark.generate_episode(CoinTask.STEP_PROC, seed=11)
        np.testing.assert_allclose(a.frames[3], b.frames[3])
        assert a.key_code_of_step == b.key_code_of_step
