"""Integration tests: the full streaming pipeline with ReSV end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig, ReSVConfig, toy_vision_config
from repro.core.resv import ReSVRetriever
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, GENERATION_STAGE, StreamingSession
from repro.model.vision import MLPProjector, VisionTower
from repro.video.coin import CoinBenchmark, CoinBenchmarkConfig, CoinTask
from repro.video.qa import (
    QA_ATTN_MIX,
    QA_FFN_MIX,
    QA_IDENTITY_BIAS,
    default_qa_model_config,
    evaluate_episode,
)
from repro.video.synthetic import generate_raw_frames


@pytest.fixture(scope="module")
def qa_setup():
    """A model + benchmark pair shared by the integration tests."""
    config = default_qa_model_config()
    benchmark = CoinBenchmark(
        CoinBenchmarkConfig(
            hidden_dim=config.hidden_dim,
            tokens_per_frame=config.tokens_per_frame,
            num_steps=4,
            frames_per_step=2,
        )
    )
    model = StreamingVideoLLM(
        config,
        seed=0,
        identity_bias=QA_IDENTITY_BIAS,
        attn_mix=QA_ATTN_MIX,
        ffn_mix=QA_FFN_MIX,
        query_transform=benchmark.query_transform,
    )
    return config, benchmark, model


class TestStreamingWithReSV:
    def test_resv_session_reduces_retrieval_with_good_accuracy(self, qa_setup):
        config, benchmark, model = qa_setup
        retriever = ReSVRetriever(
            config.num_layers, config.num_kv_heads, config.head_dim, ReSVConfig(wicsum_ratio=0.3)
        )
        episode = benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=0)
        session = StreamingSession(model, retriever)
        result = evaluate_episode(session, episode, benchmark, answer_tokens=1)
        assert result.frame_retrieval_ratio < 0.9
        assert result.generation_retrieval_ratio < 0.3
        assert result.total == len(episode.probes)

    def test_vanilla_answers_needle_questions(self, qa_setup):
        config, benchmark, model = qa_setup
        correct = total = 0
        for seed in range(3):
            episode = benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=seed)
            result = evaluate_episode(
                StreamingSession(model), episode, benchmark, answer_tokens=0
            )
            correct += result.correct
            total += result.total
        assert correct / total >= 0.5

    def test_cache_grows_linearly_with_frames(self, qa_setup):
        config, benchmark, model = qa_setup
        session = StreamingSession(model)
        episode = benchmark.generate_episode(CoinTask.RETRIEVAL_AT_FRAME, seed=1)
        sizes = []
        for frame_id, frame in enumerate(episode.frames[:4]):
            session.process_frame(frame, frame_id=frame_id)
            sizes.append(session.kv_cache_bytes())
        deltas = np.diff(sizes)
        assert np.all(deltas == deltas[0])

    def test_multi_turn_queries_preserve_context(self, qa_setup):
        """Second question about an earlier step still answers correctly."""
        config, benchmark, model = qa_setup
        episode = benchmark.generate_episode(CoinTask.STEP_PROC, seed=4)
        result = evaluate_episode(StreamingSession(model), episode, benchmark, answer_tokens=1)
        assert result.total == 2
        assert result.correct >= 1

    def test_stage_stats_cover_both_stages(self, qa_setup):
        config, benchmark, model = qa_setup
        retriever = ReSVRetriever(config.num_layers, config.num_kv_heads, config.head_dim)
        episode = benchmark.generate_episode(CoinTask.NEXT_STEP, seed=2)
        session = StreamingSession(model, retriever)
        for frame_id, frame in enumerate(episode.frames):
            session.process_frame(frame, frame_id=frame_id)
        session.ask(episode.probes[0].question_embeddings)
        session.generate(2)
        stages = {record.stage for record in session.stats.records}
        assert stages == {FRAME_STAGE, GENERATION_STAGE}


class TestVisionPath:
    def test_raw_frames_through_vision_tower_into_llm(self):
        """Exercise the full frame -> ViT -> projector -> LLM prefill path."""
        vision_config = toy_vision_config()
        tower = VisionTower(vision_config, seed=0)
        model_config = ModelConfig(
            name="vision-toy", num_layers=2, hidden_dim=64, num_heads=4, num_kv_heads=2,
            ffn_dim=128, tokens_per_frame=vision_config.output_tokens,
        )
        projector = MLPProjector(vision_config.embed_dim, model_config.hidden_dim, seed=0)
        model = StreamingVideoLLM(model_config, seed=0)
        session = StreamingSession(model)
        for frame_id, frame in enumerate(generate_raw_frames(3, image_size=vision_config.image_size)):
            visual_tokens = projector.project(tower.encode(frame))
            session.process_frame(visual_tokens, frame_id=frame_id)
        assert session.cache_length == 3 * vision_config.output_tokens
        assert session.stats.frames_processed == 3
