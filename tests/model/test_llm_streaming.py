"""Tests for the full model, streaming session, vision tower and tokenizer."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import FullRetriever

from repro.config import toy_vision_config
from repro.core.baselines import make_infinigen
from repro.model.llm import StreamingVideoLLM
from repro.model.streaming import FRAME_STAGE, GENERATION_STAGE, StreamingSession
from repro.model.tokenizer import ToyTokenizer
from repro.model.vision import MLPProjector, VisionTower


class TestStreamingVideoLLM:
    def test_prefill_grows_cache(self, tiny_model, tiny_video):
        for frame_id, frame in enumerate(tiny_video.frames()[:3]):
            tiny_model.prefill_frame(frame, frame_id)
        assert tiny_model.cache_length == 12
        assert tiny_model.default_state.next_position == 12

    def test_forward_chunk_output_shape(self, tiny_model, rng):
        hidden, stats = tiny_model.forward_chunk(rng.normal(size=(5, 32)))
        assert hidden.shape == (5, 32)
        assert len(stats) == tiny_model.config.num_layers

    def test_decode_step_single_token(self, tiny_model, rng):
        tiny_model.forward_chunk(rng.normal(size=(3, 32)))
        hidden, _ = tiny_model.decode_step(rng.normal(size=(32,)))
        assert hidden.shape == (1, 32)
        assert tiny_model.cache_length == 4

    def test_decode_step_rejects_multiple_tokens(self, tiny_model, rng):
        with pytest.raises(ValueError):
            tiny_model.decode_step(rng.normal(size=(2, 32)))

    def test_wrong_embedding_width_rejected(self, tiny_model, rng):
        with pytest.raises(ValueError):
            tiny_model.forward_chunk(rng.normal(size=(3, 16)))

    def test_reset_clears_cache_and_positions(self, tiny_model, rng):
        tiny_model.forward_chunk(rng.normal(size=(3, 32)))
        tiny_model.reset()
        assert tiny_model.cache_length == 0
        assert tiny_model.default_state.next_position == 0

    def test_deterministic_given_seed(self, tiny_model_config, rng):
        inputs = rng.normal(size=(4, 32))
        a = StreamingVideoLLM(tiny_model_config, seed=7).forward_chunk(inputs)[0]
        b = StreamingVideoLLM(tiny_model_config, seed=7).forward_chunk(inputs)[0]
        np.testing.assert_allclose(a, b)

    def test_logits_shape(self, tiny_model, rng):
        hidden, _ = tiny_model.forward_chunk(rng.normal(size=(2, 32)))
        assert tiny_model.logits(hidden).shape == (2, tiny_model.config.vocab_size)

    def test_embed_tokens_validation(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.embed_tokens(np.array([99999]))

    def test_kv_cache_bytes_grow(self, tiny_model, rng):
        assert tiny_model.kv_cache_bytes() == 0
        tiny_model.forward_chunk(rng.normal(size=(4, 32)))
        assert tiny_model.kv_cache_bytes() > 0

    def test_retriever_receives_callbacks(self, tiny_model_config, tiny_video):
        retriever = FullRetriever()
        calls = {"observe": 0, "select": 0}
        original_observe, original_select = retriever.observe_keys, retriever.select

        def observe(*args, **kwargs):
            calls["observe"] += 1
            return original_observe(*args, **kwargs)

        def select(*args, **kwargs):
            calls["select"] += 1
            return original_select(*args, **kwargs)

        retriever.observe_keys, retriever.select = observe, select
        model = StreamingVideoLLM(tiny_model_config, seed=0, retriever=retriever)
        model.prefill_frame(tiny_video.frames()[0], 0)
        model.prefill_frame(tiny_video.frames()[1], 1)
        assert calls["observe"] == 2 * tiny_model_config.num_layers
        # Selection only happens once there is a non-empty past.
        assert calls["select"] == tiny_model_config.num_layers


class TestStreamingSession:
    def test_session_counters_and_stats(self, tiny_model, tiny_video, rng):
        session = StreamingSession(tiny_model)
        for frame in tiny_video.frames()[:3]:
            session.process_frame(frame)
        session.ask(rng.normal(size=(2, 32)))
        session.generate(2)
        stats = session.stats
        assert stats.frames_processed == 3
        assert stats.questions_asked == 1
        assert stats.tokens_generated == 2
        assert stats.peak_cache_bytes > 0
        assert 0.0 < stats.retrieval_ratio(FRAME_STAGE) <= 1.0
        assert 0.0 < stats.retrieval_ratio(GENERATION_STAGE) <= 1.0

    def test_per_layer_and_per_head_ratios(self, tiny_model_config, tiny_video):
        model = StreamingVideoLLM(tiny_model_config, seed=0, retriever=FullRetriever())
        session = StreamingSession(model)
        for frame in tiny_video.frames()[:3]:
            session.process_frame(frame)
        per_layer = session.stats.retrieval_ratio_per_layer(FRAME_STAGE)
        per_head = session.stats.retrieval_ratio_per_head(FRAME_STAGE)
        assert set(per_layer) == set(range(tiny_model_config.num_layers))
        assert set(per_head) == set(range(tiny_model_config.num_kv_heads))
        assert all(v == pytest.approx(1.0) for v in per_layer.values())

    def test_stage_propagates_to_retriever(self, tiny_model_config, tiny_video, rng):
        retriever = make_infinigen()
        model = StreamingVideoLLM(tiny_model_config, seed=0, retriever=retriever)
        session = StreamingSession(model)
        session.process_frame(tiny_video.frames()[0])
        assert retriever.stage == FRAME_STAGE
        session.generate(1)
        assert retriever.stage == GENERATION_STAGE

    def test_generate_zero_tokens(self, tiny_model):
        session = StreamingSession(tiny_model)
        out = session.generate(0)
        assert out.shape == (0, 32)

    def test_generate_returns_hidden_states(self, tiny_model, tiny_video):
        session = StreamingSession(tiny_model)
        session.process_frame(tiny_video.frames()[0])
        out = session.generate(3)
        assert out.shape == (3, 32)


class TestVisionAndTokenizer:
    def test_vision_tower_output_shape(self):
        config = toy_vision_config()
        tower = VisionTower(config, seed=0)
        frame = np.random.default_rng(0).uniform(size=(config.image_size, config.image_size, 3))
        tokens = tower.encode(frame)
        assert tokens.shape == (config.output_tokens, config.embed_dim)

    def test_vision_tower_similar_frames_similar_tokens(self):
        config = toy_vision_config()
        tower = VisionTower(config, seed=0)
        rng = np.random.default_rng(0)
        frame = rng.uniform(size=(config.image_size, config.image_size, 3))
        near = np.clip(frame + 0.01 * rng.normal(size=frame.shape), 0, 1)
        far = rng.uniform(size=frame.shape)
        a, b, c = tower.encode(frame), tower.encode(near), tower.encode(far)
        assert np.linalg.norm(a - b) < np.linalg.norm(a - c)

    def test_vision_tower_shape_validation(self):
        tower = VisionTower(toy_vision_config())
        with pytest.raises(ValueError):
            tower.encode(np.zeros((8, 8, 3)))

    def test_projector_maps_to_llm_space(self, rng):
        projector = MLPProjector(embed_dim=32, hidden_dim=64, seed=0)
        out = projector.project(rng.normal(size=(4, 32)))
        assert out.shape == (4, 64)
        with pytest.raises(ValueError):
            projector.project(rng.normal(size=(4, 16)))

    def test_tokenizer_determinism(self):
        tokenizer = ToyTokenizer(vocab_size=128)
        ids_a = tokenizer.encode("how do i make french toast")
        ids_b = tokenizer.encode("how do i make french toast")
        np.testing.assert_array_equal(ids_a, ids_b)
        assert ids_a[0] == tokenizer.bos_id

    def test_tokenizer_ids_within_vocab(self):
        tokenizer = ToyTokenizer(vocab_size=64)
        ids = tokenizer.encode("a b c d e f g h i j", add_eos=True)
        assert ids.max() < 64
        assert ids[-1] == tokenizer.special_tokens["<eos>"]

    def test_tokenizer_vocab_too_small(self):
        with pytest.raises(ValueError):
            ToyTokenizer(vocab_size=3)
