"""Tests for attention, the decoder layer and supporting math."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import FullRetriever

from repro.core.retrieval_base import Selection
from repro.model.attention import (
    MultiHeadAttention,
    repeat_kv,
    scaled_dot_product_attention,
    softmax,
)
from repro.model.decoder import DecoderLayer, FeedForward, RMSNorm, silu
from repro.model.kvcache import LayerKVCache
from repro.model.rope import RotaryEmbedding


class TestSoftmaxAndSDPA:
    def test_softmax_sums_to_one(self, rng):
        weights = softmax(rng.normal(size=(3, 7)))
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_inputs(self):
        weights = softmax(np.array([1e5, 1e5 + 1.0]))
        assert np.isfinite(weights).all()

    def test_sdpa_uniform_when_scores_equal(self):
        q = np.zeros((1, 1, 4))
        k = np.ones((1, 3, 4))
        v = np.stack([np.arange(3.0)[:, None].repeat(4, axis=1)])
        out = scaled_dot_product_attention(q, k, v)
        np.testing.assert_allclose(out[0, 0], np.full(4, 1.0))

    def test_sdpa_mask_blocks_positions(self):
        q = np.ones((1, 1, 4))
        k = np.stack([np.stack([np.ones(4) * 10, np.ones(4) * -10])])
        v = np.stack([np.stack([np.ones(4), np.zeros(4)])])
        mask = np.array([[[True, False]]])
        out = scaled_dot_product_attention(q, k, v, mask=mask)
        np.testing.assert_allclose(out[0, 0], np.zeros(4), atol=1e-9)

    def test_repeat_kv(self, rng):
        x = rng.normal(size=(2, 5, 4))
        repeated = repeat_kv(x, 3)
        assert repeated.shape == (6, 5, 4)
        np.testing.assert_allclose(repeated[0], x[0])
        np.testing.assert_allclose(repeated[2], x[0])
        np.testing.assert_allclose(repeated[3], x[1])

    def test_repeat_kv_group_one_is_identity(self, rng):
        x = rng.normal(size=(2, 5, 4))
        assert repeat_kv(x, 1) is x


class TestRMSNormAndFFN:
    def test_rmsnorm_unit_rms(self, rng):
        norm = RMSNorm(16)
        out = norm(rng.normal(size=(5, 16)) * 7.0)
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-6)

    def test_silu_values(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([100.0]))[0] == pytest.approx(100.0)

    def test_ffn_shapes(self, rng):
        ffn = FeedForward(16, 32, rng)
        out = ffn(rng.normal(size=(5, 16)))
        assert out.shape == (5, 16)


class TestMultiHeadAttention:
    def _attention(self, rng, hidden=16, heads=4, kv_heads=2):
        return MultiHeadAttention(hidden, heads, kv_heads, RotaryEmbedding(hidden // heads), rng)

    def test_forward_appends_to_cache(self, rng):
        attn = self._attention(rng)
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        hidden = rng.normal(size=(3, 16))
        out, stats = attn.forward(hidden, cache, np.arange(3), layer_index=0)
        assert out.shape == (3, 16)
        assert len(cache) == 3
        assert stats.past_tokens == 0

    def test_forward_attends_past(self, rng):
        attn = self._attention(rng)
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        attn.forward(rng.normal(size=(3, 16)), cache, np.arange(3), layer_index=0)
        out, stats = attn.forward(rng.normal(size=(2, 16)), cache, np.arange(3, 5), layer_index=0)
        assert stats.past_tokens == 3
        assert len(cache) == 5
        assert out.shape == (2, 16)

    def test_full_retriever_matches_no_retriever(self, rng):
        """Light attention over a full selection equals full attention."""
        cache_a = LayerKVCache(num_kv_heads=2, head_dim=4)
        cache_b = LayerKVCache(num_kv_heads=2, head_dim=4)
        attn = self._attention(rng)
        first = rng.normal(size=(3, 16))
        second = rng.normal(size=(2, 16))
        out_a1, _ = attn.forward(first, cache_a, np.arange(3), 0, retriever=None)
        out_a2, _ = attn.forward(second, cache_a, np.arange(3, 5), 0, retriever=None)
        retriever = FullRetriever()
        out_b1, _ = attn.forward(first, cache_b, np.arange(3), 0, retriever=retriever)
        out_b2, _ = attn.forward(second, cache_b, np.arange(3, 5), 0, retriever=retriever)
        np.testing.assert_allclose(out_a1, out_b1)
        np.testing.assert_allclose(out_a2, out_b2, rtol=1e-9)

    def test_causal_mask_within_chunk(self, rng):
        """Earlier chunk tokens must not attend to later chunk tokens."""
        mask = MultiHeadAttention._causal_mask(chunk=3, past=2, total=5)
        assert mask.shape == (3, 5)
        assert not mask[:, :2].any()  # past always visible
        assert not mask[0, 2] and mask[0, 3] and mask[0, 4]
        assert not mask[2, 4]

    def test_partial_selection_changes_output(self, rng):
        attn = self._attention(rng)
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        attn.forward(rng.normal(size=(4, 16)), cache, np.arange(4), 0)

        class HalfRetriever:
            def observe_keys(self, *args, **kwargs):
                pass

            def select(self, layer, queries, cache):
                return Selection(per_kv_head_indices=[np.array([0, 1]), np.array([0, 1])])

        chunk = rng.normal(size=(2, 16))
        cache_full = LayerKVCache(num_kv_heads=2, head_dim=4)
        cache_full._keys = cache._keys.copy()
        cache_full._values = cache._values.copy()
        cache_full._frame_ids = cache._frame_ids.copy()
        cache_full._length = cache._length
        cache_full._capacity = cache._capacity
        out_full, _ = attn.forward(chunk, cache_full, np.arange(4, 6), 0)
        out_half, stats = attn.forward(chunk, cache, np.arange(4, 6), 0, retriever=HalfRetriever())
        assert stats.selected_tokens_per_head == [2, 2]
        assert not np.allclose(out_full, out_half)

    def test_identity_bias_changes_weights(self, rng):
        plain = MultiHeadAttention(16, 4, 4, RotaryEmbedding(4), np.random.default_rng(0))
        biased = MultiHeadAttention(
            16, 4, 4, RotaryEmbedding(4), np.random.default_rng(0), identity_bias=2.0
        )
        assert not np.allclose(plain.w_q, biased.w_q)

    def test_query_transform_validation(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(
                16, 4, 4, RotaryEmbedding(4), rng, identity_bias=1.0,
                query_transform=np.eye(8),
            )

    def test_attention_stats_ratio(self):
        from repro.model.attention import AttentionStats

        stats = AttentionStats(layer_index=0, past_tokens=10, selected_tokens_per_head=[5, 5])
        assert stats.retrieval_ratio == pytest.approx(0.5)
        empty = AttentionStats(layer_index=0, past_tokens=0)
        assert empty.retrieval_ratio == 1.0


class TestDecoderLayer:
    def test_forward_shapes_and_residual(self, rng):
        layer = DecoderLayer(16, 4, 2, 32, RotaryEmbedding(4), rng)
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        hidden = rng.normal(size=(3, 16))
        out, stats = layer.forward(hidden, cache, np.arange(3), layer_index=0)
        assert out.shape == (3, 16)
        assert stats.layer_index == 0
        assert not np.allclose(out, hidden)

    def test_zero_mix_is_identity(self, rng):
        layer = DecoderLayer(16, 4, 2, 32, RotaryEmbedding(4), rng, attn_mix=0.0, ffn_mix=0.0)
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        hidden = rng.normal(size=(3, 16))
        out, _ = layer.forward(hidden, cache, np.arange(3), layer_index=0)
        np.testing.assert_allclose(out, hidden)
        assert len(cache) == 3
