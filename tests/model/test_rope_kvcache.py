"""Tests for rotary embeddings and the KV cache structures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.kvcache import KVCache, LayerKVCache, TokenKind
from repro.model.rope import RotaryEmbedding


class TestRotaryEmbedding:
    def test_preserves_norm(self, rng):
        rope = RotaryEmbedding(head_dim=16)
        x = rng.normal(size=(2, 5, 16))
        rotated = rope.rotate(x, np.arange(5))
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-10
        )

    def test_position_zero_is_identity(self, rng):
        rope = RotaryEmbedding(head_dim=8)
        x = rng.normal(size=(1, 1, 8))
        np.testing.assert_allclose(rope.rotate(x, np.array([0])), x)

    def test_relative_position_property(self, rng):
        """Dot products depend only on relative positions."""
        rope = RotaryEmbedding(head_dim=16)
        q = rng.normal(size=(1, 1, 16))
        k = rng.normal(size=(1, 1, 16))
        score_a = float(rope.rotate(q, np.array([10]))[0, 0] @ rope.rotate(k, np.array([7]))[0, 0])
        score_b = float(rope.rotate(q, np.array([103]))[0, 0] @ rope.rotate(k, np.array([100]))[0, 0])
        assert score_a == pytest.approx(score_b, rel=1e-9)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(head_dim=7)

    def test_position_length_mismatch(self, rng):
        rope = RotaryEmbedding(head_dim=8)
        with pytest.raises(ValueError):
            rope.rotate(rng.normal(size=(1, 4, 8)), np.arange(3))

    def test_different_bases_differ(self, rng):
        x = rng.normal(size=(1, 4, 8))
        a = RotaryEmbedding(8, base=10_000).rotate(x, np.arange(1, 5))
        b = RotaryEmbedding(8, base=500_000).rotate(x, np.arange(1, 5))
        assert not np.allclose(a, b)


class TestLayerKVCache:
    def test_append_and_views(self, rng):
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        keys = rng.normal(size=(2, 3, 4))
        values = rng.normal(size=(2, 3, 4))
        cache.append(keys, values, np.arange(3), frame_id=0)
        assert len(cache) == 3
        np.testing.assert_allclose(cache.keys, keys)
        np.testing.assert_allclose(cache.values, values)
        np.testing.assert_array_equal(cache.frame_ids, [0, 0, 0])

    def test_growth_preserves_earlier_entries(self, rng):
        cache = LayerKVCache(num_kv_heads=1, head_dim=4)
        first = rng.normal(size=(1, 2, 4))
        cache.append(first, first, np.arange(2))
        for i in range(20):
            chunk = rng.normal(size=(1, 3, 4))
            cache.append(chunk, chunk, np.arange(2 + 3 * i, 5 + 3 * i))
        np.testing.assert_allclose(cache.keys[:, :2, :], first)
        assert len(cache) == 62

    def test_shape_validation(self, rng):
        cache = LayerKVCache(num_kv_heads=2, head_dim=4)
        with pytest.raises(ValueError):
            cache.append(rng.normal(size=(1, 2, 4)), rng.normal(size=(1, 2, 4)), np.arange(2))
        with pytest.raises(ValueError):
            cache.append(rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 3, 4)), np.arange(2))
        with pytest.raises(ValueError):
            cache.append(rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)), np.arange(3))

    def test_memory_bytes(self, rng):
        cache = LayerKVCache(num_kv_heads=2, head_dim=4, dtype_bytes=2)
        cache.append(rng.normal(size=(2, 10, 4)), rng.normal(size=(2, 10, 4)), np.arange(10))
        assert cache.memory_bytes() == 2 * 2 * 10 * 4 * 2

    @given(chunks=st.lists(st.integers(1, 7), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_length_invariant(self, chunks):
        cache = LayerKVCache(num_kv_heads=1, head_dim=2)
        position = 0
        for chunk in chunks:
            data = np.zeros((1, chunk, 2))
            cache.append(data, data, np.arange(position, position + chunk))
            position += chunk
        assert len(cache) == sum(chunks)


class TestKVCache:
    def test_per_layer_caches(self, rng):
        cache = KVCache(num_layers=3, num_kv_heads=2, head_dim=4)
        data = rng.normal(size=(2, 5, 4))
        cache.layer(0).append(data, data, np.arange(5), frame_id=0)
        assert len(cache) == 5
        assert len(cache.layer(1)) == 0

    def test_memory_bytes_sums_layers(self, rng):
        cache = KVCache(num_layers=2, num_kv_heads=1, head_dim=4, dtype_bytes=2)
        data = rng.normal(size=(1, 3, 4))
        for layer in range(2):
            cache.layer(layer).append(data, data, np.arange(3))
        assert cache.memory_bytes() == 2 * (2 * 1 * 3 * 4 * 2)

    def test_record_block_metadata(self, rng):
        cache = KVCache(num_layers=1, num_kv_heads=1, head_dim=4)
        visual = rng.normal(size=(1, 4, 4))
        text = rng.normal(size=(1, 2, 4))
        cache.layer(0).append(visual, visual, np.arange(4), frame_id=0)
        cache.layer(0).append(text, text, np.arange(4, 6), frame_id=-1)
        cache.record_block(0, TokenKind.VISUAL, 0, 4)
        cache.record_block(-1, TokenKind.TEXT, 4, 2)
        assert len(cache.metadata) == 2
