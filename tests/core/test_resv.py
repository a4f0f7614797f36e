"""Tests for the ReSV retriever."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReSVConfig
from repro.core.resv import ReSVRetriever
from repro.model.kvcache import LayerKVCache


def _fill_cache(cache: LayerKVCache, retriever: ReSVRetriever, rng, chunks=4, chunk_size=6, layer=0):
    """Append correlated chunks, notifying the retriever like attention would."""
    base = rng.normal(size=(cache.num_kv_heads, chunk_size, cache.head_dim))
    position = 0
    for chunk_index in range(chunks):
        keys = base + 0.05 * rng.normal(size=base.shape) * (chunk_index + 1)
        values = rng.normal(size=base.shape)
        positions = np.arange(position, position + chunk_size)
        retriever.observe_keys(layer, keys, positions, frame_id=chunk_index)
        cache.append(keys, values, positions, frame_id=chunk_index)
        position += chunk_size
    return position


@pytest.fixture
def retriever() -> ReSVRetriever:
    return ReSVRetriever(
        num_layers=2,
        num_kv_heads=2,
        head_dim=8,
        config=ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.5),
    )


@pytest.fixture
def cache() -> LayerKVCache:
    return LayerKVCache(num_kv_heads=2, head_dim=8)


class TestReSVRetriever:
    def test_empty_cache_selects_nothing(self, retriever, cache, rng):
        queries = rng.normal(size=(4, 2, 8))
        selection = retriever.select(0, queries, cache)
        assert all(idx.size == 0 for idx in selection.per_kv_head_indices)

    def test_selection_indices_in_range(self, retriever, cache, rng):
        total = _fill_cache(cache, retriever, rng)
        queries = rng.normal(size=(4, 3, 8))
        selection = retriever.select(0, queries, cache)
        for indices in selection.per_kv_head_indices:
            assert indices.size > 0
            assert indices.min() >= 0
            assert indices.max() < total

    def test_selection_is_sorted_and_unique(self, retriever, cache, rng):
        _fill_cache(cache, retriever, rng)
        selection = retriever.select(0, rng.normal(size=(4, 2, 8)), cache)
        for indices in selection.per_kv_head_indices:
            assert np.all(np.diff(indices) > 0)

    def test_clustering_reduces_clusters_below_tokens(self, retriever, cache, rng):
        """Temporally correlated chunks should collapse into few clusters."""
        total = _fill_cache(cache, retriever, rng, chunks=6)
        table = retriever.table(0, 0)
        assert table.num_tokens == total
        assert table.num_clusters < total

    def test_disable_clustering_gives_one_cluster_per_token(self, cache, rng):
        retriever = ReSVRetriever(
            2, 2, 8, ReSVConfig(n_hyperplanes=16, hamming_threshold=4, enable_clustering=False)
        )
        # resolved where the layer store is built, not on the first observe_keys
        assert retriever.table(0, 0).hamming_threshold == -1
        assert retriever.spawn().table(1, 1).hamming_threshold == -1
        total = _fill_cache(cache, retriever, rng, chunks=3)
        assert retriever.table(0, 0).num_clusters == total

    def test_wicsum_limits_selection(self, cache, rng):
        """A small threshold ratio should not fetch the whole cache."""
        retriever = ReSVRetriever(
            2, 2, 8, ReSVConfig(n_hyperplanes=16, hamming_threshold=2, wicsum_ratio=0.2)
        )
        total = _fill_cache(cache, retriever, rng, chunks=8, chunk_size=8)
        selection = retriever.select(0, rng.normal(size=(4, 1, 8)), cache)
        assert np.mean([idx.size for idx in selection.per_kv_head_indices]) < total

    def test_disable_wicsum_selects_all_clustered_tokens(self, cache, rng):
        retriever = ReSVRetriever(
            2, 2, 8, ReSVConfig(n_hyperplanes=16, hamming_threshold=4, enable_wicsum=False)
        )
        total = _fill_cache(cache, retriever, rng)
        selection = retriever.select(0, rng.normal(size=(4, 1, 8)), cache)
        assert all(idx.size == total for idx in selection.per_kv_head_indices)

    def test_recent_window_always_included(self, cache, rng):
        retriever = ReSVRetriever(
            2, 2, 8,
            ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.1, recent_window=5),
        )
        total = _fill_cache(cache, retriever, rng, chunks=6)
        selection = retriever.select(0, rng.normal(size=(4, 1, 8)), cache)
        recent = np.arange(total - 5, total)
        for indices in selection.per_kv_head_indices:
            assert np.all(np.isin(recent, indices))

    def test_early_exit_matches_reference_selection(self, cache, rng):
        config = ReSVConfig(n_hyperplanes=16, hamming_threshold=4, wicsum_ratio=0.4)
        reference = ReSVRetriever(2, 2, 8, config, use_early_exit=False)
        early = ReSVRetriever(2, 2, 8, config, use_early_exit=True)
        base = rng.normal(size=(2, 6, 8))
        position = 0
        for chunk_index in range(4):
            keys = base + 0.05 * chunk_index
            values = rng.normal(size=base.shape)
            positions = np.arange(position, position + 6)
            for r in (reference, early):
                r.observe_keys(0, keys, positions, frame_id=chunk_index)
            cache.append(keys, values, positions, frame_id=chunk_index)
            position += 6
        queries = rng.normal(size=(4, 2, 8))
        sel_ref = reference.select(0, queries, cache)
        sel_fast = early.select(0, queries, cache)
        for a, b in zip(sel_ref.per_kv_head_indices, sel_fast.per_kv_head_indices, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_per_layer_state_is_independent(self, retriever, cache, rng):
        _fill_cache(cache, retriever, rng, layer=0)
        assert retriever.table(0, 0).num_tokens > 0
        assert retriever.table(1, 0).num_tokens == 0

    def test_reset_clears_state(self, retriever, cache, rng):
        _fill_cache(cache, retriever, rng)
        retriever.reset()
        assert retriever.table(0, 0).num_tokens == 0
        assert retriever.stage == "frame"

    def test_selection_excludes_current_chunk_tokens(self, retriever, cache, rng):
        """Tokens observed but not yet appended must not be selected."""
        _fill_cache(cache, retriever, rng, chunks=3)
        cache_length = len(cache)
        new_keys = rng.normal(size=(2, 4, 8))
        retriever.observe_keys(0, new_keys, np.arange(cache_length, cache_length + 4), frame_id=9)
        selection = retriever.select(0, rng.normal(size=(4, 4, 8)), cache)
        for indices in selection.per_kv_head_indices:
            assert indices.size == 0 or indices.max() < cache_length

    def test_mean_tokens_per_cluster_positive(self, retriever, cache, rng):
        _fill_cache(cache, retriever, rng)
        assert retriever.mean_tokens_per_cluster() >= 1.0

    def test_query_relevance_drives_selection(self, cache, rng):
        """A query aligned with one cluster should select that cluster's tokens."""
        retriever = ReSVRetriever(
            1, 1, 8, ReSVConfig(n_hyperplanes=32, hamming_threshold=0, wicsum_ratio=0.3)
        )
        cache1 = LayerKVCache(num_kv_heads=1, head_dim=8)
        direction_a = np.array([5.0, 0, 0, 0, 0, 0, 0, 0])
        direction_b = np.array([0, 0, 0, 0, 0, 0, 0, 5.0])
        keys = np.stack([direction_a] * 4 + [direction_b] * 4)[None, :, :]
        values = rng.normal(size=keys.shape)
        retriever.observe_keys(0, keys, np.arange(8), frame_id=0)
        cache1.append(keys, values, np.arange(8), frame_id=0)
        query = direction_a[None, None, :]
        selection = retriever.select(0, query, cache1)
        selected = selection.per_kv_head_indices[0]
        assert set(selected.tolist()) == {0, 1, 2, 3}
