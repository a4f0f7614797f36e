"""Tests for the baseline retrieval algorithms and their top-k utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import (
    budget_from_ratio,
    make_infinigen,
    make_infinigen_p,
    make_rekv,
    token_importance,
    topk_indices,
)
from repro.core.retrieval_base import FRAME_STAGE, GENERATION_STAGE, Selection
from repro.model.kvcache import LayerKVCache


def _counts(selection: Selection) -> list[int]:
    return [idx.size for idx in selection.per_kv_head_indices]


def _mean_ratio(selection: Selection, cache_length: int) -> float:
    """Average fraction of the cache selected across KV heads."""
    return float(np.mean(_counts(selection))) / cache_length


def _filled_cache(rng, tokens=24, kv_heads=2, head_dim=8, tokens_per_frame=6) -> LayerKVCache:
    cache = LayerKVCache(num_kv_heads=kv_heads, head_dim=head_dim)
    for start in range(0, tokens, tokens_per_frame):
        keys = rng.normal(size=(kv_heads, tokens_per_frame, head_dim))
        values = rng.normal(size=(kv_heads, tokens_per_frame, head_dim))
        cache.append(keys, values, np.arange(start, start + tokens_per_frame),
                     frame_id=start // tokens_per_frame)
    return cache


class TestTopKUtilities:
    def test_token_importance_max_pools_over_queries(self, rng):
        keys = rng.normal(size=(10, 8))
        queries = rng.normal(size=(3, 8))
        importance = token_importance(queries, keys)
        expected = (queries @ keys.T).max(axis=0)
        np.testing.assert_allclose(importance, expected)

    def test_topk_indices_returns_largest(self):
        importance = np.array([0.1, 5.0, 3.0, -1.0, 4.0])
        np.testing.assert_array_equal(topk_indices(importance, 2), [1, 4])

    def test_topk_handles_k_larger_than_n(self):
        np.testing.assert_array_equal(topk_indices(np.array([1.0, 2.0]), 10), [0, 1])

    def test_topk_zero(self):
        assert topk_indices(np.array([1.0, 2.0]), 0).size == 0

    def test_budget_from_ratio(self):
        assert budget_from_ratio(100, 0.5) == 50
        assert budget_from_ratio(100, 0.001) == 1
        assert budget_from_ratio(0, 0.5) == 0

    def test_token_importance_validation(self, rng):
        with pytest.raises(ValueError):
            token_importance(rng.normal(size=(3, 8)), rng.normal(size=(10, 7)))


class TestSelection:
    def test_full_and_empty(self):
        full = Selection.full(2, 10)
        assert _counts(full) == [10, 10]
        empty = Selection.full(2, 0)
        assert _counts(empty) == [0, 0]


class TestInfiniGen:
    def test_no_prefill_retrieval(self, rng):
        cache = _filled_cache(rng)
        retriever = make_infinigen()
        retriever.stage = FRAME_STAGE
        selection = retriever.select(0, rng.normal(size=(4, 2, 8)), cache)
        assert _mean_ratio(selection, len(cache)) == 1.0

    def test_generation_stage_uses_topk(self, rng):
        cache = _filled_cache(rng)
        retriever = make_infinigen(generation_ratio=0.25)
        retriever.stage = GENERATION_STAGE
        selection = retriever.select(0, rng.normal(size=(4, 1, 8)), cache)
        assert _mean_ratio(selection, len(cache)) == pytest.approx(0.25, abs=0.05)

    def test_infinigen_p_prefill_ratio(self, rng):
        cache = _filled_cache(rng)
        retriever = make_infinigen_p(prefill_ratio=0.5)
        retriever.stage = FRAME_STAGE
        selection = retriever.select(0, rng.normal(size=(4, 2, 8)), cache)
        assert _mean_ratio(selection, len(cache)) == pytest.approx(0.5, abs=0.05)

    def test_empty_cache(self, rng):
        cache = LayerKVCache(num_kv_heads=2, head_dim=8)
        selection = make_infinigen_p().select(0, rng.normal(size=(4, 1, 8)), cache)
        assert all(idx.size == 0 for idx in selection.per_kv_head_indices)

    def test_selected_tokens_have_highest_scores(self, rng):
        cache = _filled_cache(rng, kv_heads=1)
        retriever = make_infinigen_p(prefill_ratio=0.25)
        retriever.stage = FRAME_STAGE
        queries = rng.normal(size=(2, 1, 8))
        selection = retriever.select(0, queries, cache)
        rows = queries.reshape(-1, 8)
        importance = token_importance(rows, cache.keys[0])
        expected = set(topk_indices(importance, selection.per_kv_head_indices[0].size).tolist())
        assert set(selection.per_kv_head_indices[0].tolist()) == expected


class TestReKV:
    def test_frame_level_selection_keeps_whole_frames(self, rng):
        cache = _filled_cache(rng, tokens=24, tokens_per_frame=6)
        retriever = make_rekv(prefill_ratio=0.4)
        retriever.stage = FRAME_STAGE
        selection = retriever.select(0, rng.normal(size=(4, 2, 8)), cache)
        frame_ids = cache.frame_ids
        for indices in selection.per_kv_head_indices:
            selected_frames = np.unique(frame_ids[indices])
            for frame in selected_frames:
                frame_tokens = np.nonzero(frame_ids == frame)[0]
                assert np.all(np.isin(frame_tokens, indices))

    def test_ratio_respected_approximately(self, rng):
        cache = _filled_cache(rng, tokens=60, tokens_per_frame=6)
        retriever = make_rekv(prefill_ratio=0.5)
        retriever.stage = FRAME_STAGE
        selection = retriever.select(0, rng.normal(size=(4, 2, 8)), cache)
        ratio = _mean_ratio(selection, len(cache))
        assert 0.4 <= ratio <= 0.7

    def test_generation_ratio_smaller(self, rng):
        cache = _filled_cache(rng, tokens=60, tokens_per_frame=6)
        retriever = make_rekv(prefill_ratio=0.6, generation_ratio=0.2)
        retriever.stage = GENERATION_STAGE
        selection = retriever.select(0, rng.normal(size=(4, 1, 8)), cache)
        assert _mean_ratio(selection, len(cache)) < 0.5
