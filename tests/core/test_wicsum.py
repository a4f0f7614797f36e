"""Tests for WiCSum thresholding (reference and early-exit versions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wicsum import importance_scores, wicsum_select, wicsum_select_early_exit


class TestImportanceScores:
    def test_positive(self, rng):
        scores = importance_scores(rng.normal(size=(4, 10)), head_dim=16)
        assert np.all(scores > 0)

    def test_preserves_ordering(self, rng):
        raw = rng.normal(size=(1, 10))
        scores = importance_scores(raw, head_dim=16)
        np.testing.assert_array_equal(np.argsort(raw[0]), np.argsort(scores[0]))

    def test_row_max_is_one(self, rng):
        scores = importance_scores(rng.normal(size=(3, 7)), head_dim=4)
        np.testing.assert_allclose(scores.max(axis=1), 1.0)


class TestWiCSumReference:
    def test_selects_dominant_cluster_first(self):
        scores = np.array([[10.0, 1.0, 1.0, 1.0]])
        counts = np.array([1, 1, 1, 1])
        result = wicsum_select(scores, counts, threshold_ratio=0.5)
        assert 0 in np.flatnonzero(result.kept[0])
        assert np.flatnonzero(result.kept[0]).size < 4

    def test_ratio_one_selects_everything(self, rng):
        scores = np.abs(rng.normal(size=(3, 6))) + 0.1
        counts = rng.integers(1, 5, size=6)
        result = wicsum_select(scores, counts, threshold_ratio=1.0)
        assert result.kept.all()

    def test_small_ratio_selects_few(self):
        scores = np.array([[100.0, 1.0, 1.0, 1.0, 1.0, 1.0]])
        counts = np.ones(6, dtype=int)
        result = wicsum_select(scores, counts, threshold_ratio=0.3)
        assert np.flatnonzero(result.kept[0]).size == 1

    def test_token_counts_weight_selection(self):
        """A cluster with many tokens contributes more to the weighted sum."""
        scores = np.array([[5.0, 4.0]])
        heavy_second = wicsum_select(scores, np.array([1, 100]), threshold_ratio=0.5)
        light_second = wicsum_select(scores, np.array([100, 1]), threshold_ratio=0.5)
        # With the weight on cluster 1, reaching 50% of the weighted sum
        # requires including it; with the weight on cluster 0, the top
        # cluster alone suffices.
        assert np.flatnonzero(heavy_second.kept[0]).size == 2
        assert np.flatnonzero(light_second.kept[0]).size == 1

    def test_union_across_rows(self):
        scores = np.array([[10.0, 1.0], [1.0, 10.0]])
        counts = np.array([1, 1])
        result = wicsum_select(scores, counts, threshold_ratio=0.3)
        np.testing.assert_array_equal(result.selected_clusters, [0, 1])

    def test_empty_cluster_set(self):
        result = wicsum_select(np.zeros((2, 0)), np.zeros(0), threshold_ratio=0.5)
        assert result.selected_clusters.size == 0

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            wicsum_select(rng.normal(size=(3,)), np.ones(3), 0.5)
        with pytest.raises(ValueError):
            wicsum_select(rng.normal(size=(2, 3)), np.ones(4), 0.5)
        with pytest.raises(ValueError):
            wicsum_select(rng.normal(size=(2, 3)), np.ones(3), 0.0)
        with pytest.raises(ValueError):
            wicsum_select(rng.normal(size=(2, 3)), np.ones(3), 1.5)

    def test_full_sort_touches_every_element(self, rng):
        scores = np.abs(rng.normal(size=(4, 9)))
        result = wicsum_select(scores, np.ones(9), 0.5)
        assert result.sorted_elements == result.total_elements == 36


class TestEarlyExit:
    def test_matches_reference_on_simple_case(self):
        scores = np.array([[9.0, 8.0, 2.0, 1.0, 1.0]])
        counts = np.array([1, 1, 3, 2, 1])
        ref = wicsum_select(scores, counts, 0.8)
        fast = wicsum_select_early_exit(scores, counts, 0.8)
        np.testing.assert_array_equal(ref.selected_clusters, fast.selected_clusters)

    def test_early_exit_sorts_fewer_elements(self):
        """A few large scores dominate, so most buckets are skipped."""
        rng = np.random.default_rng(0)
        scores = np.concatenate(
            [np.full((8, 4), 100.0), np.abs(rng.normal(0.1, 0.02, size=(8, 252)))], axis=1
        )
        counts = np.ones(256, dtype=int)
        fast = wicsum_select_early_exit(scores, counts, 0.3)
        assert fast.sort_fraction < 0.5

    def test_invalid_bucket_count(self, rng):
        with pytest.raises(ValueError):
            wicsum_select_early_exit(np.abs(rng.normal(size=(2, 3))), np.ones(3), 0.5, num_buckets=0)

    def test_degenerate_identical_scores(self):
        scores = np.full((2, 5), 3.0)
        counts = np.ones(5, dtype=int)
        ref = wicsum_select(scores, counts, 0.5)
        fast = wicsum_select_early_exit(scores, counts, 0.5)
        np.testing.assert_array_equal(ref.selected_clusters, fast.selected_clusters)

    @given(
        rows=st.integers(1, 6),
        clusters=st.integers(1, 24),
        ratio=st.floats(0.05, 1.0),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_equivalence_with_reference(self, rows, clusters, ratio, seed):
        """Early-exit bucket sorting selects exactly the reference clusters."""
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(rows, clusters))
        scores = importance_scores(raw, head_dim=16)
        counts = rng.integers(1, 10, size=clusters)
        ref = wicsum_select(scores, counts, ratio)
        fast = wicsum_select_early_exit(scores, counts, ratio, num_buckets=8)
        np.testing.assert_array_equal(ref.selected_clusters, fast.selected_clusters)
        np.testing.assert_array_equal(ref.kept, fast.kept)

    @given(
        clusters=st.integers(1, 32),
        ratio=st.floats(0.05, 0.99),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_selection_covers_threshold(self, clusters, ratio, seed):
        """The selected clusters' weighted score reaches the threshold."""
        rng = np.random.default_rng(seed)
        scores = importance_scores(rng.normal(size=(1, clusters)), head_dim=8)
        counts = rng.integers(1, 6, size=clusters)
        result = wicsum_select(scores, counts, ratio)
        selected = np.flatnonzero(result.kept[0])
        weighted = scores[0] * counts
        assert weighted[selected].sum() >= ratio * weighted.sum() - 1e-9
