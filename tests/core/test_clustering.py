"""Tests for Hamming-distance clustering and the HC table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import HashClusterTable
from repro.core.hashbit import HashBitEncoder


def _make_table(head_dim=8, n_bits=8, threshold=2) -> HashClusterTable:
    return HashClusterTable(head_dim=head_dim, n_bits=n_bits, hamming_threshold=threshold)


class TestHashClusterTable:
    def test_starts_empty(self):
        table = _make_table()
        assert table.num_clusters == 0
        assert table.num_tokens == 0
        assert table.key_clusters().shape == (0, 8)

    def test_single_token_forms_cluster(self, rng):
        table = _make_table()
        keys = rng.normal(size=(1, 8))
        bits = rng.integers(0, 2, size=(1, 8)).astype(bool)
        assignments = table.update(keys, bits, np.array([0]))
        assert assignments.tolist() == [0]
        assert table.num_clusters == 1
        assert len(table.tokens_of([0])) == 1

    def test_identical_signatures_cluster_together(self, rng):
        table = _make_table()
        keys = rng.normal(size=(3, 8))
        bits = np.tile(rng.integers(0, 2, size=(1, 8)).astype(bool), (3, 1))
        assignments = table.update(keys, bits, np.arange(3))
        assert len(set(assignments.tolist())) == 1
        assert table.num_clusters == 1
        assert len(table.tokens_of([0])) == 3

    def test_distant_signatures_form_separate_clusters(self, rng):
        table = _make_table(threshold=1)
        keys = rng.normal(size=(2, 8))
        bits = np.array([[True] * 8, [False] * 8])
        assignments = table.update(keys, bits, np.arange(2))
        assert assignments.tolist() == [0, 1]
        assert table.num_clusters == 2

    def test_key_cluster_is_mean_of_members(self, rng):
        table = _make_table()
        keys = rng.normal(size=(4, 8))
        bits = np.tile(np.ones((1, 8), dtype=bool), (4, 1))
        table.update(keys, bits, np.arange(4))
        np.testing.assert_allclose(table.key_clusters()[0], keys.mean(axis=0))

    def test_threshold_minus_one_disables_clustering(self, rng):
        table = _make_table(threshold=-1)
        keys = rng.normal(size=(5, 8))
        bits = np.tile(np.ones((1, 8), dtype=bool), (5, 1))
        table.update(keys, bits, np.arange(5))
        assert table.num_clusters == 5

    def test_tokens_of_returns_sorted_unique_indices(self, rng):
        table = _make_table()
        keys = rng.normal(size=(4, 8))
        bits = np.tile(np.ones((1, 8), dtype=bool), (4, 1))
        table.update(keys, bits, np.array([7, 3, 9, 1]))
        np.testing.assert_array_equal(table.tokens_of([0]), [1, 3, 7, 9])

    def test_tokens_of_multiple_clusters(self, rng):
        table = _make_table(threshold=0)
        keys = rng.normal(size=(2, 8))
        bits = np.array([[True] * 8, [False] * 8])
        table.update(keys, bits, np.array([4, 2]))
        np.testing.assert_array_equal(table.tokens_of([0, 1]), [2, 4])

    def test_incremental_updates_accumulate(self, rng):
        table = _make_table()
        bits = np.ones((1, 8), dtype=bool)
        for i in range(5):
            table.update(rng.normal(size=(1, 8)), bits, np.array([i]))
        assert table.num_tokens == 5
        assert table.num_clusters == 1
        assert table.mean_tokens_per_cluster() == 5.0

    def test_token_counts_match_assignments(self, rng):
        table = _make_table(threshold=3)
        keys = rng.normal(size=(20, 8))
        encoder = HashBitEncoder(8, 8, seed=0)
        bits = encoder.encode(keys)
        assignments = table.update(keys, bits, np.arange(20))
        counts = table.token_counts()
        for cluster in range(table.num_clusters):
            assert counts[cluster] == int(np.sum(assignments == cluster))

    def test_input_validation(self, rng):
        table = _make_table()
        with pytest.raises(ValueError):
            table.update(rng.normal(size=(2, 7)), np.ones((2, 8), dtype=bool), np.arange(2))
        with pytest.raises(ValueError):
            table.update(rng.normal(size=(2, 8)), np.ones((2, 7), dtype=bool), np.arange(2))
        with pytest.raises(ValueError):
            table.update(rng.normal(size=(2, 8)), np.ones((2, 8), dtype=bool), np.arange(3))
        with pytest.raises(ValueError):
            HashClusterTable(8, 8, hamming_threshold=-2)

    def test_memory_overhead_small_relative_to_cache(self, rng):
        """The paper claims the HC table costs ~1.67% of the KV cache."""
        table = HashClusterTable(head_dim=128, n_bits=32, hamming_threshold=32)
        encoder = HashBitEncoder(128, 32, seed=0)
        base = rng.normal(size=(1, 128))
        keys = base + 0.01 * rng.normal(size=(512, 128))
        table.update(keys, encoder.encode(keys), np.arange(512))
        kv_bytes = 512 * 2 * 128 * 2  # keys + values, BF16
        overhead = table.memory_overhead_bytes() / kv_bytes
        assert overhead < 0.05


class TestClusteringProperties:
    @given(
        n_tokens=st.integers(1, 30),
        threshold=st.integers(0, 16),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, n_tokens, threshold, seed):
        """Every token lands in exactly one cluster; counts are consistent."""
        rng = np.random.default_rng(seed)
        table = HashClusterTable(head_dim=8, n_bits=16, hamming_threshold=threshold)
        encoder = HashBitEncoder(8, 16, seed=0)
        keys = rng.normal(size=(n_tokens, 8))
        assignments = table.update(keys, encoder.encode(keys), np.arange(n_tokens))
        assert table.num_tokens == n_tokens
        assert int(table.token_counts().sum()) == n_tokens
        assert np.all(assignments >= 0)
        assert np.all(assignments < table.num_clusters)
        all_tokens = table.tokens_of(np.arange(table.num_clusters))
        np.testing.assert_array_equal(all_tokens, np.arange(n_tokens))

    @given(threshold=st.integers(0, 8), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_higher_threshold_never_increases_cluster_count(self, threshold, seed):
        rng = np.random.default_rng(seed)
        keys = rng.normal(size=(25, 8))
        encoder = HashBitEncoder(8, 8, seed=1)
        bits = encoder.encode(keys)

        def count(th):
            table = HashClusterTable(8, 8, hamming_threshold=th)
            table.update(keys, bits, np.arange(25))
            return table.num_clusters

        assert count(threshold + 1) <= count(threshold)
