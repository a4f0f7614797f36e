"""Equivalence: vectorized HC-table engine vs the seed reference behaviour.

The array-backed engine in :mod:`repro.core.clustering` must reproduce the
original list-of-dataclasses implementation bit-for-bit: identical cluster
assignments, representative keys and ``Selection`` indices on random
streams, on correlated adjacent-frame streams, and on the
``hamming_threshold = -1`` ablation path.  The reference implementation
below is a faithful port of the seed code (pure-Python loop over clusters,
majority votes recomputed per comparison).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReSVConfig
from repro.core.clustering import HashClusterTable
from repro.core.hashbit import HashBitEncoder, hamming_distance, pack_bits_u64
from repro.core.resv import ReSVRetriever
from repro.core.wicsum import importance_scores, wicsum_select
from repro.model.kvcache import LayerKVCache


class _ReferenceCluster:
    def __init__(self, cluster_index, token_index, key, bits):
        self.cluster_index = cluster_index
        self.token_indices = [token_index]
        self.key_sum = key.copy()
        self.bit_votes = bits.astype(np.int64)

    @property
    def token_count(self):
        return len(self.token_indices)

    @property
    def key_cluster(self):
        return self.key_sum / max(self.token_count, 1)

    @property
    def hash_bits(self):
        return self.bit_votes * 2 >= self.token_count


class ReferenceTable:
    """Seed ``HashClusterTable``: per-token Python loop over all clusters."""

    def __init__(self, head_dim, n_bits, hamming_threshold):
        self.head_dim = head_dim
        self.n_bits = n_bits
        self.hamming_threshold = hamming_threshold
        self.clusters = []
        self.num_tokens = 0

    @property
    def num_clusters(self):
        return len(self.clusters)

    def update(self, keys, hash_bits, token_indices):
        keys = np.asarray(keys, dtype=np.float64)
        hash_bits = np.asarray(hash_bits, dtype=bool)
        assignments = np.empty(keys.shape[0], dtype=np.int64)
        for i in range(keys.shape[0]):
            assignments[i] = self._insert(keys[i], hash_bits[i], int(token_indices[i]))
        self.num_tokens += keys.shape[0]
        return assignments

    def _insert(self, key, bits, token_index):
        best_cluster = -1
        best_distance = self.n_bits + 1
        for entry in self.clusters:
            distance = int(hamming_distance(bits, entry.hash_bits))
            if distance < best_distance:
                best_distance = distance
                best_cluster = entry.cluster_index
        if best_cluster >= 0 and best_distance <= self.hamming_threshold:
            entry = self.clusters[best_cluster]
            entry.token_indices.append(token_index)
            entry.key_sum = entry.key_sum + key
            entry.bit_votes = entry.bit_votes + bits.astype(np.int64)
            return best_cluster
        entry = _ReferenceCluster(len(self.clusters), token_index, key, bits)
        self.clusters.append(entry)
        return entry.cluster_index

    def key_clusters(self):
        if not self.clusters:
            return np.zeros((0, self.head_dim), dtype=np.float64)
        return np.stack([e.key_cluster for e in self.clusters], axis=0)

    def token_counts(self):
        return np.asarray([e.token_count for e in self.clusters], dtype=np.int64)

    def cluster_hash_bits(self):
        if not self.clusters:
            return np.zeros((0, self.n_bits), dtype=bool)
        return np.stack([e.hash_bits for e in self.clusters], axis=0)

    def tokens_of(self, cluster_indices):
        tokens = []
        for cluster_index in np.asarray(cluster_indices, dtype=np.int64):
            tokens.extend(self.clusters[int(cluster_index)].token_indices)
        if not tokens:
            return np.zeros((0,), dtype=np.int64)
        return np.unique(np.asarray(tokens, dtype=np.int64))


def clone_into_reference(table: HashClusterTable) -> ReferenceTable:
    """The engine table's state as a seed-style reference table, row by row.

    Members in assignment order, exact key sums and bit votes decoded from
    the store's packed ``votes`` (``2 * ones - count``).
    """
    reference = ReferenceTable(table.head_dim, table.n_bits, table.hamming_threshold)
    store, lane = table._store, table._lane
    members: list[list[int]] = [[] for _ in range(table.num_clusters)]
    for token_id, cluster in zip(*table.assignments(), strict=True):
        members[cluster].append(int(token_id))
    for index, tokens in enumerate(members):
        votes = (store._votes[lane, index] + store._counts[lane, index]) // 2
        clone = _ReferenceCluster(index, tokens[0], store._key_sums[lane, index], votes)
        clone.token_indices = tokens
        reference.clusters.append(clone)
    reference.num_tokens = table.num_tokens
    return reference


def reference_select(table, queries, cache_length, config, head_dim):
    """Seed ``ReSVRetriever.select`` for a single KV head's table."""
    rows = queries.reshape(-1, head_dim)
    raw_scores = rows @ table.key_clusters().T
    scores = importance_scores(raw_scores, head_dim)
    result = wicsum_select(scores, table.token_counts(), config.wicsum_ratio)
    token_indices = table.tokens_of(result.selected_clusters)
    token_indices = token_indices[token_indices < cache_length]
    if config.recent_window > 0:
        recent_start = max(0, cache_length - config.recent_window)
        recent = np.arange(recent_start, cache_length, dtype=np.int64)
        token_indices = np.union1d(token_indices, recent)
    return token_indices.astype(np.int64)


def _random_stream(rng, chunks, chunk_size, head_dim):
    """Uncorrelated keys: worst case for clustering."""
    return [rng.normal(size=(chunk_size, head_dim)) for _ in range(chunks)]


def _correlated_stream(rng, chunks, chunk_size, head_dim, drift=0.05, scene_every=0):
    """Adjacent-frame streams: high temporal correlation, rare scene cuts."""
    base = rng.normal(size=(chunk_size, head_dim))
    frames = []
    for index in range(chunks):
        if scene_every and index and index % scene_every == 0:
            base = rng.normal(size=(chunk_size, head_dim))
        frames.append(base + drift * rng.normal(size=(chunk_size, head_dim)))
    return frames


def _run_both_tables(stream, head_dim, n_bits, threshold, encoder):
    engine = HashClusterTable(head_dim, n_bits, threshold)
    reference = ReferenceTable(head_dim, n_bits, threshold)
    position = 0
    for keys in stream:
        bits = encoder.encode(keys)
        ids = np.arange(position, position + keys.shape[0])
        engine_assign = engine.update(keys, bits, ids)
        reference_assign = reference.update(keys, bits, ids)
        np.testing.assert_array_equal(engine_assign, reference_assign)
        position += keys.shape[0]
    return engine, reference


STREAMS = {
    "random": lambda rng: _random_stream(rng, chunks=6, chunk_size=8, head_dim=16),
    "correlated": lambda rng: _correlated_stream(rng, chunks=8, chunk_size=8, head_dim=16),
    "scene-cuts": lambda rng: _correlated_stream(
        rng, chunks=12, chunk_size=6, head_dim=16, scene_every=4
    ),
}


class TestTableEquivalence:
    @pytest.mark.parametrize("stream_kind", sorted(STREAMS))
    @pytest.mark.parametrize("threshold", [-1, 0, 3, 7, 16])
    def test_assignments_and_representatives(self, stream_kind, threshold):
        rng = np.random.default_rng(42)
        encoder = HashBitEncoder(16, 16, seed=3)
        engine, reference = _run_both_tables(STREAMS[stream_kind](rng), 16, 16, threshold, encoder)
        assert engine.num_clusters == reference.num_clusters
        assert engine.num_tokens == reference.num_tokens
        np.testing.assert_allclose(engine.key_clusters(), reference.key_clusters())
        np.testing.assert_array_equal(engine.token_counts(), reference.token_counts())
        np.testing.assert_array_equal(
            engine._store._signatures[0, : engine.num_clusters],
            pack_bits_u64(reference.cluster_hash_bits()),
        )

    @pytest.mark.parametrize("threshold", [0, 4])
    def test_tokens_of_and_membership(self, threshold):
        rng = np.random.default_rng(7)
        encoder = HashBitEncoder(16, 16, seed=1)
        engine, reference = _run_both_tables(
            STREAMS["correlated"](rng), 16, 16, threshold, encoder
        )
        all_clusters = np.arange(engine.num_clusters)
        np.testing.assert_array_equal(
            engine.tokens_of(all_clusters), reference.tokens_of(all_clusters)
        )
        for cluster in range(engine.num_clusters):
            np.testing.assert_array_equal(
                engine.tokens_of([cluster]), reference.tokens_of([cluster])
            )
        owner = dict(zip(*(column.tolist() for column in engine.assignments()), strict=True))
        for entry in reference.clusters:
            for token in entry.token_indices:
                assert owner[token] == entry.cluster_index

    def test_invalid_token_indices_leave_table_unchanged(self):
        rng = np.random.default_rng(3)
        table = HashClusterTable(8, 16, hamming_threshold=4)
        encoder = HashBitEncoder(8, 16, seed=0)
        keys = rng.normal(size=(3, 8))
        table.update(keys, encoder.encode(keys), np.arange(3))
        before = (table.num_tokens, table.num_clusters, table.token_counts().copy())
        with pytest.raises(ValueError):
            table.update(keys, encoder.encode(keys), np.array([3, -1, 4]))
        assert table.num_tokens == before[0]
        assert table.num_clusters == before[1]
        np.testing.assert_array_equal(table.token_counts(), before[2])

    def test_store_rows_match_reference_rows(self):
        """Members, exact key sums and bit votes of every cluster, row by row."""
        rng = np.random.default_rng(11)
        encoder = HashBitEncoder(16, 16, seed=0)
        engine, reference = _run_both_tables(STREAMS["random"](rng), 16, 16, 5, encoder)
        clone = clone_into_reference(engine)
        assert clone.num_tokens == reference.num_tokens
        for engine_row, reference_row in zip(clone.clusters, reference.clusters, strict=True):
            assert engine_row.token_indices == reference_row.token_indices
            np.testing.assert_array_equal(engine_row.key_sum, reference_row.key_sum)
            np.testing.assert_array_equal(engine_row.bit_votes, reference_row.bit_votes)


class TestSelectionEquivalence:
    @pytest.mark.parametrize("stream_kind", sorted(STREAMS))
    @pytest.mark.parametrize("threshold", [-1, 4, 7])
    @pytest.mark.parametrize("use_early_exit", [False, True])
    def test_selection_matches_reference(self, stream_kind, threshold, use_early_exit):
        """Engine Selection == seed selection, incl. the Th_hd = -1 ablation."""
        rng = np.random.default_rng(123)
        head_dim, n_bits = 16, 16
        config = ReSVConfig(
            n_hyperplanes=n_bits,
            hamming_threshold=max(threshold, 0),
            wicsum_ratio=0.4,
            enable_clustering=threshold >= 0,
            recent_window=3,
        )
        retriever = ReSVRetriever(
            num_layers=1,
            num_kv_heads=2,
            head_dim=head_dim,
            config=config,
            use_early_exit=use_early_exit,
        )
        cache = LayerKVCache(num_kv_heads=2, head_dim=head_dim)
        references = [
            ReferenceTable(head_dim, n_bits, threshold),
            ReferenceTable(head_dim, n_bits, threshold),
        ]
        encoder = retriever.encoder

        position = 0
        frames = STREAMS[stream_kind](rng)
        for frame_id, keys in enumerate(frames):
            head_keys = np.stack([keys, keys[::-1]], axis=0)  # distinct per-head content
            positions = np.arange(position, position + keys.shape[0])
            retriever.observe_keys(0, head_keys, positions, frame_id=frame_id)
            for kv_head, reference in enumerate(references):
                reference.update(
                    head_keys[kv_head], encoder.encode(head_keys[kv_head]), positions
                )
            cache.append(head_keys, rng.normal(size=head_keys.shape), positions, frame_id=frame_id)
            position += keys.shape[0]

        queries = rng.normal(size=(4, 3, head_dim))
        selection = retriever.select(0, queries, cache)
        for kv_head, reference in enumerate(references):
            expected = reference_select(
                reference,
                queries[kv_head * 2 : (kv_head + 1) * 2],
                len(cache),
                config,
                head_dim,
            )
            np.testing.assert_array_equal(selection.per_kv_head_indices[kv_head], expected)

    def test_stats_accumulate_per_session(self):
        rng = np.random.default_rng(5)
        retriever = ReSVRetriever(1, 1, 8, ReSVConfig(n_hyperplanes=16, wicsum_ratio=0.5))
        cache = LayerKVCache(num_kv_heads=1, head_dim=8)
        keys = rng.normal(size=(1, 12, 8))
        retriever.observe_keys(0, keys, np.arange(12), frame_id=0)
        cache.append(keys, rng.normal(size=keys.shape), np.arange(12), frame_id=0)
        assert retriever.stats.selects == 0
        retriever.select(0, rng.normal(size=(1, 2, 8)), cache)
        retriever.select(0, rng.normal(size=(1, 2, 8)), cache)
        assert retriever.stats.selects == 2
        assert retriever.stats.total_elements > 0
        assert retriever.stats.clusters_considered > 0
        occupancy = retriever.occupancy()
        assert occupancy.num_tokens == 12
        assert occupancy.num_clusters == retriever.table(0, 0).num_clusters
        retriever.reset()
        assert retriever.stats.selects == 0

    def test_empty_table_fallback_includes_recent_window_bookkeeping(self):
        """Seed bug fix: the fallback now runs the shared recent-window path."""
        rng = np.random.default_rng(9)
        retriever = ReSVRetriever(
            1, 1, 8, ReSVConfig(n_hyperplanes=16, wicsum_ratio=0.5, recent_window=4)
        )
        cache = LayerKVCache(num_kv_heads=1, head_dim=8)
        keys = rng.normal(size=(1, 6, 8))
        # Cache filled without observe_keys: the HC table stays empty.
        cache.append(keys, rng.normal(size=keys.shape), np.arange(6), frame_id=0)
        selection = retriever.select(0, rng.normal(size=(1, 1, 8)), cache)
        np.testing.assert_array_equal(selection.per_kv_head_indices[0], np.arange(6))
        assert selection.num_clusters_considered == 0
        assert retriever.stats.selects == 1
        assert retriever.stats.clusters_considered == 0
