"""Equivalence: the lane-batched HC-table engine vs its per-head composition.

Three layers of the same claim — batching the KV heads of a layer into one
kernel changes no bit of any result:

* an L-lane :class:`HashClusterLanes` store equals L independent seed
  ``ReferenceTable`` s (the port in ``test_equivalence.py``), key sums
  included, bit for bit;
* :meth:`ReSVRetriever.select` equals the per-head composition
  ``importance_scores`` → ``wicsum_select*`` → ``tokens_of`` → recent-window
  union it replaced;
* the float-order rule of :func:`wicsum_lanes` — row totals are summed on
  the unpadded slice — holds, and is needed.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import ReSVConfig
from repro.core.clustering import HashClusterLanes
from repro.core.hashbit import HashBitEncoder, pack_bits_u64
from repro.core.resv import ReSVRetriever
from repro.core.wicsum import (
    importance_scores,
    lane_totals,
    wicsum_lanes,
    wicsum_select,
    wicsum_select_early_exit,
)
from repro.model.kvcache import LayerKVCache

# the seed port lives in the sibling test module (pytest puts tests/core on sys.path)
ReferenceTable = importlib.import_module("test_equivalence").ReferenceTable


# ---------------------------------------------------------------------- #
# (a) insertion: one L-lane store == L independent reference tables
# ---------------------------------------------------------------------- #
def _lane_chunks(rng, lanes, head_dim, chunk_sizes):
    """Correlated chunks whose noise grows with the lane index.

    Quiet lanes keep folding tokens into few clusters while noisy lanes
    keep opening new ones, so lanes end at different cluster counts.
    """
    base = rng.normal(size=(lanes, max(chunk_sizes), head_dim))
    noise = 0.02 + 0.3 * np.arange(lanes)[:, None, None]
    return [base[:, :n] + noise * rng.normal(size=(lanes, n, head_dim)) for n in chunk_sizes]


def _feed(lanes, head_dim, n_bits, threshold, chunks, seed=0):
    encoder = HashBitEncoder(head_dim, n_bits, seed=seed)
    store = HashClusterLanes(lanes, head_dim, n_bits, threshold)
    references = [ReferenceTable(head_dim, n_bits, threshold) for _ in range(lanes)]
    position = 0
    grew_mid_chunk = False
    for keys in chunks:
        bits = encoder.encode(keys)
        ids = np.arange(position, position + keys.shape[1])
        capacity = store._counts.shape[1]
        assignments = store.update(keys, bits, ids)
        for lane, reference in enumerate(references):
            np.testing.assert_array_equal(
                assignments[lane], reference.update(keys[lane], bits[lane], ids)
            )
        # a chunk that started inside the capacity and ended beyond it
        grew_mid_chunk |= bool(capacity and store.live.max() > capacity)
        position += keys.shape[1]
    return store, references, grew_mid_chunk


def _assert_lanes_equal_references(store, references):
    for lane, reference in enumerate(references):
        table = store.table(lane)
        assert table.num_clusters == reference.num_clusters
        assert table.num_tokens == reference.num_tokens
        np.testing.assert_array_equal(table.token_counts(), reference.token_counts())
        np.testing.assert_array_equal(
            store._signatures[lane, : table.num_clusters],
            pack_bits_u64(reference.cluster_hash_bits()),
        )
        # sums, then means: the same float additions in the same order
        key_sums = store._key_sums[lane, : table.num_clusters]
        for cluster, entry in enumerate(reference.clusters):
            np.testing.assert_array_equal(key_sums[cluster], entry.key_sum)
            np.testing.assert_array_equal(table.tokens_of([cluster]), entry.token_indices)
        np.testing.assert_array_equal(table.key_clusters(), reference.key_clusters())
        everything = np.arange(table.num_clusters)
        np.testing.assert_array_equal(
            table.tokens_of(everything), reference.tokens_of(everything)
        )


class TestLaneInsertion:
    @given(
        lanes=st.integers(1, 8),
        n_bits=st.sampled_from([8, 32, 64, 96]),  # one and two uint64 words
        threshold=st.sampled_from(["off", 0, 7, "n_bits"]),
        chunk_sizes=st.lists(st.integers(1, 9), min_size=1, max_size=7),
        seed=st.integers(0, 10_000),
    )
    def test_store_equals_independent_reference_tables(
        self, lanes, n_bits, threshold, chunk_sizes, seed
    ):
        threshold = {"off": -1, "n_bits": n_bits}.get(threshold, threshold)
        rng = np.random.default_rng(seed)
        chunks = _lane_chunks(rng, lanes, 12, chunk_sizes)
        store, references, _ = _feed(lanes, 12, n_bits, threshold, chunks, seed=seed)
        _assert_lanes_equal_references(store, references)

    @pytest.mark.parametrize("n_bits", [32, 96])
    def test_ragged_lanes_and_capacity_doubling_mid_chunk(self, n_bits):
        """Lanes end at different cluster counts; the store grows inside a chunk."""
        rng = np.random.default_rng(1)
        chunks = _lane_chunks(rng, 4, 12, [1, 9, 1, 12, 5, 12, 12, 3])  # 1 = a decode step
        store, references, grew_mid_chunk = _feed(4, 12, n_bits, 7, chunks)
        _assert_lanes_equal_references(store, references)
        assert len(set(store.live.tolist())) > 1
        assert grew_mid_chunk

    def test_lane_view_cannot_be_updated_alone(self):
        """Lanes share their tokens: one lane of a wider store cannot run ahead."""
        store = HashClusterLanes(2, 4, 8, 2)
        with pytest.raises(ValueError):
            store.table(1).update(np.zeros((1, 4)), np.zeros((1, 8), dtype=bool), np.arange(1))
        assert store.num_tokens == 0


# ---------------------------------------------------------------------- #
# (b) selection: ReSVRetriever.select == the per-head composition
# ---------------------------------------------------------------------- #
def composed_select(retriever, layer, queries, cache_length):
    """The per-head loop ``select`` replaced, over the public per-table API."""
    config = retriever.config
    group_size = queries.shape[0] // retriever.num_kv_heads
    select_fn = wicsum_select_early_exit if retriever.use_early_exit else wicsum_select
    per_head, clusters, sorted_elements, total_elements = [], 0, 0, 0
    for kv_head in range(retriever.num_kv_heads):
        table = retriever.table(layer, kv_head)
        if table.num_clusters == 0:
            tokens = np.arange(cache_length, dtype=np.int64)
        else:
            rows = queries[kv_head * group_size : (kv_head + 1) * group_size]
            rows = rows.reshape(-1, retriever.head_dim)
            scores = importance_scores(rows @ table.key_clusters().T, retriever.head_dim)
            selected = np.arange(table.num_clusters)
            if config.enable_wicsum:
                result = select_fn(scores, table.token_counts(), config.wicsum_ratio)
                selected = result.selected_clusters
                sorted_elements += result.sorted_elements
                total_elements += result.total_elements
            clusters += table.num_clusters
            tokens = table.tokens_of(selected)
            tokens = tokens[tokens < cache_length]
        if config.recent_window > 0:
            recent = np.arange(max(0, cache_length - config.recent_window), cache_length)
            tokens = np.union1d(tokens, recent)
        per_head.append(tokens)
    return per_head, clusters, sorted_elements, total_elements


SELECT_CONFIGS = {
    "default": {},
    "no-wicsum": {"enable_wicsum": False},
    "ratio-one": {"wicsum_ratio": 1.0},
    "no-recent-window": {"recent_window": 0},
    "window-beyond-cache": {"recent_window": 10_000},
    "no-clustering": {"enable_clustering": False},
}


class TestLaneSelection:
    @pytest.mark.parametrize("config_kind", sorted(SELECT_CONFIGS))
    @pytest.mark.parametrize("group_size", [1, 2, 4])
    @pytest.mark.parametrize("use_early_exit", [False, True])
    @pytest.mark.parametrize("queries_kind", ["random", "all-equal-scores"])
    def test_select_equals_per_head_composition(
        self, config_kind, group_size, use_early_exit, queries_kind
    ):
        rng = np.random.default_rng(17)
        kv_heads, head_dim = 3, 8
        overrides = {"wicsum_ratio": 0.4, "recent_window": 3, **SELECT_CONFIGS[config_kind]}
        config = ReSVConfig(n_hyperplanes=16, hamming_threshold=3, **overrides)
        retriever = ReSVRetriever(1, kv_heads, head_dim, config, use_early_exit=use_early_exit)
        cache = LayerKVCache(num_kv_heads=kv_heads, head_dim=head_dim)
        expected_stats = [0, 0, 0, 0]  # selects, clusters, sorted, total
        position = 0
        for frame_id, keys in enumerate(_lane_chunks(rng, kv_heads, head_dim, [5, 1, 7, 4, 6])):
            ids = np.arange(position, position + keys.shape[1])
            retriever.observe_keys(0, keys, ids, frame_id=frame_id)
            if queries_kind == "random":
                queries = rng.normal(size=(kv_heads * group_size, keys.shape[1], head_dim))
            else:  # zero queries score every cluster alike: the degenerate bucket path
                queries = np.zeros((kv_heads * group_size, keys.shape[1], head_dim))
            if position:
                expected, clusters, sorted_elements, total_elements = composed_select(
                    retriever, 0, queries, len(cache)
                )
                selection = retriever.select(0, queries, cache)
                for got, want in zip(selection.per_kv_head_indices, expected, strict=True):
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, want)
                assert selection.num_clusters_considered == clusters
                expected_stats[0] += 1
                for slot, value in enumerate((clusters, sorted_elements, total_elements), 1):
                    expected_stats[slot] += value
            cache.append(keys, keys, ids, frame_id=frame_id)
            position += keys.shape[1]
        stats = retriever.stats
        assert expected_stats == [
            stats.selects, stats.clusters_considered, stats.sorted_elements, stats.total_elements
        ]
        if config.enable_wicsum:
            assert stats.total_elements > 0

    @pytest.mark.parametrize("recent_window", [0, 2])
    def test_cache_longer_than_the_table(self, recent_window):
        """Tokens the table never observed are only reachable through the recent window."""
        rng = np.random.default_rng(3)
        config = ReSVConfig(n_hyperplanes=16, wicsum_ratio=0.5, recent_window=recent_window)
        retriever = ReSVRetriever(1, 2, 8, config, use_early_exit=True)
        cache = LayerKVCache(num_kv_heads=2, head_dim=8)
        keys = rng.normal(size=(2, 6, 8))
        retriever.observe_keys(0, keys, np.arange(6), frame_id=0)
        cache.append(keys, keys, np.arange(6), frame_id=0)
        unseen = rng.normal(size=(2, 5, 8))
        cache.append(unseen, unseen, np.arange(6, 11), frame_id=1)  # no observe_keys
        queries = rng.normal(size=(2, 3, 8))
        expected, *_ = composed_select(retriever, 0, queries, len(cache))
        selection = retriever.select(0, queries, cache)
        for got, want in zip(selection.per_kv_head_indices, expected, strict=True):
            np.testing.assert_array_equal(got, want)
            assert set(got[got >= 6].tolist()) == set(range(11 - recent_window, 11))


# ---------------------------------------------------------------------- #
# (c) the float-order rule of the padded score block
# ---------------------------------------------------------------------- #
class TestPaddedBlockFloatOrder:
    def test_padded_and_unpadded_blocks_threshold_alike(self):
        """200 random (rows, k, k_max): bit-identical totals, kept masks and sort work."""
        rng = np.random.default_rng(2026)
        padded_sum_differs = 0
        for _ in range(200):
            rows = int(rng.integers(1, 20))
            live = rng.integers(1, 200, size=int(rng.integers(1, 5)))
            k_max = int(live.max() + rng.integers(0, 40))
            scores = np.zeros((live.size, rows, k_max))
            counts = np.zeros((live.size, k_max), dtype=np.int64)
            for lane, k in enumerate(live.tolist()):
                scores[lane, :, :k] = importance_scores(rng.normal(size=(rows, k)) * 6.0, 16)
                counts[lane, :k] = rng.integers(1, 40, size=k)
            weighted = scores * counts[:, None, :]
            totals = lane_totals(weighted, live)
            ratio = float(rng.uniform(0.05, 1.0))
            kept, sorted_elements = wicsum_lanes(scores, counts, live, ratio, num_buckets=16)
            expected_sorted = 0
            for lane, k in enumerate(live.tolist()):
                unpadded = np.ascontiguousarray(weighted[lane, :, :k])
                np.testing.assert_array_equal(totals[lane], unpadded.sum(axis=1))
                padded_sum_differs += bool((weighted[lane].sum(axis=1) != totals[lane]).any())
                alone = wicsum_select_early_exit(scores[lane, :, :k], counts[lane, :k], ratio)
                np.testing.assert_array_equal(kept[lane, :, :k], alone.kept)
                assert not kept[lane, :, k:].any()
                expected_sorted += alone.sorted_elements
            assert sorted_elements == expected_sorted
        # the rule is not vacuous: summing the zero-padded row is a different float
        assert padded_sum_differs > 0
