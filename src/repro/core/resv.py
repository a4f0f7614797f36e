"""ReSV: the paper's training-free dynamic KV cache retrieval algorithm.

ReSV combines two mechanisms (paper Sec. IV):

* **Hash-bit key clustering** — every new key (after RoPE) is reduced to an
  :math:`N_{hp}`-bit random-hyperplane signature and clustered against the
  per-layer, per-head hash cluster table using Hamming distance.  Clusters
  capture the strong spatial-temporal similarity between tokens of adjacent
  video frames, so the downstream selection step only has to score one
  representative key per cluster.
* **WiCSum thresholding** — the current queries are scored against the
  representative keys and a weighted cumulative-sum threshold dynamically
  decides how many clusters each layer/head keeps, instead of a fixed
  top-k.

The selected clusters are mapped back to token indices through the HC table
and those tokens are the only past KV entries fetched for light attention.

Each retriever instance owns the state of **one** stream; ``spawn()``
creates additional per-session instances that share the (immutable) hash
encoder, which is how a :class:`repro.model.serving.SessionBatch` runs many
independent streams through one engine.  Selection statistics accumulate in
a :class:`RetrievalEngineStats` per instance, which the performance plane
(:mod:`repro.sim.pipeline`) and the analysis helpers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from repro.config import ReSVConfig
from repro.core.clustering import HashClusterLanes, HashClusterTable
from repro.core.hashbit import HashBitEncoder
from repro.core.retrieval_base import KVRetriever, Selection
from repro.core.wicsum import NUM_BUCKETS, importance_scores, wicsum_lanes
from repro.model.kvcache import LayerKVCache


@dataclass
class RetrievalEngineStats:
    """Per-session selection statistics accumulated across ``select`` calls.

    These replace the old single-stream ``last_*`` attributes: every stream
    carries its own instance, so a multi-session batch can report sort
    fraction, clusters considered and table occupancy per stream.
    """

    selects: int = 0
    sorted_elements: int = 0
    total_elements: int = 0
    clusters_considered: int = 0

    @property
    def sort_fraction(self) -> float:
        """Fraction of score elements sorted across the whole session."""
        if self.total_elements == 0:
            return 0.0
        return self.sorted_elements / self.total_elements

    def record_select(self, sorted_elements: int, total_elements: int, clusters: int) -> None:
        self.selects += 1
        self.sorted_elements += sorted_elements
        self.total_elements += total_elements
        self.clusters_considered += clusters

    def reset(self) -> None:
        self.selects = 0
        self.sorted_elements = 0
        self.total_elements = 0
        self.clusters_considered = 0


@dataclass
class TableOccupancy:
    """Aggregate HC-table occupancy across all layers and heads."""

    num_tables: int = 0
    num_clusters: int = 0
    num_tokens: int = 0
    table_bytes: int = 0

    @property
    def mean_tokens_per_cluster(self) -> float:
        if self.num_clusters == 0:
            return 0.0
        return self.num_tokens / self.num_clusters


class ReSVRetriever(KVRetriever):
    """Training-free dynamic KV cache retrieval (hash clustering + WiCSum)."""

    name = "resv"

    def __init__(
        self,
        num_layers: int,
        num_kv_heads: int,
        head_dim: int,
        config: ReSVConfig | None = None,
        use_early_exit: bool = False,
        encoder: HashBitEncoder | None = None,
    ):
        super().__init__()
        self.num_layers = num_layers
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.config = config or ReSVConfig()
        self.use_early_exit = use_early_exit
        # The encoder is stateless after construction and may be shared by
        # every per-session retriever spawned from one engine.
        self.encoder = encoder or HashBitEncoder(
            head_dim, self.config.n_hyperplanes, seed=self.config.seed
        )
        self.stats = RetrievalEngineStats()
        self._layers: list[HashClusterLanes] = []
        self._init_state()

    def _init_state(self) -> None:
        """One lane store per decoder layer, one lane per KV head."""
        # Clustering disabled (ablation): every token is its own cluster.
        threshold = self.config.hamming_threshold if self.config.enable_clustering else -1
        self._layers = [
            HashClusterLanes(
                self.num_kv_heads, self.head_dim, self.config.n_hyperplanes, threshold
            )
            for _ in range(self.num_layers)
        ]

    def reset(self) -> None:
        super().reset()
        self.stats.reset()
        self._init_state()

    def spawn(self) -> "ReSVRetriever":
        """Fresh per-session retriever sharing this engine's hash encoder."""
        return ReSVRetriever(
            self.num_layers,
            self.num_kv_heads,
            self.head_dim,
            config=self.config,
            use_early_exit=self.use_early_exit,
            encoder=self.encoder,
        )

    # ------------------------------------------------------------------ #
    # KVRetriever interface
    # ------------------------------------------------------------------ #
    def observe_keys(
        self, layer: int, keys: np.ndarray, positions: np.ndarray, frame_id: int
    ) -> None:
        """Cluster the new keys of one chunk into the layer's HC tables."""
        del frame_id, positions
        keys = np.asarray(keys, dtype=np.float64)
        store = self._layers[layer]
        # Token ids are cache positions: the layer has seen num_tokens so far.
        token_indices = np.arange(store.num_tokens, store.num_tokens + keys.shape[1])
        store.update(keys, self.encoder.encode(keys), token_indices)

    def select(self, layer: int, queries: np.ndarray, cache: LayerKVCache) -> Selection:
        """Pick past tokens for light attention via WiCSum over cluster scores."""
        queries = np.asarray(queries, dtype=np.float64)
        cache_length = len(cache)
        lanes = self.num_kv_heads
        if cache_length == 0:
            return Selection.full(lanes, 0)

        store = self._layers[layer]
        clusters_considered = sorted_elements = total_elements = 0
        if store.num_tokens == 0:
            # No signatures observed yet: fall back to the full cache.  The
            # recent-window union and bookkeeping below still apply, keeping
            # the fallback consistent with the normal path.
            fetch = np.ones((lanes, cache_length), dtype=bool)
        else:
            live = store.live
            clusters_considered = int(live.sum())
            if self.config.enable_wicsum:
                # One score row per (query head of the lane's GQA group, chunk token).
                rows = queries.reshape(lanes, -1, self.head_dim)
                representatives = store.key_clusters()
                raw_scores = np.full(
                    (lanes, rows.shape[1], representatives.shape[1]), -np.inf
                )
                for lane, k in enumerate(live.tolist()):
                    raw_scores[lane, :, :k] = rows[lane] @ representatives[lane, :k].T
                kept, sorted_elements = wicsum_lanes(
                    importance_scores(raw_scores, self.head_dim),
                    store.token_counts(),
                    live,
                    self.config.wicsum_ratio,
                    NUM_BUCKETS if self.use_early_exit else None,
                )
                wanted = kept.any(axis=1)
                total_elements = rows.shape[1] * clusters_considered
            else:
                wanted = np.arange(int(live.max())) < live[:, None]
            # observe_keys numbers tokens by cache position, so a table's
            # insertion order is its token ids.  The HC table also contains
            # the current chunk's tokens (they are clustered on arrival,
            # before the chunk is appended to the cache); selection must only
            # return tokens already resident in the offloaded cache.
            resident = min(store.num_tokens, cache_length)
            fetch = np.zeros((lanes, cache_length), dtype=bool)
            fetch[:, :resident] = store.members(wanted)[:, :resident]
        if self.config.recent_window > 0:
            fetch[:, max(0, cache_length - self.config.recent_window) :] = True
        lane_of, token_indices = np.nonzero(fetch)
        bounds = np.searchsorted(lane_of, np.arange(lanes + 1)).tolist()

        self.stats.record_select(sorted_elements, total_elements, clusters_considered)
        return Selection(
            per_kv_head_indices=[token_indices[start:stop] for start, stop in pairwise(bounds)],
            num_clusters_considered=clusters_considered,
        )

    # ------------------------------------------------------------------ #
    # introspection helpers
    # ------------------------------------------------------------------ #
    def table(self, layer: int, kv_head: int) -> HashClusterTable:
        """Access a specific HC table (used by tests and the KVMU mapping)."""
        return self._layers[layer].table(kv_head)

    def _tables(self) -> list[HashClusterTable]:
        return [
            store.table(lane) for store in self._layers for lane in range(self.num_kv_heads)
        ]

    def occupancy(self) -> TableOccupancy:
        """Aggregate table occupancy snapshot across all layers and heads."""
        snapshot = TableOccupancy()
        for table in self._tables():
            snapshot.num_tables += 1
            snapshot.num_clusters += table.num_clusters
            snapshot.num_tokens += table.num_tokens
            snapshot.table_bytes += table.memory_overhead_bytes()
        return snapshot

    def mean_tokens_per_cluster(self) -> float:
        """Average cluster occupancy across all layers and heads."""
        values = [
            table.mean_tokens_per_cluster() for table in self._tables() if table.num_clusters > 0
        ]
        return float(np.mean(values)) if values else 0.0
