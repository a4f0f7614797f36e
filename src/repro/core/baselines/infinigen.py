"""InfiniGen and InfiniGenP baselines: fixed top-k KV retrieval.

InfiniGen (Lee et al., OSDI'24) speculates which KV entries the next layer
needs and prefetches a fixed top-k of them — but only during the text
*generation* stage; during the iterative prefill of streaming video frames
it falls back to fetching the full cache (paper Sec. III-A).  InfiniGenP is
the paper's extension that applies the same fixed top-k selection during
prefill as well, which is what exposes the accuracy cost of a static k.

The functional model here uses exact query/key scores for the top-k choice
(InfiniGen's low-rank approximation affects prediction *cost*, which the
performance plane accounts for, not which tokens a faithful top-k keeps).
"""

from __future__ import annotations

import numpy as np

from repro.config import TopKConfig
from repro.core.baselines.topk import budget_from_ratio, token_importance, topk_indices
from repro.core.retrieval_base import GENERATION_STAGE, KVRetriever, Selection
from repro.model.kvcache import LayerKVCache


class InfiniGenRetriever(KVRetriever):
    """Fixed top-k retrieval with per-stage enable flags."""

    name = "infinigen"

    def __init__(self, config: TopKConfig | None = None):
        super().__init__()
        self.config = config or TopKConfig(retrieve_in_prefill=False)

    def observe_keys(
        self, layer: int, keys: np.ndarray, positions: np.ndarray, frame_id: int
    ) -> None:
        del layer, keys, positions, frame_id

    def _active_ratio(self) -> float | None:
        """Selection ratio for the current stage, or ``None`` for full fetch."""
        if self.stage == GENERATION_STAGE:
            return self.config.generation_ratio if self.config.retrieve_in_generation else None
        return self.config.prefill_ratio if self.config.retrieve_in_prefill else None

    def select(self, layer: int, queries: np.ndarray, cache: LayerKVCache) -> Selection:
        del layer
        cache_length = len(cache)
        if cache_length == 0:
            return Selection.full(cache.num_kv_heads, 0)
        ratio = self._active_ratio()
        if ratio is None:
            return Selection.full(cache.num_kv_heads, cache_length)

        num_heads = queries.shape[0]
        group_size = num_heads // cache.num_kv_heads
        budget = budget_from_ratio(cache_length, ratio)
        per_head: list[np.ndarray] = []
        for kv_head in range(cache.num_kv_heads):
            group = queries[kv_head * group_size : (kv_head + 1) * group_size]
            rows = group.reshape(-1, queries.shape[-1])
            importance = token_importance(rows, cache.keys[kv_head])
            per_head.append(topk_indices(importance, budget))
        return Selection(per_kv_head_indices=per_head)


def make_infinigen(generation_ratio: float = 0.067) -> InfiniGenRetriever:
    """InfiniGen as published: retrieval only during text generation."""
    retriever = InfiniGenRetriever(
        TopKConfig(
            prefill_ratio=1.0,
            generation_ratio=generation_ratio,
            retrieve_in_prefill=False,
            retrieve_in_generation=True,
        )
    )
    retriever.name = "infinigen"
    return retriever


def make_infinigen_p(
    prefill_ratio: float = 0.5, generation_ratio: float = 0.067
) -> InfiniGenRetriever:
    """InfiniGenP: the paper's prefill-extended variant of InfiniGen."""
    retriever = InfiniGenRetriever(
        TopKConfig(
            prefill_ratio=prefill_ratio,
            generation_ratio=generation_ratio,
            retrieve_in_prefill=True,
            retrieve_in_generation=True,
        )
    )
    retriever.name = "infinigen_p"
    return retriever
