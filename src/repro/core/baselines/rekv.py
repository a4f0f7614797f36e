"""ReKV baseline: frame-level KV cache retrieval.

ReKV (Di et al., ICLR'25) retrieves KV cache at the granularity of whole
video frames: each past frame is summarised by a representative key, the
frames most relevant to the current query are picked, and *all* tokens of
the selected frames are fetched.  The coarse granularity means many tokens
are fetched to keep the few that matter, which is exactly the inefficiency
the paper's Fig. 20 and Table II contrast ReSV against.
"""

from __future__ import annotations

import numpy as np

from repro.config import TopKConfig
from repro.core.baselines.topk import budget_from_ratio
from repro.core.retrieval_base import GENERATION_STAGE, KVRetriever, Selection
from repro.model.kvcache import LayerKVCache


class ReKVRetriever(KVRetriever):
    """Frame-granular top-k retrieval."""

    name = "rekv"

    def __init__(self, config: TopKConfig | None = None):
        super().__init__()
        self.config = config or TopKConfig(
            prefill_ratio=0.58, generation_ratio=0.31, frame_level=True
        )

    def observe_keys(
        self, layer: int, keys: np.ndarray, positions: np.ndarray, frame_id: int
    ) -> None:
        del layer, keys, positions, frame_id

    def _active_ratio(self) -> float:
        if self.stage == GENERATION_STAGE:
            return self.config.generation_ratio
        return self.config.prefill_ratio

    def select(self, layer: int, queries: np.ndarray, cache: LayerKVCache) -> Selection:
        del layer
        cache_length = len(cache)
        if cache_length == 0:
            return Selection.full(cache.num_kv_heads, 0)
        budget = budget_from_ratio(cache_length, self._active_ratio())

        frame_ids = cache.frame_ids
        # Text tokens (frame id -1) form their own group so questions stay
        # retrievable across turns.
        groups: dict[int, np.ndarray] = {}
        for group_id in np.unique(frame_ids):
            groups[int(group_id)] = np.nonzero(frame_ids == group_id)[0]

        num_heads = queries.shape[0]
        group_size = num_heads // cache.num_kv_heads
        per_head: list[np.ndarray] = []
        for kv_head in range(cache.num_kv_heads):
            head_queries = queries[kv_head * group_size : (kv_head + 1) * group_size]
            rows = head_queries.reshape(-1, queries.shape[-1])
            keys = cache.keys[kv_head]
            # Score each frame by its representative (mean) key.
            group_ids = sorted(groups)
            reps = np.stack([keys[groups[g]].mean(axis=0) for g in group_ids], axis=0)
            scores = (rows @ reps.T).max(axis=0) if rows.size else np.zeros(len(group_ids))
            order = np.argsort(-scores, kind="stable")
            selected_tokens: list[np.ndarray] = []
            total = 0
            for rank in order:
                frame_tokens = groups[group_ids[int(rank)]]
                selected_tokens.append(frame_tokens)
                total += frame_tokens.size
                if total >= budget:
                    break
            if selected_tokens:
                indices = np.sort(np.concatenate(selected_tokens)).astype(np.int64)
            else:
                indices = np.zeros((0,), dtype=np.int64)
            per_head.append(indices)
        return Selection(per_kv_head_indices=per_head)


def make_rekv(prefill_ratio: float = 0.58, generation_ratio: float = 0.31) -> ReKVRetriever:
    """ReKV calibrated to the paper's Table II average retrieval ratios."""
    return ReKVRetriever(
        TopKConfig(
            prefill_ratio=prefill_ratio,
            generation_ratio=generation_ratio,
            frame_level=True,
        )
    )
