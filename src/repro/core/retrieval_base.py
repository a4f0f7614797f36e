"""Common interface shared by ReSV and the baseline retrieval algorithms.

A retriever is attached to a :class:`repro.model.llm.StreamingVideoLLM` and
is consulted by every attention layer:

* ``observe_keys`` is called whenever a chunk of new keys is about to be
  appended to a layer's KV cache (this is where ReSV updates its hash
  cluster tables).
* ``select`` is called before light attention to decide which past tokens
  each KV head fetches from the offloaded cache.

The retriever also carries a ``stage`` attribute (``"frame"`` during the
iterative prefill of frames and question tokens, ``"generation"`` during
answer decoding) because several baselines behave differently per stage —
e.g. InfiniGen only retrieves during generation.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field

import numpy as np

from repro.model.kvcache import LayerKVCache

FRAME_STAGE = "frame"
GENERATION_STAGE = "generation"


@dataclass
class Selection:
    """Which past tokens each KV head should fetch for light attention.

    ``per_kv_head_indices`` holds, for every KV head, an int64 array of
    token indices into the layer's KV cache (indices refer to *past*
    tokens, i.e. tokens already in the cache before the current chunk).
    ``num_clusters_considered`` is optional bookkeeping used by the
    performance model to cost the KV-prediction step.
    """

    per_kv_head_indices: list[np.ndarray] = field(default_factory=list)
    num_clusters_considered: int = 0

    @classmethod
    def full(cls, num_kv_heads: int, cache_length: int) -> "Selection":
        """Selection covering the entire cache for every KV head."""
        all_indices = np.arange(cache_length, dtype=np.int64)
        return cls(per_kv_head_indices=[all_indices.copy() for _ in range(num_kv_heads)])


class KVRetriever(abc.ABC):
    """Abstract base class for KV cache retrieval algorithms."""

    name = "abstract"

    def __init__(self) -> None:
        self.stage = FRAME_STAGE

    @abc.abstractmethod
    def observe_keys(
        self, layer: int, keys: np.ndarray, positions: np.ndarray, frame_id: int
    ) -> None:
        """Notify the retriever of keys about to be appended to ``layer``.

        ``keys`` has shape ``(num_kv_heads, new_tokens, head_dim)`` and has
        already had RoPE applied — exactly what the paper's hash-bit key
        clustering consumes.
        """

    @abc.abstractmethod
    def select(self, layer: int, queries: np.ndarray, cache: LayerKVCache) -> Selection:
        """Choose which past tokens to fetch for the current chunk.

        ``queries`` has shape ``(num_heads, chunk, head_dim)`` (RoPE applied).
        """

    def reset(self) -> None:
        """Drop any per-session state (cluster tables, counters)."""
        self.stage = FRAME_STAGE

    def spawn(self) -> "KVRetriever":
        """Fresh retriever with the same configuration but no session state.

        A prototype's ``spawn`` is the ``retriever_factory`` a
        :class:`repro.model.serving.SessionBatch` takes to give every
        stream its own retrieval state while sharing one engine.  The
        default clones the instance and resets it; retrievers with heavy
        shared components (e.g. ReSV's hash encoder) override this.
        """
        fresh = copy.deepcopy(self)
        fresh.reset()
        return fresh
