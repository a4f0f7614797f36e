"""Reference retrievers the suite compares the package's retrievers against.

``tests/`` is on ``sys.path`` (pytest prepends the directory of the root
``conftest.py``), so any test module can ``from oracles import ...``.
"""

from __future__ import annotations

import numpy as np

from repro.core.retrieval_base import KVRetriever, Selection
from repro.model.kvcache import LayerKVCache


class FullRetriever(KVRetriever):
    """Fetches the entire cache — functionally identical to no retrieval.

    The vanilla baseline: it exercises the light-attention code path while
    producing the substrate's reference outputs.
    """

    name = "full"

    def observe_keys(
        self, layer: int, keys: np.ndarray, positions: np.ndarray, frame_id: int
    ) -> None:
        del layer, keys, positions, frame_id

    def select(self, layer: int, queries: np.ndarray, cache: LayerKVCache) -> Selection:
        del layer, queries
        return Selection.full(cache.num_kv_heads, len(cache))
