"""Oracles the suite checks the package against: a reference retriever and
a lookup into an energy report's per-resource rows.

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


def energy_row(report, name: str):
    """The row of ``report.resources`` named ``name`` (``KeyError`` if absent)."""
    for row in report.resources:
        if row.name == name:
            return row
    raise KeyError(name)
