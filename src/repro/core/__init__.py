"""ReSV — the paper's core contribution — and the retrieval interface.

Public surface:

* :class:`repro.core.resv.ReSVRetriever` — hash-bit key clustering +
  WiCSum thresholding, on the lane-batched kernels
  :class:`repro.core.clustering.HashClusterLanes` and
  :func:`repro.core.wicsum.wicsum_lanes` (one lane per KV head).
* :class:`repro.core.retrieval_base.KVRetriever` — the interface attention
  layers consult.
* :mod:`repro.core.baselines` — InfiniGen / InfiniGenP / ReKV comparison
  points.
"""

from repro.core.clustering import HashClusterLanes, HashClusterTable
from repro.core.hashbit import (
    HashBitEncoder,
    cosine_similarity_matrix,
    hamming_distance,
    pack_bits_u64,
    pairwise_hamming,
    words_for_bits,
)
from repro.core.resv import ReSVRetriever, RetrievalEngineStats, TableOccupancy
from repro.core.retrieval_base import (
    FRAME_STAGE,
    GENERATION_STAGE,
    KVRetriever,
    Selection,
)
from repro.core.wicsum import (
    WiCSumResult,
    importance_scores,
    wicsum_lanes,
    wicsum_select,
    wicsum_select_early_exit,
)

__all__ = [
    "FRAME_STAGE",
    "GENERATION_STAGE",
    "HashBitEncoder",
    "HashClusterLanes",
    "HashClusterTable",
    "KVRetriever",
    "ReSVRetriever",
    "RetrievalEngineStats",
    "Selection",
    "TableOccupancy",
    "WiCSumResult",
    "cosine_similarity_matrix",
    "hamming_distance",
    "importance_scores",
    "pack_bits_u64",
    "pairwise_hamming",
    "words_for_bits",
    "wicsum_lanes",
    "wicsum_select",
    "wicsum_select_early_exit",
]
