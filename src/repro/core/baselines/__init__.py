"""Baseline KV cache management algorithms the paper compares against."""

from repro.core.baselines.infinigen import (
    InfiniGenRetriever,
    make_infinigen,
    make_infinigen_p,
)
from repro.core.baselines.rekv import ReKVRetriever, make_rekv
from repro.core.baselines.topk import budget_from_ratio, token_importance, topk_indices

__all__ = [
    "InfiniGenRetriever",
    "ReKVRetriever",
    "budget_from_ratio",
    "make_infinigen",
    "make_infinigen_p",
    "make_rekv",
    "token_importance",
    "topk_indices",
]
