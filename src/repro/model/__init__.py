"""Streaming video LLM substrate.

This package implements, in pure numpy, the functional pieces the paper's
evaluation runs on top of: a decoder-only transformer with rotary position
embeddings and grouped-query attention, a per-layer KV cache that grows as
frames stream in, a vision tower + MLP projector that turn frames into
visual tokens, and a streaming engine that performs the *iterative prefill*
stage (one prefill per arriving frame) followed by question answering.

The model holds weights only.  Each stream's mutable state (KV cache,
position counter, retriever) lives in exactly one place: the
:class:`StreamingSession` that owns it; a :class:`SessionBatch` serves many
sessions on one model.

The substrate is intentionally small and deterministic so the retrieval
algorithms in :mod:`repro.core` can be exercised with real attention math
at test speed, while the performance-plane simulator in :mod:`repro.sim`
uses production dimensions analytically.
"""

from repro.model.attention import (
    MultiHeadAttention,
    repeat_kv,
    scaled_dot_product_attention,
    softmax,
)
from repro.model.decoder import DecoderLayer, FeedForward, RMSNorm
from repro.model.kvcache import KVCache, LayerKVCache
from repro.model.llm import LLMSessionState, StreamingVideoLLM
from repro.model.rope import RotaryEmbedding
from repro.model.serving import SessionBatch
from repro.model.streaming import SessionReport, StreamingSession, StreamStats
from repro.model.tokenizer import ToyTokenizer
from repro.model.vision import MLPProjector, VisionTower

__all__ = [
    "DecoderLayer",
    "FeedForward",
    "KVCache",
    "LLMSessionState",
    "LayerKVCache",
    "MLPProjector",
    "MultiHeadAttention",
    "RMSNorm",
    "RotaryEmbedding",
    "SessionBatch",
    "SessionReport",
    "StreamStats",
    "StreamingSession",
    "StreamingVideoLLM",
    "ToyTokenizer",
    "VisionTower",
    "repeat_kv",
    "scaled_dot_product_attention",
    "softmax",
]
