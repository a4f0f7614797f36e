"""KV cache data structures for the streaming video LLM.

The streaming workload accumulates key/value tensors frame after frame
(paper Sec. II-A), which is what makes KV cache retrieval necessary in the
first place.  The structures below keep per-layer, per-KV-head caches along
with token metadata (owning frame, absolute position, token kind) that the
retrieval algorithms and the cluster-wise memory mapping need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class TokenKind(str, Enum):
    """What a cached token represents."""

    VISUAL = "visual"
    TEXT = "text"


@dataclass
class TokenMetadata:
    """Metadata for a contiguous block of appended tokens."""

    frame_index: int
    kind: TokenKind
    start_position: int
    length: int


class LayerKVCache:
    """Growable key/value cache for a single decoder layer.

    Keys and values are stored as ``(num_kv_heads, tokens, head_dim)``
    float64 arrays.  Appends grow the backing arrays geometrically so the
    amortised cost of streaming thousands of frames stays linear.
    """

    def __init__(self, num_kv_heads: int, head_dim: int, dtype_bytes: int = 2):
        if num_kv_heads <= 0 or head_dim <= 0:
            raise ValueError("num_kv_heads and head_dim must be positive")
        self.num_kv_heads = num_kv_heads
        self.head_dim = head_dim
        self.dtype_bytes = dtype_bytes
        self._capacity = 0
        self._length = 0
        self._keys = np.zeros((num_kv_heads, 0, head_dim), dtype=np.float64)
        self._values = np.zeros((num_kv_heads, 0, head_dim), dtype=np.float64)
        self._frame_ids = np.zeros((0,), dtype=np.int64)

    def __len__(self) -> int:
        return self._length

    @property
    def keys(self) -> np.ndarray:
        """View of the cached keys, shape ``(num_kv_heads, tokens, head_dim)``."""
        return self._keys[:, : self._length, :]

    @property
    def values(self) -> np.ndarray:
        """View of the cached values, shape ``(num_kv_heads, tokens, head_dim)``."""
        return self._values[:, : self._length, :]

    @property
    def frame_ids(self) -> np.ndarray:
        """Frame index that produced each cached token (-1 for text tokens)."""
        return self._frame_ids[: self._length]

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._length + extra
        if needed <= self._capacity:
            return
        new_capacity = max(needed, max(16, self._capacity * 2))
        new_keys = np.zeros((self.num_kv_heads, new_capacity, self.head_dim), dtype=np.float64)
        new_values = np.zeros_like(new_keys)
        new_frames = np.full((new_capacity,), -1, dtype=np.int64)
        if self._length:
            new_keys[:, : self._length] = self._keys[:, : self._length]
            new_values[:, : self._length] = self._values[:, : self._length]
            new_frames[: self._length] = self._frame_ids[: self._length]
        self._keys = new_keys
        self._values = new_values
        self._frame_ids = new_frames
        self._capacity = new_capacity

    def append(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
        frame_id: int = -1,
    ) -> None:
        """Append new tokens to the cache.

        Parameters
        ----------
        keys, values:
            Arrays of shape ``(num_kv_heads, new_tokens, head_dim)``.
        positions:
            Absolute positions of the new tokens, length ``new_tokens``.
        frame_id:
            Index of the video frame that produced these tokens, or ``-1``
            for text (question/answer) tokens.
        """
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.int64)
        if keys.shape != values.shape:
            raise ValueError("keys and values must have identical shapes")
        if keys.ndim != 3 or keys.shape[0] != self.num_kv_heads or keys.shape[2] != self.head_dim:
            raise ValueError(
                f"expected keys of shape ({self.num_kv_heads}, n, {self.head_dim}), "
                f"got {keys.shape}"
            )
        new_tokens = keys.shape[1]
        if positions.shape[0] != new_tokens:
            raise ValueError("positions length must match the number of new tokens")
        self._ensure_capacity(new_tokens)
        end = self._length + new_tokens
        self._keys[:, self._length : end] = keys
        self._values[:, self._length : end] = values
        self._frame_ids[self._length : end] = frame_id
        self._length = end

    def memory_bytes(self) -> int:
        """Model-precision bytes used by this layer's cache (keys + values)."""
        return 2 * self.num_kv_heads * self._length * self.head_dim * self.dtype_bytes


@dataclass
class KVCache:
    """Full-model KV cache: one :class:`LayerKVCache` per decoder layer."""

    num_layers: int
    num_kv_heads: int
    head_dim: int
    dtype_bytes: int = 2
    layers: list[LayerKVCache] = field(init=False)
    metadata: list[TokenMetadata] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.layers = [
            LayerKVCache(self.num_kv_heads, self.head_dim, self.dtype_bytes)
            for _ in range(self.num_layers)
        ]

    def __len__(self) -> int:
        return len(self.layers[0]) if self.layers else 0

    def layer(self, index: int) -> LayerKVCache:
        """Return the cache of a single decoder layer."""
        return self.layers[index]

    def record_block(self, frame_index: int, kind: TokenKind, start_position: int, length: int) -> None:
        """Record token-block metadata (shared across layers)."""
        self.metadata.append(TokenMetadata(frame_index, kind, start_position, length))

    def memory_bytes(self) -> int:
        """Total KV cache size across all layers in model-precision bytes."""
        return sum(layer.memory_bytes() for layer in self.layers)
