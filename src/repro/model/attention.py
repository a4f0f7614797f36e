"""Multi-head attention with grouped-query support and retrieval hooks.

During the iterative prefill stage the attention of each decoder layer
attends to the full accumulated KV cache.  When a KV cache retrieval
algorithm (ReSV or a baseline from :mod:`repro.core`) is attached, the
layer instead performs *light attention*: only the selected past tokens are
fetched and used, while the tokens of the current chunk always remain
attendable under a causal mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.kvcache import LayerKVCache
from repro.model.rope import RotaryEmbedding

_NEG_INF = -1e30


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def repeat_kv(x: np.ndarray, group_size: int) -> np.ndarray:
    """Expand KV heads to match query heads for grouped-query attention.

    ``x`` has shape ``(num_kv_heads, tokens, head_dim)``; the result has
    shape ``(num_kv_heads * group_size, tokens, head_dim)``.
    """
    if group_size == 1:
        return x
    return np.repeat(x, group_size, axis=0)


def scaled_dot_product_attention(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Standard attention ``softmax(QK^T / sqrt(d)) V``.

    Shapes: ``queries`` ``(heads, q, d)``, ``keys``/``values``
    ``(heads, k, d)``, optional ``mask`` broadcastable to ``(heads, q, k)``
    with ``True`` meaning *masked out*.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    head_dim = queries.shape[-1]
    scores = queries @ np.swapaxes(keys, -1, -2) / np.sqrt(head_dim)
    if mask is not None:
        scores = np.where(mask, _NEG_INF, scores)
    weights = softmax(scores, axis=-1)
    return weights @ values


@dataclass
class AttentionStats:
    """Bookkeeping returned by one attention call under retrieval."""

    layer_index: int
    past_tokens: int
    selected_tokens_per_head: list[int] = field(default_factory=list)


class MultiHeadAttention:
    """Grouped-query attention layer with an optional KV retrieval hook."""

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        num_kv_heads: int,
        rope: RotaryEmbedding | None,
        rng: np.random.Generator,
        identity_bias: float = 0.0,
        init_scale: float | None = None,
        query_transform: np.ndarray | None = None,
    ):
        if hidden_dim % num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if num_heads % num_kv_heads != 0:
            raise ValueError("num_heads must be divisible by num_kv_heads")
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.num_kv_heads = num_kv_heads
        self.head_dim = hidden_dim // num_heads
        self.group_size = num_heads // num_kv_heads
        self.rope = rope

        scale = init_scale if init_scale is not None else 1.0 / np.sqrt(hidden_dim)
        kv_dim = self.num_kv_heads * self.head_dim
        if query_transform is not None:
            query_transform = np.asarray(query_transform, dtype=np.float64)
            if query_transform.shape != (hidden_dim, hidden_dim):
                raise ValueError(
                    f"query_transform must be ({hidden_dim}, {hidden_dim}), "
                    f"got {query_transform.shape}"
                )

        def _proj(out_dim: int, structured: np.ndarray | None = None) -> np.ndarray:
            """Random projection, optionally biased toward a structured map.

            ``structured`` defaults to the identity: biasing the K/V/O
            projections toward the identity lets content injected into
            token embeddings survive to the output (residual-style signal
            path the synthetic QA benchmark relies on).  The query
            projection may instead be biased toward ``query_transform``, a
            fixed rotation modelling the learned query/key asymmetry of a
            trained attention head — without it every token's strongest
            match is itself.
            """
            weight = rng.normal(0.0, scale, size=(hidden_dim, out_dim))
            if identity_bias:
                base = structured if structured is not None else np.eye(hidden_dim)
                weight += identity_bias * base[:, :out_dim]
            return weight

        self.w_q = _proj(hidden_dim, structured=query_transform)
        self.w_k = _proj(kv_dim)
        self.w_v = _proj(kv_dim)
        self.w_o = _proj(hidden_dim)

    def project_qkv(
        self, hidden: np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compute per-head rotated queries/keys and values for a chunk.

        Returns ``(queries, keys, values)`` with shapes
        ``(num_heads, chunk, head_dim)`` and ``(num_kv_heads, chunk, head_dim)``.
        """
        chunk = hidden.shape[0]
        q = (hidden @ self.w_q).reshape(chunk, self.num_heads, self.head_dim)
        k = (hidden @ self.w_k).reshape(chunk, self.num_kv_heads, self.head_dim)
        v = (hidden @ self.w_v).reshape(chunk, self.num_kv_heads, self.head_dim)
        q = np.transpose(q, (1, 0, 2))
        k = np.transpose(k, (1, 0, 2))
        v = np.transpose(v, (1, 0, 2))
        if self.rope is not None:
            q = self.rope.rotate(q, positions)
            k = self.rope.rotate(k, positions)
        return q, k, v

    def forward(
        self,
        hidden: np.ndarray,
        cache: LayerKVCache,
        positions: np.ndarray,
        layer_index: int,
        retriever=None,
        frame_id: int = -1,
    ) -> tuple[np.ndarray, AttentionStats]:
        """Run attention for one chunk of tokens, updating the KV cache.

        Parameters
        ----------
        hidden:
            Chunk activations of shape ``(chunk, hidden_dim)``.
        cache:
            This layer's KV cache; the chunk's keys/values are appended.
        positions:
            Absolute positions of the chunk tokens.
        layer_index:
            Index of the owning decoder layer (used by the retriever).
        retriever:
            Optional object implementing ``observe_keys`` and ``select``
            (see :class:`repro.core.retrieval_base.KVRetriever`).
        frame_id:
            Video frame index for the chunk, or ``-1`` for text tokens.
        """
        hidden = np.asarray(hidden, dtype=np.float64)
        chunk = hidden.shape[0]
        past_tokens = len(cache)
        queries, keys, values = self.project_qkv(hidden, positions)

        if retriever is not None:
            retriever.observe_keys(layer_index, keys, positions, frame_id)

        stats = AttentionStats(layer_index=layer_index, past_tokens=past_tokens)
        if past_tokens == 0 or retriever is None:
            context = self._full_attention(queries, keys, values, cache, chunk)
            if retriever is not None and past_tokens:
                stats.selected_tokens_per_head = [past_tokens] * self.num_kv_heads
        else:
            selection = retriever.select(layer_index, queries, cache)
            context = self._light_attention(queries, keys, values, cache, selection, chunk)
            stats.selected_tokens_per_head = [
                int(np.asarray(idx).size) for idx in selection.per_kv_head_indices
            ]

        cache.append(keys, values, positions, frame_id=frame_id)
        out = np.transpose(context, (1, 0, 2)).reshape(chunk, self.hidden_dim)
        return out @ self.w_o, stats

    def _full_attention(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        cache: LayerKVCache,
        chunk: int,
    ) -> np.ndarray:
        past_k = cache.keys
        past_v = cache.values
        all_k = np.concatenate([past_k, keys], axis=1) if len(cache) else keys
        all_v = np.concatenate([past_v, values], axis=1) if len(cache) else values
        mask = self._causal_mask(chunk, len(cache), all_k.shape[1])
        q = queries
        k = repeat_kv(all_k, self.group_size)
        v = repeat_kv(all_v, self.group_size)
        return scaled_dot_product_attention(q, k, v, mask=mask[None, :, :])

    def _light_attention(
        self,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        cache: LayerKVCache,
        selection,
        chunk: int,
    ) -> np.ndarray:
        """Attention restricted to the retrieved past tokens, per KV head."""
        context = np.zeros((self.num_heads, chunk, self.head_dim), dtype=np.float64)
        for kv_head in range(self.num_kv_heads):
            indices = np.asarray(selection.per_kv_head_indices[kv_head], dtype=np.int64)
            past_k = cache.keys[kv_head, indices, :]
            past_v = cache.values[kv_head, indices, :]
            all_k = np.concatenate([past_k, keys[kv_head]], axis=0)
            all_v = np.concatenate([past_v, values[kv_head]], axis=0)
            mask = self._causal_mask(chunk, indices.size, all_k.shape[0])
            head_slice = slice(kv_head * self.group_size, (kv_head + 1) * self.group_size)
            q = queries[head_slice]
            context[head_slice] = scaled_dot_product_attention(
                q, all_k[None, :, :], all_v[None, :, :], mask=mask[None, :, :]
            )
        return context

    @staticmethod
    def _causal_mask(chunk: int, past: int, total: int) -> np.ndarray:
        """Mask of shape ``(chunk, total)``; ``True`` marks masked positions.

        Past (or selected-past) tokens are always visible; within the chunk
        token *i* may attend to chunk tokens ``0..i``.
        """
        mask = np.zeros((chunk, total), dtype=bool)
        chunk_cols = np.arange(total - chunk, total)
        rows = np.arange(chunk)[:, None]
        mask[:, total - chunk :] = chunk_cols[None, :] > (rows + (total - chunk))
        del past  # past tokens are always visible; parameter kept for clarity
        return mask
